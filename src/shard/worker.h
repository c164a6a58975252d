// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The worker side of `grca shard`: one process, one handshake, one stream
// of result frames. The same entry point serves both spawn modes — the
// exec'd `grca shard-worker` subcommand and the fork()ed child the bench
// and tests use — so the code path under test is the production one.
#pragma once

#include <string>

#include "core/diagnosis_graph.h"

namespace grca::shard {

/// The study's diagnosis graph by name ("bgp" | "cdn" | "pim" | "innet").
/// Throws ConfigError on an unknown study. Shared by coordinator (root
/// lookup) and worker (diagnosis) so both sides agree by construction.
core::DiagnosisGraph study_graph(const std::string& study);

/// Runs a worker: reads the handshake frame from `in_fd`, loads the corpus
/// and its slice store, diagnoses its assigned symptoms and streams result
/// + status frames to `out_fd`.
/// Returns the process exit code (0 = status frame sent). Never throws:
/// failures are reported as a kError frame (best effort) + nonzero return.
int run_worker(int in_fd, int out_fd);

}  // namespace grca::shard
