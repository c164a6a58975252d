// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The `grca shard` coordinator: partitions the root-symptom stream over N
// worker processes (each diagnosing off its own mmap'd, re-sealed slice of
// the persistent store), collects
// their result frames over pipes and reassembles the global diagnosis
// vector by sequence number — a deterministic merge whose ResultBrowser
// view is byte-identical to single-process `grca diagnose --store`.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "shard/partition.h"
#include "shard/wire.h"

namespace grca::shard {

struct ShardOptions {
  std::string study;
  std::filesystem::path data_dir;   // replay corpus (configs + records)
  std::filesystem::path store_dir;  // full persistent store
  /// Where slice stores go. Empty = "<store_dir>.slices".
  std::filesystem::path slice_dir;
  std::uint32_t workers = 8;
  std::uint32_t threads_per_worker = 1;
  /// Keep slice stores on disk after the run (debugging with
  /// `grca store inspect`); default removes them.
  bool keep_slices = false;
  /// Re-run failed workers once (attempt 1) before giving up. The
  /// partition is a pure function of store + topology, so the retried
  /// worker recomputes byte-identical results.
  bool retry_failed = false;
  /// Spawn by fork() instead of fork+exec. The bench and tests use this —
  /// their binary is not `grca` — while the CLI uses exec so workers show
  /// up as `grca shard-worker` processes.
  bool fork_workers = false;
  /// Binary to exec (argv: <binary> shard-worker). Empty = /proc/self/exe.
  std::filesystem::path worker_binary;
  /// Extra DSL text appended to the study graph (already concatenated).
  std::string extra_dsl;
  /// Failure injection (tests/CI): worker `test_fail_worker` dies after
  /// emitting `test_fail_after` results on its first attempt.
  std::uint32_t test_fail_worker = kNoValue;
  std::uint32_t test_fail_after = 0;
};

struct WorkerStatus {
  std::uint32_t index = 0;
  pid_t pid = -1;
  std::uint32_t attempts = 0;       // spawns (1, or 2 after a retry)
  bool ok = false;
  bool signaled = false;            // terminated by a signal
  int exit_code = 0;                // or the signal number when signaled
  std::uint64_t assigned = 0;       // symptoms the partition gave it
  std::uint64_t results = 0;        // result frames received
  std::uint64_t store_events = 0;   // events in its store view
  double load_seconds = 0.0;
  double diagnose_seconds = 0.0;
  double wall_seconds = 0.0;        // spawn -> exit, coordinator clock
  std::string error;                // kError frame text or exit diagnosis
};

struct ShardReport {
  bool ok = false;
  /// Global diagnosis vector in store order — what the ResultBrowser
  /// renders. Instance pointers point into `arenas`; keep both together.
  std::vector<core::Diagnosis> diagnoses;
  std::shared_ptr<std::deque<std::vector<core::EventInstance>>> arenas;
  std::vector<WorkerStatus> workers;
  std::uint64_t symptom_count = 0;
  std::uint64_t location_count = 0;
  std::uint64_t boundary_locations = 0;
  double partition_skew = 1.0;
  double partition_seconds = 0.0;
  double slice_seconds = 0.0;
  double merge_seconds = 0.0;   // decode + scatter
  double wall_seconds = 0.0;    // whole run

  /// The per-worker status table (goes to stderr: it contains wall times,
  /// which must stay off the byte-compared stdout).
  std::string render_status() const;
};

/// Runs the full coordinator flow: partition -> (slice) -> spawn ->
/// collect -> merge. Throws on coordinator-side setup errors (bad study,
/// unreadable store); worker failures are reported in the ShardReport
/// (ok = false) instead, so callers can render the status table.
ShardReport run_sharded(const ShardOptions& options);

}  // namespace grca::shard
