// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The slice writer: materializes one re-sealed per-worker store under
// <dir>/shard-NNNN for each shard of a Partition. A slice holds the
// shard's own root-symptom instances plus every event at a location its
// inclusion mask names (its partition + the replicated boundary set),
// copied in store order — the in-memory store's stable sort then keeps
// relative order, so a worker's `all(name)` spans are exact subsequences
// of the full store's and the global-seq merge keying stays aligned.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/event_store.h"
#include "shard/partition.h"

namespace grca::shard {

struct SliceStats {
  std::uint64_t events = 0;    // instances written (symptoms included)
  std::uint64_t symptoms = 0;  // root-symptom instances written
};

/// The slice directory for one shard under `dir`.
std::filesystem::path slice_path(const std::filesystem::path& dir,
                                 std::uint32_t shard);

/// Writes every shard's slice store under `dir` (created as needed; an
/// existing slice for a shard is replaced). The watermark is the full
/// store's batch watermark — one past the last event start — identical for
/// every slice, so slice metadata never depends on the partition.
std::vector<SliceStats> write_slices(const core::EventStoreView& store,
                                     const Partition& partition,
                                     const std::filesystem::path& dir);

}  // namespace grca::shard
