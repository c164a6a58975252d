// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The location partitioner behind `grca shard`: groups every root-symptom
// instance by its interned root location (a PoP — the PoP/PE-subtree
// anchor), orders the groups by size with the key's stable FNV-1a hash as
// tie-break, assigns each to the least-loaded of N workers (deterministic
// LPT), and computes, per worker, the set of event locations that worker
// must see so its diagnoses are byte-identical to a single-process run.
//
// Correctness model (docs/SHARDING.md has the full argument):
//
//  - reach(L) is the set of PoPs any spatial join anchored at location L
//    can involve, derived from the LocationMapper's *static* projections
//    (router, pop, logical-link, physical-link, layer1-device levels plus
//    L's own footprint). Path-dependent locations (router pairs, pop
//    pairs, ingress-destination, CDN clients, VPN neighbors) resolve
//    through routing state, so their reach is conservatively "everywhere"
//    — they form the replicated boundary set, present in every slice.
//    Unresolvable locations also degrade to "everywhere".
//  - PoPs coupled by any multi-PoP location (a backbone link, a shared
//    optical device's circuits — the SRLG case) are merged with a
//    union-find: an evidence chain can only hop between PoPs through such
//    a location, so every chain stays inside one component.
//  - A worker's slice = its symptoms + every boundary location's events +
//    every event anchored in a PoP component one of its symptoms reaches.
//
// The partition is a pure function of (store contents, topology, worker
// count): every coordinator run computes the same assignment, which is
// what makes --retry-failed a deterministic re-merge.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event_store.h"
#include "core/location.h"

namespace grca::shard {

/// The 64-bit FNV-1a the shard assignment hashes root-location keys with.
/// Stable across platforms and processes by construction (no std::hash).
std::uint64_t fnv1a64(std::string_view text) noexcept;

struct Partition {
  std::uint32_t workers = 0;
  std::string root_event;

  /// Every distinct event location, in deterministic order (event names
  /// sorted, instances in store order); index == the id `inclusion` and
  /// `location_ids` use.
  std::vector<core::Location> locations;
  /// Location -> id (the inverse of `locations`).
  std::unordered_map<core::Location, std::uint32_t> location_ids;

  /// Per global symptom seq: the owning worker.
  std::vector<std::uint32_t> symptom_shard;
  /// Per worker: its global symptom seqs, ascending.
  std::vector<std::vector<std::uint32_t>> shard_seqs;
  /// inclusion[w][id] != 0 when worker w's slice must contain events at
  /// location id.
  std::vector<std::vector<std::uint8_t>> inclusion;

  /// Locations replicated to every worker (reach = everywhere).
  std::uint64_t boundary_locations = 0;
  /// Locations anchored to one PoP component (partitionable).
  std::uint64_t anchored_locations = 0;

  /// max/mean assigned symptoms over non-empty workers (1.0 = perfectly
  /// balanced) — the skew metric src/obs exports.
  double skew() const noexcept;
  /// True when worker w's slice must contain events at `loc` (tests).
  bool included(std::uint32_t worker, const core::Location& loc) const;
};

/// Computes the partition for `workers` shards of `root_event`'s instances
/// in `store`. The mapper supplies the static topology projections; the
/// store must be warmed (read-only). Throws ConfigError when `workers` is
/// zero; a store with no `root_event` instances yields an all-empty
/// partition.
Partition partition_symptoms(const core::EventStoreView& store,
                             const std::string& root_event,
                             const core::LocationMapper& mapper,
                             std::uint32_t workers);

}  // namespace grca::shard
