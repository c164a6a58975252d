// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "shard/slice.h"

#include <algorithm>
#include <cstdio>

#include "storage/event_log.h"

namespace grca::shard {

namespace fs = std::filesystem;

fs::path slice_path(const fs::path& dir, std::uint32_t shard) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%04u", shard);
  return dir / name;
}

std::vector<SliceStats> write_slices(const core::EventStoreView& store,
                                     const Partition& partition,
                                     const fs::path& dir) {
  std::vector<std::string> names = store.event_names();
  std::sort(names.begin(), names.end());
  util::TimeSec watermark = 0;
  for (const std::string& name : names) {
    for (const core::EventInstance& e : store.all(name)) {
      watermark = std::max(watermark, e.when.start + 1);
    }
  }
  std::span<const core::EventInstance> symptoms =
      store.all(partition.root_event);
  std::vector<SliceStats> stats(partition.workers);
  for (std::uint32_t w = 0; w < partition.workers; ++w) {
    // A shard with no symptoms never gets a worker; skip its slice.
    if (partition.shard_seqs[w].empty()) continue;
    const std::vector<std::uint8_t>& mask = partition.inclusion[w];
    core::EventStore slice;
    for (const std::string& name : names) {
      if (name == partition.root_event) {
        // Symptoms partition by assignment, not by location inclusion.
        for (std::uint32_t seq : partition.shard_seqs[w]) {
          slice.add(symptoms[seq]);
          ++stats[w].symptoms;
          ++stats[w].events;
        }
        continue;
      }
      for (const core::EventInstance& e : store.all(name)) {
        auto it = partition.location_ids.find(e.where);
        if (it == partition.location_ids.end() || mask[it->second] == 0) {
          continue;
        }
        slice.add(e);
        ++stats[w].events;
      }
    }
    slice.finalize();
    fs::path out = slice_path(dir, w);
    fs::remove_all(out);
    storage::write_sealed_store(out, slice, watermark);
  }
  return stats;
}

}  // namespace grca::shard
