// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/persistent_store.h"

#include <algorithm>
#include <map>

#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/event_log.h"
#include "util/error.h"

namespace grca::storage {

PersistentEventStore PersistentEventStore::open(
    const std::filesystem::path& dir) {
  obs::ScopedSpan span("store-open");
  PersistentEventStore store;
  store.dir_ = dir;

  // Map every sealed segment; a seg-*.grseg without a valid footer lost
  // its seal to corruption, which open() refuses (verify/compact are the
  // repair tools).
  for (const std::filesystem::path& path : list_segments(dir)) {
    auto seg = std::make_unique<SegmentReader>(SegmentReader::open(path));
    if (!seg->sealed()) {
      throw StorageError("storage: segment " + path.string() +
                         " has no valid footer (damaged seal)");
    }
    store.stats_.mapped_bytes += seg->size();
    store.watermark_ = std::max(store.watermark_, seg->sealed_watermark());
    store.segments_.push_back(std::move(seg));
  }
  store.stats_.sealed_segments = store.segments_.size();

  // Translate every segment's location dictionary into this store's table
  // once, up front. Row materialization then resolves where_id with one
  // indexed load instead of hashing the Location per row.
  std::unordered_map<const SegmentReader*, const core::LocId*> loc_map_of;
  store.loc_maps_.reserve(store.segments_.size());
  for (const auto& seg : store.segments_) {
    const V2Footer& footer = seg->v2_footer();
    std::vector<core::LocId> map;
    map.reserve(footer.locations.size());
    for (const core::Location& loc : footer.locations) {
      map.push_back(store.locations_->intern(loc));
    }
    store.loc_maps_.push_back(std::move(map));
    loc_map_of.emplace(seg.get(), store.loc_maps_.back().data());
  }

  // Recover the WAL read-only: adopt the valid frame prefix, skip (and
  // count) the torn tail. Damage before the first frame means nothing is
  // recoverable.
  std::vector<core::EventInstance> wal_events;
  std::filesystem::path wal_path = dir / kWalName;
  if (std::filesystem::exists(wal_path)) {
    store.stats_.wal_present = true;
    try {
      SegmentReader wal = SegmentReader::open(wal_path);
      SegmentReader::Scan scan = wal.scan_frames();
      wal_events = std::move(scan.events);
      store.stats_.recovered_bytes =
          scan.valid_bytes > kSegmentHeaderBytes
              ? scan.valid_bytes - kSegmentHeaderBytes
              : 0;
      store.stats_.truncated_bytes = scan.dropped_bytes;
    } catch (const StorageError&) {
      store.stats_.truncated_bytes = std::filesystem::file_size(wal_path);
    }
    store.stats_.wal_events = wal_events.size();
  }
  if (store.segments_.empty() && !store.stats_.wal_present) {
    throw StorageError("storage: no event log at " + dir.string() +
                       " (no segments, no WAL)");
  }

  // Per-name contributions, in segment-sequence order. std::map keeps
  // names_ sorted for free.
  struct RunRef {
    const SegmentReader* seg = nullptr;
    const V2Run* run = nullptr;
  };
  struct Contribution {
    std::vector<RunRef> runs;
    std::vector<core::EventInstance> wal_tail;
  };
  std::map<std::string, Contribution> by_name;
  for (const auto& seg : store.segments_) {
    const V2Footer& footer = seg->v2_footer();
    for (const V2Run& run : footer.runs) {
      by_name[footer.names[run.name_id]].runs.push_back(
          RunRef{seg.get(), &run});
    }
  }
  for (core::EventInstance& e : wal_events) {
    by_name[e.name].wal_tail.push_back(std::move(e));
  }

  for (auto& [name, contrib] : by_name) {
    Bucket bucket;
    for (const RunRef& ref : contrib.runs) {
      bucket.max_duration = std::max(bucket.max_duration,
                                     ref.run->max_duration);
      store.total_ += ref.run->count;
    }
    store.total_ += contrib.wal_tail.size();
    if (contrib.runs.size() == 1 && contrib.wal_tail.empty()) {
      // Single sealed run: two-tier lazy columnar reader.
      auto lazy = std::make_unique<LazyRun>();
      lazy->seg = contrib.runs[0].seg;
      lazy->run = contrib.runs[0].run;
      lazy->loc_map = loc_map_of.at(lazy->seg);
      lazy->block_count = lazy->run->blocks.size();
      lazy->starts = std::make_unique<util::TimeSec[]>(lazy->slot_count());
      lazy->ends = std::make_unique<util::TimeSec[]>(lazy->slot_count());
      lazy->slots =
          std::make_unique<core::EventInstance[]>(lazy->slot_count());
      lazy->ts_ready =
          std::make_unique<std::atomic<bool>[]>(lazy->block_count);
      for (std::size_t b = 0; b < lazy->block_count; ++b) {
        lazy->ts_ready[b].store(false, std::memory_order_relaxed);
      }
      lazy->row_ready =
          std::make_unique<std::atomic<bool>[]>(lazy->slot_count());
      for (std::size_t r = 0; r < lazy->slot_count(); ++r) {
        lazy->row_ready[r].store(false, std::memory_order_relaxed);
      }
      bucket.lazy = lazy.get();
      store.lazy_runs_.push_back(std::move(lazy));
    } else {
      // Merged bucket: decode everything now, concatenated in sequence
      // order with the WAL tail last, then stable-sort by start — the
      // in-memory store's exact bucket order (ties keep append order).
      for (const RunRef& ref : contrib.runs) {
        decode_v2_rows(ref.seg->bytes(), ref.seg->v2_footer(), *ref.run, 0,
                       ref.run->count,
                       [&](std::uint64_t, core::EventInstance e,
                           core::LocId) {
                         bucket.merged.push_back(std::move(e));
                       });
      }
      for (core::EventInstance& e : contrib.wal_tail) {
        bucket.max_duration =
            std::max(bucket.max_duration, e.when.duration());
        bucket.merged.push_back(std::move(e));
      }
      std::stable_sort(bucket.merged.begin(), bucket.merged.end(),
                       [](const core::EventInstance& x,
                          const core::EventInstance& y) {
                         return x.when.start < y.when.start;
                       });
      for (core::EventInstance& e : bucket.merged) {
        e.where_id = store.locations_->intern(e.where);
      }
    }
    store.names_.push_back(name);
    store.buckets_.emplace(name, std::move(bucket));
  }
  store.stats_.event_count = store.total_;

  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    reg->counter("grca_storage_opens_total").inc();
    reg->gauge("grca_storage_segments")
        .set(static_cast<double>(store.stats_.sealed_segments));
    reg->gauge("grca_storage_mapped_bytes")
        .set(static_cast<double>(store.stats_.mapped_bytes));
    if (store.stats_.recovered_bytes > 0) {
      reg->counter("grca_storage_recovered_bytes")
          .inc(store.stats_.recovered_bytes);
    }
    if (store.stats_.truncated_bytes > 0) {
      reg->counter("grca_storage_truncated_bytes")
          .inc(store.stats_.truncated_bytes);
    }
  }
  return store;
}

void PersistentEventStore::ensure_timestamps(const LazyRun& lazy,
                                             std::size_t first_block,
                                             std::size_t last_block) const {
  bool all_ready = true;
  for (std::size_t b = first_block; b < last_block; ++b) {
    if (!lazy.ts_ready[b].load(std::memory_order_acquire)) {
      all_ready = false;
      break;
    }
  }
  if (all_ready) return;

  LazyRun& mut = const_cast<LazyRun&>(lazy);
  std::lock_guard<std::mutex> lock(mut.decode_mutex);
  for (std::size_t b = first_block; b < last_block; ++b) {
    if (lazy.ts_ready[b].load(std::memory_order_relaxed)) continue;
    decode_v2_timestamps(lazy.seg->bytes(), *lazy.run, b, b + 1,
                         mut.starts.get(), mut.ends.get());
    mut.ts_ready[b].store(true, std::memory_order_release);
  }
}

void PersistentEventStore::ensure_rows(const LazyRun& lazy,
                                       std::size_t first, std::size_t last,
                                       util::TimeSec min_end) const {
  if (first >= last) return;
  // A row is needed only when its end can overlap the caller's window
  // (ends[] comes from tier 1, so the filter is free). The default min_end
  // disables the filter without reading ends[] — all() has no timestamps
  // decoded yet.
  const bool filtered =
      min_end != std::numeric_limits<util::TimeSec>::min();
  const util::TimeSec* ends = lazy.ends.get();
  auto needed = [&](std::size_t r) {
    return !filtered || ends[r] >= min_end;
  };
  bool all_ready = true;
  for (std::size_t r = first; r < last; ++r) {
    if (needed(r) && !lazy.row_ready[r].load(std::memory_order_acquire)) {
      all_ready = false;
      break;
    }
  }
  if (all_ready) return;

  LazyRun& mut = const_cast<LazyRun&>(lazy);
  std::lock_guard<std::mutex> lock(mut.decode_mutex);
  // One pass over [first, last): the decoder materializes exactly the
  // needed, not-yet-ready rows and advances cursors past the rest.
  // Already-materialized rows are never rewritten (readers hold pointers
  // into slots), and ready flags release only after their slot is written.
  std::vector<std::uint32_t> done;
  decode_v2_rows(
      lazy.seg->bytes(), lazy.seg->v2_footer(), *lazy.run, first, last,
      [&](std::uint64_t row, core::EventInstance e, core::LocId loc) {
        e.where_id = lazy.loc_map[loc];
        mut.slots[row] = std::move(e);
        done.push_back(static_cast<std::uint32_t>(row));
      },
      [&](std::uint64_t row) {
        return needed(row) &&
               !lazy.row_ready[row].load(std::memory_order_relaxed);
      });
  for (std::uint32_t row : done) {
    mut.row_ready[row].store(true, std::memory_order_release);
  }
  query_stats_->rows_materialized.fetch_add(done.size(),
                                            std::memory_order_relaxed);
}

std::size_t PersistentEventStore::query_into(
    const std::string& name, util::TimeSec from, util::TimeSec to,
    std::vector<const core::EventInstance*>& out) const {
  out.clear();
  auto it = buckets_.find(name);
  if (it == buckets_.end()) return 0;
  const Bucket& bucket = it->second;
  // Overlap requires start <= to and end >= from; end <= start +
  // max_duration bounds the backward scan exactly as in EventStore.
  util::TimeSec lo = from - bucket.max_duration;

  if (bucket.lazy) {
    const LazyRun& lazy = *bucket.lazy;
    const std::vector<V2Block>& blocks = lazy.run->blocks;
    // Zone-map pruning: both min_start and max_start are non-decreasing
    // across blocks (enforced at footer decode), so the surviving range is
    // contiguous: first block whose max_start reaches lo, up to the first
    // block whose min_start passes to.
    std::size_t b0 = 0;
    std::size_t b1 = blocks.size();
    if (zone_pruning_) {
      b0 = static_cast<std::size_t>(
          std::lower_bound(blocks.begin(), blocks.end(), lo,
                           [](const V2Block& b, util::TimeSec v) {
                             return b.max_start < v;
                           }) -
          blocks.begin());
      b1 = static_cast<std::size_t>(
          std::upper_bound(blocks.begin(), blocks.end(), to,
                           [](util::TimeSec v, const V2Block& b) {
                             return v < b.min_start;
                           }) -
          blocks.begin());
    }
    query_stats_->zone_blocks_considered.fetch_add(
        blocks.size(), std::memory_order_relaxed);
    query_stats_->zone_blocks_skipped.fetch_add(
        blocks.size() - (b1 > b0 ? b1 - b0 : 0), std::memory_order_relaxed);
    if (b1 <= b0) return 0;
    // Tier 1: timestamp scan over the surviving blocks, allocation-free.
    ensure_timestamps(lazy, b0, b1);
    const util::TimeSec* starts = lazy.starts.get();
    const util::TimeSec* ends = lazy.ends.get();
    std::size_t first = b0 * lazy.run->block_rows;
    std::size_t last = std::min<std::size_t>(
        b1 * static_cast<std::size_t>(lazy.run->block_rows),
        lazy.slot_count());
    const util::TimeSec* r_lo =
        std::lower_bound(starts + first, starts + last, lo);
    const util::TimeSec* r_hi =
        std::upper_bound(r_lo, starts + last, to);
    std::size_t row_lo = static_cast<std::size_t>(r_lo - starts);
    std::size_t row_hi = static_cast<std::size_t>(r_hi - starts);
    if (row_hi <= row_lo) return 0;
    // Tier 2: materialize only the selected rows that can still pass the
    // end-overlap filter below.
    ensure_rows(lazy, row_lo, row_hi, from);
    out.reserve(row_hi - row_lo);
    for (std::size_t r = row_lo; r < row_hi; ++r) {
      if (ends[r] >= from) out.push_back(&lazy.slots[r]);
    }
    return out.size();
  }

  const core::EventInstance* begin = bucket.merged.data();
  const core::EventInstance* end = begin + bucket.merged.size();
  auto lo_it = std::lower_bound(
      begin, end, lo, [](const core::EventInstance& e, util::TimeSec v) {
        return e.when.start < v;
      });
  auto hi_it = std::upper_bound(
      lo_it, end, to, [](util::TimeSec v, const core::EventInstance& e) {
        return v < e.when.start;
      });
  out.reserve(static_cast<std::size_t>(hi_it - lo_it));
  for (auto i = lo_it; i != hi_it; ++i) {
    if (i->when.end >= from) out.push_back(i);
  }
  return out.size();
}

std::span<const core::EventInstance> PersistentEventStore::all(
    const std::string& name) const {
  auto it = buckets_.find(name);
  if (it == buckets_.end()) return {};
  const Bucket& bucket = it->second;
  if (!bucket.lazy) return bucket.merged;
  ensure_rows(*bucket.lazy, 0, bucket.lazy->slot_count());
  return {bucket.lazy->slots.get(), bucket.lazy->slot_count()};
}

}  // namespace grca::storage
