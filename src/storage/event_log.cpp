// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/event_log.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/span.h"
#include "storage/codec.h"
#include "storage/crc32c.h"
#include "util/error.h"

namespace grca::storage {

namespace fs = std::filesystem;

namespace {

fs::path segment_path(const fs::path& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof name, "seg-%06llu%s",
                static_cast<unsigned long long>(seq), kSegmentExtension);
  return dir / name;
}

/// Parses "seg-<seq>.grseg"; nullopt for anything else (tmp files, wal).
std::optional<std::uint64_t> parse_seq(const fs::path& path) {
  std::string name = path.filename().string();
  const std::string prefix = "seg-";
  const std::string ext = kSegmentExtension;
  if (name.size() <= prefix.size() + ext.size()) return std::nullopt;
  if (name.rfind(prefix, 0) != 0) return std::nullopt;
  if (name.compare(name.size() - ext.size(), ext.size(), ext) != 0) {
    return std::nullopt;
  }
  std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - ext.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

/// Writes `bytes` as `path` via a temp file + rename, so readers never see
/// a half-written segment.
void write_atomically(const fs::path& path,
                      std::span<const std::uint8_t> bytes) {
  fs::path tmp = path;
  tmp += ".tmp";
  write_file(tmp, bytes);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw StorageError("storage: rename " + tmp.string() + " -> " +
                       path.string() + ": " + ec.message());
  }
}

/// Groups pointers to `events` by name (names sorted) with each group in
/// (start, input-order) order — the exact bucket order the in-memory
/// store's stable sort produces, which is what keeps diagnosis verdicts
/// byte-identical across backends.
std::vector<std::pair<std::string, std::vector<const core::EventInstance*>>>
group_for_seal(const std::vector<core::EventInstance>& events) {
  std::vector<const core::EventInstance*> ptrs;
  ptrs.reserve(events.size());
  for (const core::EventInstance& e : events) ptrs.push_back(&e);
  std::stable_sort(ptrs.begin(), ptrs.end(),
                   [](const core::EventInstance* x,
                      const core::EventInstance* y) {
                     if (x->name != y->name) return x->name < y->name;
                     return x->when.start < y->when.start;
                   });
  std::vector<std::pair<std::string, std::vector<const core::EventInstance*>>>
      groups;
  for (const core::EventInstance* e : ptrs) {
    if (groups.empty() || groups.back().first != e->name) {
      groups.emplace_back(e->name,
                          std::vector<const core::EventInstance*>{});
    }
    groups.back().second.push_back(e);
  }
  return groups;
}

}  // namespace

std::vector<fs::path> list_segments(const fs::path& dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (std::optional<std::uint64_t> seq = parse_seq(entry.path())) {
      found.emplace_back(*seq, entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<fs::path> out;
  out.reserve(found.size());
  for (auto& [seq, path] : found) out.push_back(std::move(path));
  return out;
}

EventLogWriter::EventLogWriter(const fs::path& dir, bool discard_wal)
    : dir_(dir) {
  fs::create_directories(dir_);
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    bytes_written_ = &reg->counter("grca_storage_bytes_written_total");
    recovered_bytes_ = &reg->counter("grca_storage_recovered_bytes");
    seals_ = &reg->counter("grca_storage_seals_total");
  }
  for (const fs::path& seg : list_segments(dir_)) {
    next_seq_ = std::max(next_seq_, *parse_seq(seg) + 1);
  }
  // Recover (or discard) an existing WAL, then rewrite it normalized: the
  // header plus exactly the re-adopted frames. Rewriting instead of
  // truncating keeps the recovery logic in one place.
  fs::path wal_path = dir_ / kWalName;
  std::uint64_t dropped = 0;
  if (fs::exists(wal_path)) {
    std::uint64_t file_size = fs::file_size(wal_path);
    try {
      SegmentReader wal = SegmentReader::open(wal_path);
      SegmentReader::Scan scan = wal.scan_frames();
      dropped = scan.dropped_bytes;
      if (discard_wal) {
        dropped = file_size - kSegmentHeaderBytes;
      } else {
        pending_ = std::move(scan.events);
        if (recovered_bytes_ && scan.valid_bytes > kSegmentHeaderBytes) {
          recovered_bytes_->inc(scan.valid_bytes - kSegmentHeaderBytes);
        }
      }
    } catch (const StorageError&) {
      // Even the header is damaged (crash while creating the file): the
      // whole thing is a torn tail.
      dropped = file_size;
    }
  }
  if (obs::MetricsRegistry* reg = obs::registry_ptr(); reg && dropped > 0) {
    reg->counter("grca_storage_truncated_bytes").inc(dropped);
  }
  // Rewrite the WAL from scratch: header + re-adopted frames.
  std::vector<std::uint8_t> image =
      encode_segment_header(next_seq_, SegmentKind::kLive);
  for (const core::EventInstance& e : pending_) encode_frame(e, image);
  write_file(wal_path, image);
  open_wal_for_append(image.size());
}

void EventLogWriter::open_wal_for_append(std::uint64_t at) {
  wal_.close();
  wal_.clear();
  wal_.open(dir_ / kWalName, std::ios::binary | std::ios::in | std::ios::out);
  if (!wal_) {
    throw StorageError("storage: cannot open WAL for append in " +
                       dir_.string());
  }
  wal_.seekp(static_cast<std::streamoff>(at));
}

void EventLogWriter::append(const core::EventInstance& e) {
  scratch_.clear();
  encode_frame(e, scratch_);
  wal_.write(reinterpret_cast<const char*>(scratch_.data()),
             static_cast<std::streamsize>(scratch_.size()));
  wal_.flush();
  if (!wal_) {
    throw StorageError("storage: WAL append failed in " + dir_.string());
  }
  bytes_appended_ += scratch_.size();
  if (bytes_written_) bytes_written_->inc(scratch_.size());
  pending_.push_back(e);
}

std::optional<std::uint64_t> EventLogWriter::seal(util::TimeSec watermark) {
  obs::ScopedSpan span("store-seal");
  auto groups = group_for_seal(pending_);
  std::vector<std::uint8_t> image =
      encode_sealed_segment_v2(next_seq_, watermark, groups);
  write_atomically(segment_path(dir_, next_seq_), image);
  if (bytes_written_) bytes_written_->inc(image.size());
  if (seals_) seals_->inc();
  std::uint64_t seq = next_seq_++;
  pending_.clear();
  // Reset the WAL for the next batch (new header carries the new seq).
  std::vector<std::uint8_t> header =
      encode_segment_header(next_seq_, SegmentKind::kLive);
  write_file(dir_ / kWalName, header);
  open_wal_for_append(header.size());
  return seq;
}

void write_sealed_store(const fs::path& dir, const core::EventStore& store,
                        util::TimeSec watermark, SealFormat) {
  obs::ScopedSpan span("store-seal");
  fs::create_directories(dir);
  // Replace semantics: a store-out directory holds exactly this corpus.
  for (const fs::path& old : list_segments(dir)) fs::remove(old);
  fs::remove(dir / kWalName);
  store.warm();  // buckets sorted before we stream them out
  std::vector<std::pair<std::string, std::vector<const core::EventInstance*>>>
      groups;
  for (const std::string& name : store.event_names()) {
    std::span<const core::EventInstance> bucket = store.all(name);
    std::vector<const core::EventInstance*> ptrs;
    ptrs.reserve(bucket.size());
    for (const core::EventInstance& e : bucket) ptrs.push_back(&e);
    groups.emplace_back(name, std::move(ptrs));
  }
  std::vector<std::uint8_t> image =
      encode_sealed_segment_v2(1, watermark, groups);
  write_atomically(segment_path(dir, 1), image);
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    reg->counter("grca_storage_bytes_written_total").inc(image.size());
    reg->counter("grca_storage_seals_total").inc();
  }
}

SealedLoad load_sealed_events(const fs::path& dir) {
  SealedLoad load;
  for (const fs::path& path : list_segments(dir)) {
    SegmentReader seg = SegmentReader::open(path);
    if (!seg.sealed()) continue;
    std::vector<core::EventInstance> events = seg.read_all_events();
    load.events.insert(load.events.end(),
                       std::make_move_iterator(events.begin()),
                       std::make_move_iterator(events.end()));
    util::TimeSec watermark = seg.sealed_watermark();
    if (!load.watermark || watermark > *load.watermark) {
      load.watermark = watermark;
    }
    ++load.segments;
  }
  return load;
}

namespace {

/// Sealed-segment check. Normal mode: per-run region CRCs plus a full
/// structural decode (every varint bounds-checked, every dictionary id
/// resolved). Deep mode additionally recomputes the footer statistics —
/// max durations and every zone map — from the decoded rows.
void check_sealed(const SegmentReader& seg, VerifyReport& report,
                  bool deep) {
  const fs::path& path = seg.path();
  const V2Footer& footer = seg.v2_footer();
  std::span<const std::uint8_t> bytes = seg.bytes();
  for (const V2Run& run : footer.runs) {
    std::string where =
        path.string() + " run '" + footer.names[run.name_id] + "'";
    if (crc32c(bytes.data() + run.region_off, run.region_len()) !=
        run.region_crc) {
      report.errors.push_back(where + ": column region checksum mismatch");
      continue;
    }
    std::vector<core::EventInstance> rows;
    std::vector<core::LocId> row_locs;  // dictionary ids, row order
    if (deep) {
      rows.reserve(run.count);
      row_locs.reserve(run.count);
    }
    try {
      decode_v2_rows(bytes, footer, run, 0, run.count,
                     [&](std::uint64_t, core::EventInstance e,
                         core::LocId loc) {
                       if (deep) {
                         rows.push_back(std::move(e));
                         row_locs.push_back(loc);
                       }
                     });
    } catch (const StorageError& e) {
      report.errors.push_back(where + ": " + e.what());
      continue;
    }
    report.frames += run.count;
    if (!deep) continue;
    util::TimeSec max_duration = 0;
    for (std::size_t b = 0; b < run.blocks.size(); ++b) {
      const V2Block& zone = run.blocks[b];
      std::size_t lo = b * run.block_rows;
      std::size_t hi = std::min<std::size_t>(lo + run.block_rows,
                                             rows.size());
      util::TimeSec min_start = rows[lo].when.start;
      util::TimeSec max_start = rows[lo].when.start;
      core::LocId loc_min = std::numeric_limits<core::LocId>::max();
      core::LocId loc_max = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        min_start = std::min(min_start, rows[i].when.start);
        max_start = std::max(max_start, rows[i].when.start);
        max_duration = std::max(max_duration, rows[i].when.duration());
        loc_min = std::min(loc_min, row_locs[i]);
        loc_max = std::max(loc_max, row_locs[i]);
      }
      if (zone.min_start != min_start || zone.max_start != max_start) {
        report.errors.push_back(where + ": zone map " + std::to_string(b) +
                                " start range mismatch");
      }
      if (zone.loc_min != loc_min || zone.loc_max != loc_max) {
        report.errors.push_back(where + ": zone map " + std::to_string(b) +
                                " location range mismatch");
      }
      if (zone.name_bitmap != (1ull << (run.name_id % 64))) {
        report.errors.push_back(where + ": zone map " + std::to_string(b) +
                                " name bitmap mismatch");
      }
    }
    if (max_duration != run.max_duration) {
      report.errors.push_back(where + ": footer max_duration " +
                              std::to_string(run.max_duration) +
                              " != observed " +
                              std::to_string(max_duration));
    }
  }
}

}  // namespace

VerifyReport verify_store(const fs::path& dir, bool deep) {
  VerifyReport report;
  report.deep = deep;
  if (!fs::is_directory(dir)) {
    report.errors.push_back(dir.string() + " is not a directory");
    return report;
  }
  std::vector<fs::path> paths = list_segments(dir);
  fs::path wal_path = dir / kWalName;
  if (fs::exists(wal_path)) paths.push_back(wal_path);
  for (const fs::path& path : paths) {
    ++report.segments;
    SegmentReader seg;
    try {
      seg = SegmentReader::open(path);
    } catch (const StorageError& e) {
      report.errors.push_back(e.what());
      continue;
    }
    report.bytes += seg.size();
    if (!seg.sealed()) {
      // Only the WAL may be live; a seg-* file with a live header was
      // never sealed.
      SegmentReader::Scan scan = seg.scan_frames();
      report.frames += scan.events.size();
      if (path == wal_path) {
        report.torn_wal_bytes += scan.dropped_bytes;
      } else {
        report.errors.push_back(path.string() +
                                ": sealed segment lost its seal");
      }
      continue;
    }
    check_sealed(seg, report, deep);
  }
  return report;
}

std::optional<std::uint64_t> compact_store(const fs::path& dir) {
  // Collect every event: sealed segments in sequence order, then the WAL's
  // valid prefix. The stable per-(name,start) sort in group_for_seal keeps
  // ties in this collection order, so merged buckets read back in exactly
  // the order the separate segments produced.
  std::vector<fs::path> inputs = list_segments(dir);
  std::vector<core::EventInstance> events;
  util::TimeSec watermark = 0;
  for (const fs::path& path : inputs) {
    SegmentReader seg = SegmentReader::open(path);
    if (!seg.sealed()) {
      throw StorageError("storage: refusing to compact unsealed segment " +
                         path.string());
    }
    std::vector<core::EventInstance> from_seg;
    try {
      from_seg = seg.read_all_events();
    } catch (const StorageError& e) {
      throw StorageError("storage: refusing to compact corrupt segment " +
                         path.string() + ": " + e.what());
    }
    watermark = std::max(watermark, seg.sealed_watermark());
    events.insert(events.end(),
                  std::make_move_iterator(from_seg.begin()),
                  std::make_move_iterator(from_seg.end()));
  }
  std::uint64_t next_seq = 1;
  fs::path wal_path = dir / kWalName;
  if (fs::exists(wal_path)) {
    SegmentReader wal = SegmentReader::open(wal_path);
    SegmentReader::Scan scan = wal.scan_frames();
    events.insert(events.end(),
                  std::make_move_iterator(scan.events.begin()),
                  std::make_move_iterator(scan.events.end()));
  }
  for (const fs::path& path : inputs) {
    next_seq = std::max(next_seq, *parse_seq(path) + 1);
  }
  if (events.empty()) return std::nullopt;
  obs::ScopedSpan span("store-compact");
  auto groups = group_for_seal(events);
  std::vector<std::uint8_t> image =
      encode_sealed_segment_v2(next_seq, watermark, groups);
  fs::path out_path = segment_path(dir, next_seq);
  write_atomically(out_path, image);
  // Post-compact invariant check *before* any input is removed: re-open
  // the output and deep-verify it — footer statistics must equal a full
  // rescan and the row count must match what went in. On failure the
  // output is deleted and the inputs survive untouched.
  {
    VerifyReport check;
    check.deep = true;
    SegmentReader out;
    try {
      out = SegmentReader::open(out_path);
      check_sealed(out, check, /*deep=*/true);
      if (out.sealed_event_count() != events.size()) {
        check.errors.push_back(out_path.string() + ": compacted " +
                               std::to_string(events.size()) +
                               " events but footer claims " +
                               std::to_string(out.sealed_event_count()));
      }
    } catch (const StorageError& e) {
      check.errors.push_back(e.what());
    }
    if (!check.ok()) {
      fs::remove(out_path);
      throw StorageError("storage: compaction output failed validation: " +
                         check.errors.front());
    }
  }
  for (const fs::path& path : inputs) fs::remove(path);
  fs::remove(wal_path);
  return next_seq;
}

}  // namespace grca::storage
