// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/columnar.h"

#include <algorithm>
#include <unordered_map>

#include "core/location_table.h"
#include "storage/codec.h"
#include "storage/crc32c.h"
#include "storage/segment.h"
#include "util/error.h"

namespace grca::storage {

namespace {

/// Bounds-checked cursor over one column slice. Thinner than ByteReader
/// (no length-prefixed strings, raw pointers) because the timestamp tier
/// runs once per touched block on the query path.
struct SliceReader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (p == end) {
        throw StorageError("storage: truncated varint in column slice");
      }
      std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) return v;
    }
    throw StorageError("storage: varint overflow in column slice");
  }

  std::int64_t varint_signed() {
    std::uint64_t z = varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::int64_t raw_i64() {
    if (end - p < 8) {
      throw StorageError("storage: truncated i64 in column slice");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    return static_cast<std::int64_t>(v);
  }
};

/// The byte range of block `b`'s slice within a column buffer whose
/// per-block offsets are read via `off` and whose total length is `len`.
template <typename OffsetOf>
std::pair<std::uint64_t, std::uint64_t> block_slice(const V2Run& run,
                                                    std::size_t b,
                                                    OffsetOf&& off,
                                                    std::uint64_t len) {
  std::uint64_t from = off(run.blocks[b]);
  std::uint64_t to = b + 1 < run.blocks.size() ? off(run.blocks[b + 1]) : len;
  if (from > to || to > len) {
    throw StorageError("storage: block slice offsets out of range");
  }
  return {from, to};
}

/// The mapped bytes of one column buffer. Column order in the region is
/// [starts][durations][locations][attrs].
struct RunColumns {
  std::span<const std::uint8_t> starts, durs, locs, attrs;
};

RunColumns run_columns(std::span<const std::uint8_t> segment_bytes,
                       const V2Run& run) {
  if (run.region_off > segment_bytes.size() ||
      run.region_len() > segment_bytes.size() - run.region_off) {
    throw StorageError("storage: column region out of file bounds");
  }
  std::span<const std::uint8_t> region =
      segment_bytes.subspan(run.region_off, run.region_len());
  RunColumns c;
  c.starts = region.subspan(0, run.starts_len);
  c.durs = region.subspan(run.starts_len, run.durs_len);
  c.locs = region.subspan(run.starts_len + run.durs_len, run.locs_len);
  c.attrs = region.subspan(run.starts_len + run.durs_len + run.locs_len,
                           run.attrs_len);
  return c;
}

}  // namespace

std::vector<std::uint8_t> encode_sealed_segment_v2(
    std::uint64_t seq, util::TimeSec watermark,
    const std::vector<
        std::pair<std::string, std::vector<const core::EventInstance*>>>&
        groups) {
  V2Footer footer;
  footer.watermark = watermark;

  // Dictionaries are built in stored-row order so ids are deterministic:
  // locations via an interning LocationTable (ids dense from 0 in
  // first-seen order), attr strings via a first-seen map.
  core::LocationTable locations;
  std::unordered_map<std::string, std::uint32_t> string_ids;
  auto intern_string = [&](const std::string& s) {
    auto [it, inserted] =
        string_ids.emplace(s, static_cast<std::uint32_t>(footer.strings.size()));
    if (inserted) footer.strings.push_back(s);
    return it->second;
  };

  std::vector<std::uint8_t> out = encode_segment_header(
      seq, SegmentKind::kSealed, /*format_version=*/2);

  for (const auto& [name, events] : groups) {
    if (events.empty()) continue;
    V2Run run;
    run.name_id = static_cast<std::uint32_t>(footer.names.size());
    footer.names.push_back(name);
    run.count = events.size();
    run.region_off = out.size();

    std::vector<std::uint8_t> starts, durs, locs, attrs;
    util::TimeSec prev_start = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const core::EventInstance& e = *events[i];
      core::LocId loc = locations.intern(e.where);
      if (i % kV2BlockRows == 0) {
        V2Block block;
        block.min_start = e.when.start;
        block.loc_min = block.loc_max = loc;
        block.name_bitmap = 1ull << (run.name_id % 64);
        block.starts_off = starts.size();
        block.durs_off = durs.size();
        block.attrs_off = attrs.size();
        run.blocks.push_back(block);
        // Deltas restart per block so any block decodes independently.
        put_i64(starts, e.when.start);
      } else {
        put_varint(starts,
                   static_cast<std::uint64_t>(e.when.start - prev_start));
      }
      prev_start = e.when.start;
      V2Block& block = run.blocks.back();
      block.max_start = e.when.start;
      block.loc_min = std::min(block.loc_min, loc);
      block.loc_max = std::max(block.loc_max, loc);
      run.max_duration = std::max(run.max_duration, e.when.duration());
      put_varint_signed(durs, e.when.duration());
      put_u32(locs, loc);
      put_varint(attrs, e.attrs.size());
      for (const auto& [key, value] : e.attrs) {  // std::map: sorted, stable
        put_varint(attrs, intern_string(key));
        put_varint(attrs, intern_string(value));
      }
    }
    run.starts_len = starts.size();
    run.durs_len = durs.size();
    run.locs_len = locs.size();
    run.attrs_len = attrs.size();
    out.insert(out.end(), starts.begin(), starts.end());
    out.insert(out.end(), durs.begin(), durs.end());
    out.insert(out.end(), locs.begin(), locs.end());
    out.insert(out.end(), attrs.begin(), attrs.end());
    run.region_crc =
        crc32c(out.data() + run.region_off, out.size() - run.region_off);
    footer.event_count += run.count;
    footer.runs.push_back(std::move(run));
  }
  footer.locations = locations.snapshot();

  std::vector<std::uint8_t> payload = encode_v2_footer(footer);
  std::uint32_t crc = crc32c(payload.data(), payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  put_u64(out, payload.size());
  put_u32(out, crc);
  put_u32(out, kFooterMagic);
  return out;
}

std::vector<std::uint8_t> encode_v2_footer(const V2Footer& footer) {
  std::vector<std::uint8_t> out;
  put_i64(out, footer.watermark);
  put_u64(out, footer.event_count);
  put_u32(out, static_cast<std::uint32_t>(footer.names.size()));
  for (const std::string& name : footer.names) put_string(out, name);
  put_u32(out, static_cast<std::uint32_t>(footer.locations.size()));
  for (const core::Location& loc : footer.locations) {
    out.push_back(static_cast<std::uint8_t>(loc.type));
    put_string(out, loc.a);
    put_string(out, loc.b);
    put_string(out, loc.c);
  }
  put_u32(out, static_cast<std::uint32_t>(footer.strings.size()));
  for (const std::string& s : footer.strings) put_string(out, s);
  put_u32(out, static_cast<std::uint32_t>(footer.runs.size()));
  for (const V2Run& run : footer.runs) {
    put_u32(out, run.name_id);
    put_u64(out, run.count);
    put_i64(out, run.max_duration);
    put_u64(out, run.region_off);
    put_u64(out, run.starts_len);
    put_u64(out, run.durs_len);
    put_u64(out, run.locs_len);
    put_u64(out, run.attrs_len);
    put_u32(out, run.region_crc);
    put_u32(out, run.block_rows);
    put_u32(out, static_cast<std::uint32_t>(run.blocks.size()));
    for (const V2Block& b : run.blocks) {
      put_i64(out, b.min_start);
      put_i64(out, b.max_start);
      put_u32(out, b.loc_min);
      put_u32(out, b.loc_max);
      put_u64(out, b.name_bitmap);
      put_u64(out, b.starts_off);
      put_u64(out, b.durs_off);
      put_u64(out, b.attrs_off);
    }
  }
  return out;
}

namespace {

/// The location-type range accepted when rebuilding the dictionary (same
/// guard as the WAL row codec).
constexpr std::uint8_t kMaxLocationType =
    static_cast<std::uint8_t>(core::LocationType::kRouterPath);

}  // namespace

V2Footer decode_v2_footer(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  V2Footer footer;
  footer.watermark = in.i64();
  footer.event_count = in.u64();
  std::uint32_t names = in.u32();
  footer.names.reserve(names);
  for (std::uint32_t i = 0; i < names; ++i) footer.names.push_back(in.string());
  std::uint32_t locs = in.u32();
  footer.locations.reserve(locs);
  for (std::uint32_t i = 0; i < locs; ++i) {
    std::uint8_t type = in.u8();
    if (type > kMaxLocationType) {
      throw StorageError("storage: v2 location dictionary has unknown type " +
                         std::to_string(type));
    }
    core::Location loc;
    loc.type = static_cast<core::LocationType>(type);
    loc.a = in.string();
    loc.b = in.string();
    loc.c = in.string();
    footer.locations.push_back(std::move(loc));
  }
  std::uint32_t strings = in.u32();
  footer.strings.reserve(strings);
  for (std::uint32_t i = 0; i < strings; ++i) {
    footer.strings.push_back(in.string());
  }
  std::uint32_t run_count = in.u32();
  footer.runs.reserve(run_count);
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < run_count; ++r) {
    V2Run run;
    run.name_id = in.u32();
    run.count = in.u64();
    run.max_duration = in.i64();
    run.region_off = in.u64();
    run.starts_len = in.u64();
    run.durs_len = in.u64();
    run.locs_len = in.u64();
    run.attrs_len = in.u64();
    run.region_crc = in.u32();
    run.block_rows = in.u32();
    std::string at = "storage: v2 footer run " + std::to_string(r);
    if (run.name_id >= footer.names.size() ||
        (r > 0 && run.name_id <= footer.runs[r - 1].name_id)) {
      throw StorageError(at + " has an out-of-order name id");
    }
    if (run.block_rows == 0) {
      throw StorageError(at + " has zero block size");
    }
    if (run.locs_len != 4 * run.count) {
      throw StorageError(at + " location column length mismatch");
    }
    std::uint32_t blocks = in.u32();
    std::uint64_t expect =
        (run.count + run.block_rows - 1) / run.block_rows;
    if (blocks != expect) {
      throw StorageError(at + " has " + std::to_string(blocks) +
                         " zone maps, expected " + std::to_string(expect));
    }
    run.blocks.reserve(blocks);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      V2Block block;
      block.min_start = in.i64();
      block.max_start = in.i64();
      block.loc_min = in.u32();
      block.loc_max = in.u32();
      block.name_bitmap = in.u64();
      block.starts_off = in.u64();
      block.durs_off = in.u64();
      block.attrs_off = in.u64();
      std::string where = at + " block " + std::to_string(b);
      if (block.min_start > block.max_start ||
          (b > 0 && block.min_start < run.blocks[b - 1].max_start)) {
        throw StorageError(where + " zone map is out of order");
      }
      if (block.loc_min > block.loc_max ||
          block.loc_max >= footer.locations.size()) {
        throw StorageError(where + " zone map location range is invalid");
      }
      if (!(block.name_bitmap & (1ull << (run.name_id % 64)))) {
        throw StorageError(where + " name bitmap misses its own run");
      }
      // Every block holds >= 1 row and every row >= 1 byte per
      // variable-width column, so offsets are 0 at block 0 and strictly
      // increasing (and strictly inside the buffer) after it.
      bool offsets_ok =
          b == 0 ? block.starts_off == 0 && block.durs_off == 0 &&
                       block.attrs_off == 0
                 : block.starts_off > run.blocks[b - 1].starts_off &&
                       block.durs_off > run.blocks[b - 1].durs_off &&
                       block.attrs_off > run.blocks[b - 1].attrs_off &&
                       block.starts_off < run.starts_len &&
                       block.durs_off < run.durs_len &&
                       block.attrs_off < run.attrs_len;
      if (!offsets_ok) {
        throw StorageError(where + " column offsets do not advance");
      }
      run.blocks.push_back(block);
    }
    total += run.count;
    footer.runs.push_back(std::move(run));
  }
  if (total != footer.event_count) {
    throw StorageError("storage: v2 footer event count " +
                       std::to_string(footer.event_count) +
                       " does not match its runs (" + std::to_string(total) +
                       ")");
  }
  if (in.remaining() != 0) {
    throw StorageError("storage: trailing bytes after v2 footer");
  }
  return footer;
}

void decode_v2_timestamps(std::span<const std::uint8_t> segment_bytes,
                          const V2Run& run, std::size_t first_block,
                          std::size_t last_block, util::TimeSec* starts,
                          util::TimeSec* ends) {
  RunColumns cols = run_columns(segment_bytes, run);
  for (std::size_t b = first_block; b < last_block; ++b) {
    auto [s_from, s_to] =
        block_slice(run, b, [](const V2Block& x) { return x.starts_off; },
                    run.starts_len);
    auto [d_from, d_to] =
        block_slice(run, b, [](const V2Block& x) { return x.durs_off; },
                    run.durs_len);
    SliceReader s{cols.starts.data() + s_from, cols.starts.data() + s_to};
    SliceReader d{cols.durs.data() + d_from, cols.durs.data() + d_to};
    std::size_t row = b * run.block_rows;
    std::size_t rows = std::min<std::uint64_t>(run.block_rows,
                                               run.count - row);
    util::TimeSec start = 0;
    for (std::size_t i = 0; i < rows; ++i, ++row) {
      start = i == 0 ? s.raw_i64()
                     : start + static_cast<util::TimeSec>(s.varint());
      starts[row] = start;
      ends[row] = start + d.varint_signed();
    }
  }
}

void decode_v2_rows(std::span<const std::uint8_t> segment_bytes,
                    const V2Footer& footer, const V2Run& run,
                    std::uint64_t first, std::uint64_t last,
                    const std::function<void(std::uint64_t,
                                             core::EventInstance,
                                             core::LocId)>& sink,
                    const std::function<bool(std::uint64_t)>& want) {
  if (first >= last) return;
  if (last > run.count) {
    throw StorageError("storage: v2 row range past the run");
  }
  RunColumns cols = run_columns(segment_bytes, run);
  const std::string& name = footer.names.at(run.name_id);
  std::size_t first_block = first / run.block_rows;
  std::size_t last_block = (last + run.block_rows - 1) / run.block_rows;
  for (std::size_t b = first_block; b < last_block; ++b) {
    auto [s_from, s_to] =
        block_slice(run, b, [](const V2Block& x) { return x.starts_off; },
                    run.starts_len);
    auto [d_from, d_to] =
        block_slice(run, b, [](const V2Block& x) { return x.durs_off; },
                    run.durs_len);
    auto [a_from, a_to] =
        block_slice(run, b, [](const V2Block& x) { return x.attrs_off; },
                    run.attrs_len);
    SliceReader s{cols.starts.data() + s_from, cols.starts.data() + s_to};
    SliceReader d{cols.durs.data() + d_from, cols.durs.data() + d_to};
    SliceReader a{cols.attrs.data() + a_from, cols.attrs.data() + a_to};
    std::uint64_t row = static_cast<std::uint64_t>(b) * run.block_rows;
    std::uint64_t rows = std::min<std::uint64_t>(run.block_rows,
                                                 run.count - row);
    util::TimeSec start = 0;
    for (std::uint64_t i = 0; i < rows; ++i, ++row) {
      start = i == 0 ? s.raw_i64()
                     : start + static_cast<util::TimeSec>(s.varint());
      util::TimeSec duration = d.varint_signed();
      std::uint64_t attr_count = a.varint();
      if (row < first || row >= last || (want && !want(row))) {
        // A skipped row still advances the variable-width cursors.
        for (std::uint64_t k = 0; k < 2 * attr_count; ++k) a.varint();
        continue;
      }
      core::EventInstance e;
      e.name = name;
      e.when.start = start;
      e.when.end = start + duration;
      const std::uint8_t* loc_at = cols.locs.data() + 4 * row;
      core::LocId loc = static_cast<core::LocId>(loc_at[0]) |
                        static_cast<core::LocId>(loc_at[1]) << 8 |
                        static_cast<core::LocId>(loc_at[2]) << 16 |
                        static_cast<core::LocId>(loc_at[3]) << 24;
      if (loc >= footer.locations.size()) {
        throw StorageError("storage: v2 row references location id " +
                           std::to_string(loc) + " outside the dictionary");
      }
      e.where = footer.locations[loc];
      // A corrupt count is bounded by the slice anyway (each pair consumes
      // bytes), but reject absurd values before looping.
      if (attr_count > kMaxFramePayload) {
        throw StorageError("storage: v2 row attr count out of bounds");
      }
      for (std::uint64_t k = 0; k < attr_count; ++k) {
        std::uint64_t key_id = a.varint();
        std::uint64_t value_id = a.varint();
        if (key_id >= footer.strings.size() ||
            value_id >= footer.strings.size()) {
          throw StorageError(
              "storage: v2 attr reference outside the string dictionary");
        }
        e.attrs.emplace(footer.strings[key_id], footer.strings[value_id]);
      }
      sink(row, std::move(e), loc);
    }
  }
}

}  // namespace grca::storage
