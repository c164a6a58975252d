// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/segment.h"

#include <algorithm>

#include "storage/codec.h"
#include "storage/crc32c.h"
#include "util/error.h"

namespace grca::storage {

std::vector<std::uint8_t> encode_segment_header(std::uint64_t seq,
                                                SegmentKind kind,
                                                std::uint16_t format_version) {
  if (format_version != (kind == SegmentKind::kSealed ? kFormatV2
                                                      : kFormatV1)) {
    throw StorageError(
        kind == SegmentKind::kSealed
            ? "storage: sealed segments are v2-only"
            : "storage: v2 segments are sealed-only");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kSegmentHeaderBytes);
  put_u32(out, kSegmentMagic);
  put_u32(out, static_cast<std::uint32_t>(format_version) |
                   static_cast<std::uint32_t>(kind) << 16);
  put_u64(out, seq);
  put_u32(out, 0);  // reserved
  put_u32(out, crc32c(out.data(), out.size()));
  return out;
}

SegmentReader SegmentReader::open(const std::filesystem::path& path) {
  SegmentReader seg;
  seg.path_ = path;
  seg.file_ = MappedFile::open(path);
  std::span<const std::uint8_t> bytes = seg.file_.bytes();
  if (bytes.size() < kSegmentHeaderBytes) {
    throw StorageError("storage: " + path.string() +
                       " is too short for a segment header");
  }
  if (crc32c(bytes.data(), kSegmentHeaderBytes - 4) !=
      ByteReader(bytes.subspan(kSegmentHeaderBytes - 4, 4)).u32()) {
    throw StorageError("storage: " + path.string() +
                       " segment header checksum mismatch");
  }
  ByteReader in(bytes.first(kSegmentHeaderBytes));
  if (in.u32() != kSegmentMagic) {
    throw StorageError("storage: " + path.string() +
                       " is not a grca segment (bad magic)");
  }
  std::uint32_t ver_kind = in.u32();
  std::uint16_t version = static_cast<std::uint16_t>(ver_kind);
  if (version != kFormatV1 && version != kFormatV2) {
    throw StorageError("storage: " + path.string() + " is format v" +
                       std::to_string(version) +
                       "; this build reads v1 and v2");
  }
  seg.version_ = version;
  seg.kind_ = static_cast<SegmentKind>(ver_kind >> 16);
  if (version == kFormatV1 && seg.kind_ == SegmentKind::kSealed) {
    throw StorageError("storage: " + path.string() +
                       " is a sealed v1 segment; sealed v1 is no longer "
                       "readable (only the WAL uses v1 frames)");
  }
  if (version == kFormatV2 && seg.kind_ != SegmentKind::kSealed) {
    throw StorageError("storage: " + path.string() +
                       " claims a v2 live segment; v2 is sealed-only");
  }
  seg.seq_ = in.u64();
  if (version == kFormatV1) return seg;  // live WAL: frames to EOF

  // Sealed: a valid trailer at EOF whose footer checksums clean. The
  // column regions are not self-describing the way v1 frames are, so a v2
  // file without one is unreadable.
  if (bytes.size() >= kSegmentHeaderBytes + kFooterTrailerBytes) {
    ByteReader tr(bytes.last(kFooterTrailerBytes));
    std::uint64_t footer_len = tr.u64();
    std::uint32_t footer_crc = tr.u32();
    std::uint32_t magic = tr.u32();
    if (magic == kFooterMagic &&
        footer_len <= bytes.size() - kSegmentHeaderBytes -
                          kFooterTrailerBytes) {
      std::size_t footer_at =
          bytes.size() - kFooterTrailerBytes - footer_len;
      std::span<const std::uint8_t> payload =
          bytes.subspan(footer_at, footer_len);
      if (crc32c(payload.data(), payload.size()) == footer_crc) {
        seg.v2_footer_ = decode_v2_footer(payload);
        // The run regions must tile the file exactly between the header
        // and the footer — together with the per-region CRCs this leaves
        // no unchecksummed byte in the file.
        std::uint64_t at = kSegmentHeaderBytes;
        for (const V2Run& run : seg.v2_footer_.runs) {
          if (run.region_off != at) {
            throw StorageError("storage: " + path.string() +
                               " v2 run regions do not tile the segment");
          }
          at += run.region_len();
        }
        if (at != footer_at) {
          throw StorageError("storage: " + path.string() +
                             " v2 run regions do not tile the segment");
        }
        seg.sealed_ = true;
      }
    }
  }
  if (!seg.sealed_) {
    throw StorageError("storage: " + path.string() +
                       " v2 segment footer is damaged or missing");
  }
  return seg;
}

const V2Footer& SegmentReader::v2_footer() const {
  if (!sealed_) {
    throw StorageError("storage: " + path_.string() + " has no v2 footer");
  }
  return v2_footer_;
}

std::vector<core::EventInstance> SegmentReader::read_all_events() const {
  const V2Footer& footer = v2_footer();
  std::vector<core::EventInstance> events;
  events.reserve(footer.event_count);
  for (const V2Run& run : footer.runs) {
    decode_v2_rows(file_.bytes(), footer, run, 0, run.count,
                   [&events](std::uint64_t, core::EventInstance e,
                             core::LocId) {
                     events.push_back(std::move(e));
                   });
  }
  return events;
}

SegmentReader::Scan SegmentReader::scan_frames() const {
  if (sealed_) {
    throw StorageError("storage: " + path_.string() +
                       " is columnar; it has no frames to scan");
  }
  Scan scan;
  std::span<const std::uint8_t> bytes = file_.bytes();
  std::uint64_t at = kSegmentHeaderBytes;
  while (at < bytes.size()) {
    std::optional<FrameView> frame = probe_frame(bytes.subspan(at));
    if (!frame) break;
    core::EventInstance e;
    try {
      e = decode_event(frame->payload);
    } catch (const StorageError&) {
      // Checksum-valid but semantically malformed (e.g. hand-edited file):
      // treat like a torn tail rather than crashing recovery.
      break;
    }
    scan.events.push_back(std::move(e));
    at += frame->frame_bytes;
  }
  scan.valid_bytes = at;
  scan.dropped_bytes = bytes.size() - at;
  return scan;
}

}  // namespace grca::storage
