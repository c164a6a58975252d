// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Segment files — the unit of persistence in the event store
// (docs/STORAGE.md has the full byte diagram).
//
// Every segment starts with a fixed checksummed header (magic, format
// version, kind, sequence number). Two kinds exist:
//
//  - LIVE (write-ahead) segments, always format v1: header + CRC-framed
//    rows in append order, no footer. A crash can tear the tail; recovery
//    scans frames and keeps the valid prefix.
//  - SEALED segments, always format v2 (columnar, see storage/columnar.h):
//    the column regions of every name run, then a footer (dictionaries and
//    zone maps) that ends with a fixed trailer (length, CRC32C, magic), so
//    the seal is detected and validated from the end of the file.
//
// The header's version and kind must agree: a v1 sealed header is the
// retired row-oriented sealed format and is refused, and a v2 header
// without a validating footer is damage, never a live segment.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/event.h"
#include "storage/columnar.h"
#include "storage/io.h"

namespace grca::storage {

inline constexpr std::uint32_t kSegmentMagic = 0x53435247;   // "GRCS"
inline constexpr std::uint32_t kFooterMagic = 0x46435247;    // "GRCF"
inline constexpr std::uint16_t kFormatV1 = 1;
inline constexpr std::uint16_t kFormatV2 = 2;
inline constexpr std::size_t kSegmentHeaderBytes = 24;
inline constexpr std::size_t kFooterTrailerBytes = 16;

enum class SegmentKind : std::uint16_t { kLive = 0, kSealed = 1 };

/// The on-disk format of sealed segments. v2 is the only one; the enum
/// remains solely so the perfbench harness's write_sealed_store call, which
/// names SealFormat::kV2, keeps compiling unchanged until that harness is
/// next revised.
enum class SealFormat : std::uint16_t { kV2 = kFormatV2 };

/// Serialized fixed header for a new segment file: kFormatV1 with kLive for
/// the WAL, kFormatV2 with kSealed for sealed segments. Any other pairing
/// throws StorageError.
std::vector<std::uint8_t> encode_segment_header(
    std::uint64_t seq, SegmentKind kind,
    std::uint16_t format_version = kFormatV1);

/// A mapped, validated segment file. Opening throws StorageError when the
/// header is damaged (wrong magic, unsupported version, header CRC
/// mismatch), names a retired sealed v1 segment, or is a v2 segment whose
/// footer does not validate. Read-only: never mutates the file.
class SegmentReader {
 public:
  static SegmentReader open(const std::filesystem::path& path);

  bool sealed() const noexcept { return sealed_; }
  std::uint64_t seq() const noexcept { return seq_; }
  /// Format version from the header: kFormatV1 (live) or kFormatV2
  /// (sealed).
  std::uint16_t format_version() const noexcept { return version_; }
  const std::filesystem::path& path() const noexcept { return path_; }
  /// The sealed footer; throws StorageError unless sealed.
  const V2Footer& v2_footer() const;
  /// Footer watermark; throws unless sealed.
  util::TimeSec sealed_watermark() const { return v2_footer().watermark; }
  /// Footer event count; throws unless sealed.
  std::uint64_t sealed_event_count() const {
    return v2_footer().event_count;
  }
  std::span<const std::uint8_t> bytes() const noexcept {
    return file_.bytes();
  }
  bool mapped() const noexcept { return file_.mapped(); }
  std::uint64_t size() const noexcept { return file_.size(); }

  /// Decodes the frames of a live segment sequentially from the header
  /// end. Stops cleanly at the first invalid frame (the torn tail):
  /// `valid_bytes` is the offset of that boundary and `dropped_bytes` what
  /// follows it. Throws StorageError on a sealed (columnar) segment.
  struct Scan {
    std::vector<core::EventInstance> events;
    std::uint64_t valid_bytes = 0;
    std::uint64_t dropped_bytes = 0;
  };
  Scan scan_frames() const;

  /// Every event of a *sealed* segment in stored order (a full columnar
  /// decode). Unlike scan_frames, any damage throws StorageError — a
  /// sealed segment has no legitimate torn tail. Compaction and the
  /// streaming resume load read sealed segments through this.
  std::vector<core::EventInstance> read_all_events() const;

 private:
  std::filesystem::path path_;
  MappedFile file_;
  std::uint64_t seq_ = 0;
  std::uint16_t version_ = kFormatV1;
  SegmentKind kind_ = SegmentKind::kLive;
  bool sealed_ = false;
  V2Footer v2_footer_;
};

}  // namespace grca::storage
