// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The segmented event log: a directory of segment files plus the writer
// that grows it.
//
//   <dir>/seg-000001.grseg   sealed segments, in sequence order
//   <dir>/seg-000002.grseg
//   <dir>/wal.grseg          the live write-ahead segment (may be absent)
//
// Appends go to the WAL frame by frame (crash-safe: a torn tail is
// truncated on the next open). seal() rewrites everything pending as a new
// sealed, indexed segment — written to a temp file and renamed, so a crash
// mid-seal leaves either the old state or the new, never a half segment —
// and resets the WAL. The sealed-segment watermark records the stream time
// up to which the writer's producer had finalized events; a restarted
// streaming engine resumes from the newest sealed watermark.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/event.h"
#include "core/event_store.h"
#include "obs/metrics.h"
#include "storage/segment.h"

namespace grca::storage {

inline constexpr const char* kWalName = "wal.grseg";
inline constexpr const char* kSegmentExtension = ".grseg";

/// Sealed segment paths under `dir`, sorted by sequence number (the file
/// name embeds it). The WAL is not included.
std::vector<std::filesystem::path> list_segments(
    const std::filesystem::path& dir);

/// Appends events to the log's WAL and periodically seals them into
/// indexed segments. Single-writer by design (the ingest thread).
class EventLogWriter {
 public:
  /// Opens (creating if needed) the log at `dir`. An existing WAL is
  /// recovered: the valid frame prefix is either re-adopted as pending
  /// (discard_wal = false — a batch writer continuing an interrupted
  /// append) or dropped (discard_wal = true — the streaming engine, which
  /// resumes strictly from the last *sealed* segment and re-derives the
  /// tail from its feed). Torn bytes are counted into the
  /// `grca_storage_recovered_bytes` metric either way. The WAL holds v1
  /// live frames; seal() writes columnar v2 segments.
  explicit EventLogWriter(const std::filesystem::path& dir,
                          bool discard_wal = false);

  /// Write-ahead append: the frame is on the stream (and flushed) before
  /// this returns.
  void append(const core::EventInstance& e);

  /// Seals everything pending (recovered + appended since the last seal)
  /// into segment `seq = last+1`, grouped by name and sorted by start, with
  /// `watermark` recorded in the footer; then truncates the WAL. A seal
  /// with nothing pending still writes an (empty) segment — it records
  /// watermark progress, which resume depends on across quiet intervals;
  /// compaction folds empty segments away. Returns the new sequence number.
  std::optional<std::uint64_t> seal(util::TimeSec watermark);

  std::size_t pending() const noexcept { return pending_.size(); }
  std::uint64_t bytes_appended() const noexcept { return bytes_appended_; }
  const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  void open_wal_for_append(std::uint64_t at);

  std::filesystem::path dir_;
  std::ofstream wal_;
  std::uint64_t next_seq_ = 1;
  std::vector<core::EventInstance> pending_;
  std::vector<std::uint8_t> scratch_;
  std::uint64_t bytes_appended_ = 0;
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* recovered_bytes_ = nullptr;
  obs::Counter* seals_ = nullptr;
};

/// Persists a finalized in-memory store as one sealed segment under `dir`
/// (creating the directory; any existing log there is replaced). This is
/// the batch path behind `grca simulate --store-out`: buckets are already
/// grouped and sorted, so the segment is a single ordered pass. `format`
/// has a single value (see SealFormat).
void write_sealed_store(const std::filesystem::path& dir,
                        const core::EventStore& store,
                        util::TimeSec watermark,
                        SealFormat format = SealFormat::kV2);

/// Everything recoverable from the log's *sealed* segments, in (segment
/// sequence, file) order — the streaming engine's resume source. The WAL is
/// deliberately ignored here.
struct SealedLoad {
  std::vector<core::EventInstance> events;
  std::optional<util::TimeSec> watermark;  // newest sealed watermark
  std::size_t segments = 0;
};
SealedLoad load_sealed_events(const std::filesystem::path& dir);

/// Full-sweep integrity check. Normal mode checks every checksum and every
/// byte's decodability: header CRCs, footer CRCs, column-region CRCs, a
/// full structural decode of every sealed segment, footer/data tiling, and
/// every WAL frame CRC. A segment file that cannot be opened as a sealed
/// segment (damaged seal, retired sealed v1 header) is an error; only the
/// WAL may legitimately carry a torn tail (reported, not an error). Deep
/// mode additionally rescans every sealed segment and recomputes the footer
/// statistics — per-run max_duration and every zone map (min/max start,
/// location range, name bitmap) — against the decoded rows, catching
/// stats-only damage that checksums can't (a bug in a writer, not a bit
/// flip).
struct VerifyReport {
  std::size_t segments = 0;  // files checked, the WAL included
  std::uint64_t frames = 0;  // decoded rows (sealed rows + WAL frames)
  std::uint64_t bytes = 0;
  std::uint64_t torn_wal_bytes = 0;
  bool deep = false;
  std::vector<std::string> errors;

  bool ok() const noexcept { return errors.empty(); }
};
VerifyReport verify_store(const std::filesystem::path& dir,
                          bool deep = false);

/// Rewrites the log as a single sealed segment containing every event
/// from every sealed segment plus the WAL's valid prefix, then
/// removes the inputs. Query results are unchanged (same events, same
/// order — ties keep segment order); the newest input watermark is carried
/// over. Before any input is removed, the freshly written segment is
/// re-opened and deep-checked (footer statistics recomputed from a full
/// rescan); a mismatch deletes the output and throws, leaving the inputs
/// untouched; an input that cannot be read (damage, a retired sealed v1
/// segment) throws before anything is written. Returns the new segment's
/// sequence number, or nullopt when the log is empty.
std::optional<std::uint64_t> compact_store(const std::filesystem::path& dir);

}  // namespace grca::storage
