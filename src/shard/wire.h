// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The coordinator <-> worker wire protocol for `grca shard`: CRC32C-framed
// messages over pipes, reusing the storage codec primitives so every frame
// is checksum-verified exactly like an on-disk segment frame.
//
// Frame layout (identical to storage frames): u32 payload_len |
// u32 crc32c(payload) | payload. The first payload byte is the FrameType.
//
// Message flow: the coordinator writes exactly one kHandshake frame to the
// worker's stdin-side pipe, then the worker streams kResult frames (one per
// diagnosed symptom, tagged with the symptom's *global* sequence number so
// the merge is a deterministic scatter) and finishes with one kStatus frame
// before closing its pipe. A kError frame aborts the worker's stream; EOF
// without a preceding kStatus marks the worker failed (crashed, killed).
//
// No LocId crosses the wire: a worker's store is its own re-sealed slice,
// and results carry full locations, so process-local interning never has
// to agree between coordinator and worker (see docs/SHARDING.md).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"

namespace grca::shard {

/// Bumped on every handshake layout change; decode_handshake refuses any
/// other version.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// "No value" marker for optional u32 knobs (test-failure injection).
inline constexpr std::uint32_t kNoValue = 0xffffffffu;

enum class FrameType : std::uint8_t {
  kHandshake = 1,
  kResult = 2,
  kStatus = 3,
  kError = 4,
};

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;  // includes the leading type byte
};

/// Incremental frame decoder: feed() arbitrary byte chunks, next() yields
/// complete checksum-verified frames. Throws StorageError on a corrupt
/// frame (bad CRC, oversized length, empty payload) — pipes do not tear
/// like crash-interrupted files, so damage is always an error here.
class FrameBuffer {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  std::optional<Frame> next();
  /// True when no partially received frame is pending — the clean-EOF test.
  bool drained() const noexcept;

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
};

/// Writes one frame to `fd` (blocking, restarts on EINTR). `payload` must
/// start with its FrameType byte — exactly what the encode_* helpers
/// produce. Throws StorageError on write failure — EPIPE included, which
/// the coordinator maps to "worker died".
void write_frame(int fd, std::span<const std::uint8_t> payload);

/// Blocking read of the next frame from `fd`. Returns nullopt on clean EOF
/// (no partial frame pending); throws StorageError on damage or torn EOF.
std::optional<Frame> read_frame(int fd, FrameBuffer& buffer);

// ---- handshake ------------------------------------------------------------

struct Handshake {
  std::uint32_t version = kProtocolVersion;
  std::string study;                 // "bgp" | "cdn" | "pim" | "innet"
  std::string data_dir;              // the replay corpus (configs + records)
  std::string store_dir;             // this worker's slice store
  std::uint32_t worker_index = 0;
  std::uint32_t worker_count = 1;
  std::uint32_t threads = 1;         // diagnosis threads inside the worker
  std::uint32_t attempt = 0;         // 0 = first run; retries increment
  /// Test hook: abort (_exit) after emitting this many result frames.
  /// kNoValue disables; fires only when attempt == 0 so --retry-failed runs
  /// can prove the deterministic re-merge.
  std::uint32_t fail_after_results = kNoValue;
  std::string extra_dsl;             // concatenated --dsl file contents
  /// Global sequence numbers (indices into the full store's root-symptom
  /// span) assigned to this worker, ascending.
  std::vector<std::uint32_t> symptom_seqs;
};

std::vector<std::uint8_t> encode_handshake(const Handshake& h);
/// Decodes a kHandshake frame payload (type byte included). Throws
/// StorageError on malformed bytes or a protocol-version mismatch.
Handshake decode_handshake(std::span<const std::uint8_t> payload);

// ---- results --------------------------------------------------------------

/// Serializes one diagnosis keyed by its global sequence number. Evidence
/// and cause instance pointers are flattened through a deduplicated
/// instance arena (each distinct instance encoded once, references by
/// index), so the decoded diagnosis reconstructs pointer-shared structure.
std::vector<std::uint8_t> encode_result(std::uint32_t seq,
                                        const core::Diagnosis& diagnosis);

struct DecodedResult {
  std::uint32_t seq = 0;
  core::Diagnosis diagnosis;
};

/// Decodes a kResult frame payload. The diagnosis's instance pointers point
/// into a vector appended to `arenas`, which must therefore outlive the
/// diagnosis (a deque never relocates settled elements, so previously
/// decoded results stay valid while more arrive).
DecodedResult decode_result(
    std::span<const std::uint8_t> payload,
    std::deque<std::vector<core::EventInstance>>& arenas);

// ---- worker status --------------------------------------------------------

/// The worker's final self-report, sent as the stream terminator.
struct WorkerReport {
  std::uint32_t worker_index = 0;
  std::uint64_t symptoms = 0;       // result frames emitted
  std::uint64_t store_events = 0;   // events visible in its store view
  double load_seconds = 0.0;        // corpus + store + pipeline setup
  double diagnose_seconds = 0.0;    // pure diagnosis wall time
};

std::vector<std::uint8_t> encode_status(const WorkerReport& report);
WorkerReport decode_status(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_error(std::uint32_t worker_index,
                                       std::string_view message);
/// Returns (worker_index, message).
std::pair<std::uint32_t, std::string> decode_error(
    std::span<const std::uint8_t> payload);

}  // namespace grca::shard
