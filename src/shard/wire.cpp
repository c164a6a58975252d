// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "shard/wire.h"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "storage/codec.h"
#include "storage/crc32c.h"
#include "util/error.h"

namespace grca::shard {

namespace {

using storage::ByteReader;
using storage::put_string;
using storage::put_u32;
using storage::put_u64;
using storage::put_varint;
using storage::put_varint_signed;

std::uint32_t read_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

FrameType expect_type(ByteReader& in, FrameType want, const char* what) {
  auto type = static_cast<FrameType>(in.u8());
  if (type != want) {
    throw StorageError(std::string("shard wire: expected a ") + what +
                       " frame, got type " +
                       std::to_string(static_cast<int>(type)));
  }
  return type;
}

void put_event(std::vector<std::uint8_t>& out, const core::EventInstance& e) {
  std::vector<std::uint8_t> body;
  storage::encode_event(e, body);
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
}

core::EventInstance read_event(ByteReader& in,
                               std::span<const std::uint8_t> payload) {
  std::uint32_t len = in.u32();
  if (len > in.remaining()) {
    throw StorageError("shard wire: truncated event payload");
  }
  std::size_t at = in.position();
  core::EventInstance e =
      storage::decode_event(payload.subspan(at, len));
  // ByteReader has no skip; re-consume the bytes through the bounds checks.
  for (std::uint32_t i = 0; i < len; ++i) in.u8();
  return e;
}

void ensure_done(const ByteReader& in, const char* what) {
  if (in.remaining() != 0) {
    throw StorageError(std::string("shard wire: trailing bytes after ") +
                       what);
  }
}

}  // namespace

// ---- framing --------------------------------------------------------------

void FrameBuffer::feed(const std::uint8_t* data, std::size_t n) {
  // Compact the consumed prefix before it outgrows the pending bytes.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameBuffer::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < storage::kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* head = buf_.data() + pos_;
  std::uint32_t len = read_le32(head);
  std::uint32_t crc = read_le32(head + 4);
  if (len == 0 || len > storage::kMaxFramePayload) {
    throw StorageError("shard wire: insane frame length " +
                       std::to_string(len));
  }
  if (avail < storage::kFrameHeaderBytes + len) return std::nullopt;
  const std::uint8_t* payload = head + storage::kFrameHeaderBytes;
  if (storage::crc32c(payload, len) != crc) {
    throw StorageError("shard wire: frame checksum mismatch");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(payload[0]);
  frame.payload.assign(payload, payload + len);
  pos_ += storage::kFrameHeaderBytes + len;
  return frame;
}

bool FrameBuffer::drained() const noexcept { return pos_ == buf_.size(); }

void write_frame(int fd, std::span<const std::uint8_t> payload) {
  if (payload.empty() || payload.size() > storage::kMaxFramePayload) {
    throw StorageError("shard wire: refusing to write frame of " +
                       std::to_string(payload.size()) + " bytes");
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(storage::kFrameHeaderBytes + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, storage::crc32c(payload.data(), payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  std::size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StorageError(std::string("shard wire: write failed: ") +
                         std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::optional<Frame> read_frame(int fd, FrameBuffer& buffer) {
  for (;;) {
    if (auto frame = buffer.next()) return frame;
    std::uint8_t chunk[65536];
    ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StorageError(std::string("shard wire: read failed: ") +
                         std::strerror(errno));
    }
    if (n == 0) {
      if (!buffer.drained()) {
        throw StorageError("shard wire: EOF inside a frame");
      }
      return std::nullopt;
    }
    buffer.feed(chunk, static_cast<std::size_t>(n));
  }
}

// ---- handshake ------------------------------------------------------------

std::vector<std::uint8_t> encode_handshake(const Handshake& h) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(FrameType::kHandshake));
  put_u32(out, h.version);
  put_string(out, h.study);
  put_string(out, h.data_dir);
  put_string(out, h.store_dir);
  put_u32(out, h.worker_index);
  put_u32(out, h.worker_count);
  put_u32(out, h.threads);
  put_u32(out, h.attempt);
  put_u32(out, h.fail_after_results);
  put_string(out, h.extra_dsl);
  put_u32(out, static_cast<std::uint32_t>(h.symptom_seqs.size()));
  std::uint32_t prev = 0;
  for (std::uint32_t seq : h.symptom_seqs) {  // ascending: delta-encode
    put_varint(out, seq - prev);
    prev = seq;
  }
  return out;
}

Handshake decode_handshake(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  expect_type(in, FrameType::kHandshake, "handshake");
  Handshake h;
  h.version = in.u32();
  if (h.version != kProtocolVersion) {
    throw StorageError("shard wire: protocol version mismatch (got " +
                       std::to_string(h.version) + ", want " +
                       std::to_string(kProtocolVersion) + ")");
  }
  h.study = in.string();
  h.data_dir = in.string();
  h.store_dir = in.string();
  h.worker_index = in.u32();
  h.worker_count = in.u32();
  h.threads = in.u32();
  h.attempt = in.u32();
  h.fail_after_results = in.u32();
  h.extra_dsl = in.string();
  std::uint32_t seqs = in.u32();
  h.symptom_seqs.reserve(seqs);
  std::uint32_t seq = 0;
  for (std::uint32_t i = 0; i < seqs; ++i) {
    seq += static_cast<std::uint32_t>(in.varint());
    h.symptom_seqs.push_back(seq);
  }
  ensure_done(in, "handshake");
  return h;
}

// ---- results --------------------------------------------------------------

std::vector<std::uint8_t> encode_result(std::uint32_t seq,
                                        const core::Diagnosis& diagnosis) {
  // Deduplicated instance arena: every pointer the evidence nodes and
  // causes reference, encoded once in first-encounter order.
  std::unordered_map<const core::EventInstance*, std::uint32_t> index;
  std::vector<const core::EventInstance*> arena;
  auto intern = [&](const core::EventInstance* inst) {
    auto [it, fresh] =
        index.try_emplace(inst, static_cast<std::uint32_t>(arena.size()));
    if (fresh) arena.push_back(inst);
    return it->second;
  };
  std::vector<std::vector<std::uint32_t>> evidence_refs;
  evidence_refs.reserve(diagnosis.evidence.size());
  for (const core::EvidenceNode& node : diagnosis.evidence) {
    std::vector<std::uint32_t> refs;
    refs.reserve(node.instances.size());
    for (const core::EventInstance* inst : node.instances) {
      refs.push_back(intern(inst));
    }
    evidence_refs.push_back(std::move(refs));
  }
  std::vector<std::vector<std::uint32_t>> cause_refs;
  cause_refs.reserve(diagnosis.causes.size());
  for (const core::RootCause& cause : diagnosis.causes) {
    std::vector<std::uint32_t> refs;
    refs.reserve(cause.instances.size());
    for (const core::EventInstance* inst : cause.instances) {
      refs.push_back(intern(inst));
    }
    cause_refs.push_back(std::move(refs));
  }

  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(FrameType::kResult));
  put_u32(out, seq);
  put_event(out, diagnosis.symptom);
  put_u32(out, static_cast<std::uint32_t>(arena.size()));
  for (const core::EventInstance* inst : arena) put_event(out, *inst);
  put_u32(out, static_cast<std::uint32_t>(diagnosis.evidence.size()));
  for (std::size_t i = 0; i < diagnosis.evidence.size(); ++i) {
    const core::EvidenceNode& node = diagnosis.evidence[i];
    put_string(out, node.event);
    put_varint_signed(out, node.priority);
    put_varint(out, static_cast<std::uint64_t>(node.depth));
    put_varint(out, evidence_refs[i].size());
    for (std::uint32_t ref : evidence_refs[i]) put_varint(out, ref);
  }
  put_u32(out, static_cast<std::uint32_t>(diagnosis.causes.size()));
  for (std::size_t i = 0; i < diagnosis.causes.size(); ++i) {
    const core::RootCause& cause = diagnosis.causes[i];
    put_string(out, cause.event);
    put_varint_signed(out, cause.priority);
    put_varint(out, cause_refs[i].size());
    for (std::uint32_t ref : cause_refs[i]) put_varint(out, ref);
  }
  put_u64(out, std::bit_cast<std::uint64_t>(diagnosis.elapsed_ms));
  return out;
}

DecodedResult decode_result(
    std::span<const std::uint8_t> payload,
    std::deque<std::vector<core::EventInstance>>& arenas) {
  ByteReader in(payload);
  expect_type(in, FrameType::kResult, "result");
  DecodedResult out;
  out.seq = in.u32();
  out.diagnosis.symptom = read_event(in, payload);
  std::uint32_t arena_count = in.u32();
  // The arena vector is sized exactly once before any pointer into it is
  // taken; deque growth never relocates settled vectors.
  std::vector<core::EventInstance>& arena = arenas.emplace_back();
  arena.reserve(arena_count);
  for (std::uint32_t i = 0; i < arena_count; ++i) {
    arena.push_back(read_event(in, payload));
  }
  auto instance_at = [&](std::uint64_t ref) -> const core::EventInstance* {
    if (ref >= arena.size()) {
      throw StorageError("shard wire: instance reference " +
                         std::to_string(ref) + " out of range");
    }
    return &arena[static_cast<std::size_t>(ref)];
  };
  std::uint32_t evidence_count = in.u32();
  out.diagnosis.evidence.reserve(evidence_count);
  for (std::uint32_t i = 0; i < evidence_count; ++i) {
    core::EvidenceNode node;
    node.event = in.string();
    node.priority = static_cast<int>(in.varint_signed());
    node.depth = static_cast<int>(in.varint());
    std::uint64_t n = in.varint();
    node.instances.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t j = 0; j < n; ++j) {
      node.instances.push_back(instance_at(in.varint()));
    }
    out.diagnosis.evidence_index.insert(node.event);
    out.diagnosis.evidence.push_back(std::move(node));
  }
  std::uint32_t cause_count = in.u32();
  out.diagnosis.causes.reserve(cause_count);
  for (std::uint32_t i = 0; i < cause_count; ++i) {
    core::RootCause cause;
    cause.event = in.string();
    cause.priority = static_cast<int>(in.varint_signed());
    std::uint64_t n = in.varint();
    cause.instances.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t j = 0; j < n; ++j) {
      cause.instances.push_back(instance_at(in.varint()));
    }
    out.diagnosis.causes.push_back(std::move(cause));
  }
  out.diagnosis.elapsed_ms = std::bit_cast<double>(in.u64());
  ensure_done(in, "result");
  return out;
}

// ---- worker status --------------------------------------------------------

std::vector<std::uint8_t> encode_status(const WorkerReport& report) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(FrameType::kStatus));
  put_u32(out, report.worker_index);
  put_u64(out, report.symptoms);
  put_u64(out, report.store_events);
  put_u64(out, std::bit_cast<std::uint64_t>(report.load_seconds));
  put_u64(out, std::bit_cast<std::uint64_t>(report.diagnose_seconds));
  return out;
}

WorkerReport decode_status(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  expect_type(in, FrameType::kStatus, "status");
  WorkerReport report;
  report.worker_index = in.u32();
  report.symptoms = in.u64();
  report.store_events = in.u64();
  report.load_seconds = std::bit_cast<double>(in.u64());
  report.diagnose_seconds = std::bit_cast<double>(in.u64());
  ensure_done(in, "status");
  return report;
}

std::vector<std::uint8_t> encode_error(std::uint32_t worker_index,
                                       std::string_view message) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(FrameType::kError));
  put_u32(out, worker_index);
  put_string(out, message);
  return out;
}

std::pair<std::uint32_t, std::string> decode_error(
    std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  expect_type(in, FrameType::kError, "error");
  std::uint32_t index = in.u32();
  std::string message = in.string();
  ensure_done(in, "error");
  return {index, std::move(message)};
}

}  // namespace grca::shard
