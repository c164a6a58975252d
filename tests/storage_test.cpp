// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the persistent event store: CRC32C vectors, codec round-trip
// properties, bit-flip corruption rejection, torn-tail recovery sweeps,
// query equivalence between the mmap-backed and in-memory stores,
// byte-identical diagnosis across backends, streaming kill-and-resume,
// verification, compaction, and refusal of retired sealed v1 segments.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bgp_flap_app.h"
#include "apps/pipeline.h"
#include "apps/streaming.h"
#include "core/event_store.h"
#include "obs/metrics.h"
#include "simulation/workloads.h"
#include "storage/codec.h"
#include "storage/crc32c.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "storage/segment.h"
#include "topology/config.h"
#include "topology/topo_gen.h"
#include "util/error.h"
#include "util/rng.h"

namespace grca::storage {
namespace {

namespace fs = std::filesystem;
namespace t = topology;

/// A per-test scratch directory under the system temp dir, removed on both
/// entry (stale state from a crashed run) and exit.
struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           ("grca-storage-test-" + std::string(info->test_suite_name()) + "-" +
            std::string(info->name()) + "-" + tag);
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::vector<std::uint8_t> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const fs::path& p, const std::vector<std::uint8_t>& bytes,
                std::size_t n) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(n));
}

core::EventInstance random_event(util::Rng& rng) {
  static const char* kNames[] = {"bgp-flap", "link-down", "cpu-high",
                                 "ospf-adjacency", "fan-failure"};
  core::EventInstance e;
  e.name = kNames[rng.below(5)];
  e.when.start = util::make_utc(2026, 3, 1) + rng.range(-600, 72 * 3600);
  e.when.end = e.when.start + rng.range(0, 5400);
  switch (rng.below(4)) {
    case 0:
      e.where = core::Location::router("r" + std::to_string(rng.below(40)));
      break;
    case 1:
      e.where = core::Location::interface(
          "r" + std::to_string(rng.below(40)),
          "ge-0/0/" + std::to_string(rng.below(8)));
      break;
    case 2:
      e.where = core::Location::logical_link("lk" + std::to_string(rng.below(60)));
      break;
    default:
      e.where = core::Location::pop_pair("pop" + std::to_string(rng.below(6)),
                                         "pop" + std::to_string(rng.below(6)));
  }
  std::size_t attrs = rng.below(4);  // includes the empty-attrs case
  for (std::size_t i = 0; i < attrs; ++i) {
    e.attrs["k" + std::to_string(rng.below(6))] =
        "v" + std::to_string(rng.next() % 1000);
  }
  return e;
}

// ---------------------------------------------------------------- CRC32C --

TEST(Crc32c, KnownVectorAndChaining) {
  // The canonical CRC32C check value (RFC 3720 appendix / every
  // implementation's self-test vector).
  const char* digits = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(digits, 0), 0u);
  // Chaining with the previous return value accumulates to the one-shot sum.
  std::uint32_t chained = crc32c(digits, 4);
  chained = crc32c(chained, digits + 4, 5);
  EXPECT_EQ(chained, crc32c(digits, 9));
}

// ----------------------------------------------------------------- Codec --

TEST(Codec, RandomRoundTripIsByteIdentical) {
  util::Rng rng(0x5EED5EEDull);
  for (int i = 0; i < 500; ++i) {
    core::EventInstance e = random_event(rng);
    std::vector<std::uint8_t> bytes;
    encode_event(e, bytes);
    core::EventInstance back = decode_event(bytes);
    ASSERT_EQ(back, e);
    // where_id is bookkeeping, never serialized: decode leaves it unset.
    EXPECT_EQ(back.where_id, core::kInvalidLocId);
    // Determinism: re-encoding the decoded instance is byte-identical.
    std::vector<std::uint8_t> again;
    encode_event(back, again);
    ASSERT_EQ(again, bytes);
  }
}

TEST(Codec, EdgeEventsRoundTrip) {
  // Empty attrs, empty location components, zero-length interval.
  core::EventInstance minimal;
  minimal.name = "x";
  minimal.when = {0, 0};
  minimal.where = core::Location::router("");
  // Long strings (well past any small-string optimization and the index
  // block granularity) and an attr map whose values carry every byte value.
  core::EventInstance big;
  big.name = std::string(64 * 1024, 'n');
  big.when = {-1'000'000'000'000LL, 2'000'000'000'000LL};
  big.where = core::Location::vpn_neighbor(std::string(4096, 'a'),
                                           std::string(4096, 'b'),
                                           std::string(4096, 'c'));
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
  big.attrs[std::string(1024, 'k')] = all_bytes;
  big.attrs[""] = "";  // empty key and value

  for (const core::EventInstance& e : {minimal, big}) {
    std::vector<std::uint8_t> bytes;
    encode_event(e, bytes);
    EXPECT_EQ(decode_event(bytes), e);
  }
}

TEST(Codec, TruncatedFrameNeverProbes) {
  util::Rng rng(7);
  core::EventInstance e = random_event(rng);
  std::vector<std::uint8_t> frame;
  encode_frame(e, frame);
  auto full = probe_frame(frame);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->frame_bytes, frame.size());
  EXPECT_EQ(decode_event(full->payload), e);
  // Every proper prefix is a torn tail: probe must refuse it.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(
        probe_frame(std::span<const std::uint8_t>(frame.data(), len)))
        << "prefix of " << len << " bytes probed as a frame";
  }
}

// The satellite property: flip every single bit of a framed record and
// assert the CRC32C frame check rejects every mutant. (CRC32C detects all
// 1-bit errors by construction; this pins that the framing actually wires
// the checksum over both the length header's interpretation and the
// payload.)
TEST(Codec, EveryBitFlipIsRejected) {
  util::Rng rng(11);
  core::EventInstance e = random_event(rng);
  e.attrs["detail"] = "some attribute payload";
  std::vector<std::uint8_t> frame;
  encode_frame(e, frame);
  ASSERT_TRUE(probe_frame(frame).has_value());

  std::vector<std::uint8_t> mutant = frame;
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutant[byte] = frame[byte] ^ static_cast<std::uint8_t>(1u << bit);
      auto probed = probe_frame(mutant);
      EXPECT_FALSE(probed.has_value())
          << "bit " << bit << " of byte " << byte << " survived the CRC";
      mutant[byte] = frame[byte];
    }
  }
}

// ------------------------------------------------------- torn-tail sweep --

// Crash-recovery sweep (the issue's satellite): truncate a live WAL at
// every byte offset and assert open() recovers exactly the frames that are
// wholly present — never a partial frame, never fewer than the valid
// prefix — and accounts every byte to recovered or truncated.
TEST(EventLog, TornTailRecoverySweepRecoversExactPrefix) {
  util::Rng rng(23);
  std::vector<core::EventInstance> events;
  std::vector<std::size_t> frame_end;  // cumulative frame end offsets
  std::vector<std::uint8_t> wal = encode_segment_header(1, SegmentKind::kLive);
  for (int i = 0; i < 3; ++i) {
    events.push_back(random_event(rng));
    encode_frame(events.back(), wal);
    frame_end.push_back(wal.size());
  }

  for (std::size_t cut = kSegmentHeaderBytes; cut <= wal.size(); ++cut) {
    TempDir dir("cut" + std::to_string(cut));
    fs::create_directories(dir.path);
    write_file(dir.path / kWalName, wal, cut);

    std::size_t whole_frames =
        static_cast<std::size_t>(std::upper_bound(frame_end.begin(),
                                                  frame_end.end(), cut) -
                                 frame_end.begin());
    std::size_t valid_end =
        whole_frames == 0 ? kSegmentHeaderBytes : frame_end[whole_frames - 1];

    // Read path: the mmap-backed store adopts the valid prefix read-only.
    PersistentEventStore store = PersistentEventStore::open(dir.path);
    ASSERT_EQ(store.total_instances(), whole_frames) << "cut=" << cut;
    EXPECT_EQ(store.stats().wal_events, whole_frames);
    EXPECT_EQ(store.stats().recovered_bytes, valid_end - kSegmentHeaderBytes);
    EXPECT_EQ(store.stats().truncated_bytes, cut - valid_end);
    for (std::size_t i = 0; i < whole_frames; ++i) {
      auto span = store.all(events[i].name);
      EXPECT_TRUE(std::any_of(span.begin(), span.end(),
                              [&](const core::EventInstance& got) {
                                return got == events[i];
                              }))
          << "cut=" << cut << " lost frame " << i;
    }

    // Write path: the writer re-adopts the same prefix as pending and
    // normalizes the WAL, so a second open sees no torn bytes.
    EventLogWriter writer(dir.path);
    EXPECT_EQ(writer.pending(), whole_frames);
    PersistentEventStore reopened = PersistentEventStore::open(dir.path);
    EXPECT_EQ(reopened.total_instances(), whole_frames);
    EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
  }
}

TEST(EventLog, RecoveryCountsIntoMetricsRegistry) {
  util::Rng rng(29);
  std::vector<std::uint8_t> wal = encode_segment_header(1, SegmentKind::kLive);
  encode_frame(random_event(rng), wal);
  std::size_t full = wal.size();
  encode_frame(random_event(rng), wal);

  TempDir dir("metrics");
  fs::create_directories(dir.path);
  write_file(dir.path / kWalName, wal, full + 5);  // tear the second frame

  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  EventLogWriter writer(dir.path);
  EXPECT_EQ(writer.pending(), 1u);
  EXPECT_EQ(registry.counter("grca_storage_recovered_bytes").value(),
            full - kSegmentHeaderBytes);
  EXPECT_EQ(registry.counter("grca_storage_truncated_bytes").value(), 5u);
}

// ------------------------------------------------- query equivalence -----

/// Adds the same events to an in-memory store and asserts the persistent
/// store answers every probe identically (values and order).
void expect_equivalent(const core::EventStore& mem,
                       const PersistentEventStore& disk, util::Rng& rng,
                       int windows) {
  ASSERT_EQ(disk.total_instances(), mem.total_instances());
  ASSERT_EQ(disk.event_names(), mem.event_names());
  for (const std::string& name : mem.event_names()) {
    auto want = mem.all(name);
    auto got = disk.all(name);
    ASSERT_EQ(got.size(), want.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << name << "[" << i << "]";
    }
  }
  std::vector<std::string> names = mem.event_names();
  util::TimeSec base = util::make_utc(2026, 3, 1);
  for (int i = 0; i < windows; ++i) {
    const std::string& name = names[rng.below(names.size())];
    util::TimeSec from = base + rng.range(-7200, 72 * 3600);
    util::TimeSec to = from + rng.range(0, 6 * 3600);
    auto want = mem.query(name, from, to);
    auto got = disk.query(name, from, to);
    ASSERT_EQ(got.size(), want.size())
        << name << " [" << from << ", " << to << "]";
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(*got[k], *want[k]) << name << " result " << k;
    }
  }
}

TEST(PersistentStore, SealedSegmentMatchesInMemoryQueries) {
  util::Rng rng(0xABCDEF);
  core::EventStore mem;
  util::TimeSec max_start = 0;
  for (int i = 0; i < 2000; ++i) {
    core::EventInstance e = random_event(rng);
    max_start = std::max(max_start, e.when.start);
    mem.add(std::move(e));
  }
  mem.warm();

  TempDir dir("sealed");
  write_sealed_store(dir.path, mem, max_start + 1);
  PersistentEventStore disk = PersistentEventStore::open(dir.path);
  EXPECT_EQ(disk.stats().sealed_segments, 1u);
  EXPECT_FALSE(disk.stats().wal_present);
  EXPECT_EQ(disk.watermark(), max_start + 1);
  expect_equivalent(mem, disk, rng, 300);
  EXPECT_TRUE(verify_store(dir.path).ok());
}

// Multi-segment log plus a live WAL tail: the persistent store must merge
// segments in sequence order and still answer identically to an in-memory
// store fed the same events in the same arrival order.
TEST(PersistentStore, MultiSegmentPlusWalMatchesInMemoryQueries) {
  util::Rng rng(0x1234);
  core::EventStore mem;
  TempDir dir("multi");
  EventLogWriter writer(dir.path);
  // Three sealed generations plus an unsealed tail. Events within one
  // generation arrive in random order; generations are sealed in arrival
  // order, which is the partition the merge relies on.
  util::TimeSec watermark = 0;
  for (int gen = 0; gen < 4; ++gen) {
    for (int i = 0; i < 400; ++i) {
      core::EventInstance e = random_event(rng);
      watermark = std::max(watermark, e.when.start + 1);
      writer.append(e);
      mem.add(std::move(e));
    }
    if (gen < 3) {
      ASSERT_TRUE(writer.seal(watermark).has_value());
    }
  }
  mem.warm();

  PersistentEventStore disk = PersistentEventStore::open(dir.path);
  EXPECT_EQ(disk.stats().sealed_segments, 3u);
  EXPECT_TRUE(disk.stats().wal_present);
  EXPECT_EQ(disk.stats().wal_events, 400u);
  expect_equivalent(mem, disk, rng, 300);

  // Compaction folds everything into one sealed segment with the same
  // query results and the newest watermark.
  auto seq = compact_store(dir.path);
  ASSERT_TRUE(seq.has_value());
  PersistentEventStore compacted = PersistentEventStore::open(dir.path);
  EXPECT_EQ(compacted.stats().sealed_segments, 1u);
  EXPECT_FALSE(compacted.stats().wal_present);
  EXPECT_EQ(compacted.watermark(), watermark);
  expect_equivalent(mem, compacted, rng, 300);
  EXPECT_TRUE(verify_store(dir.path).ok());
}

// A log grown by two writer incarnations: the second writer reopens the
// directory, continues the sequence numbering after the first's sealed
// segment, seals a generation of its own and leaves a live WAL tail. The
// log must deep-verify and merge into the same answers as an in-memory
// store fed the same arrival order, before and after compaction.
TEST(PersistentStore, ReopenedWriterSegmentsPlusWalMatchInMemoryQueries) {
  util::Rng rng(0x3141);
  core::EventStore mem;
  TempDir dir("reopened");
  util::TimeSec watermark = 0;
  auto feed = [&](EventLogWriter& writer, int count) {
    for (int i = 0; i < count; ++i) {
      core::EventInstance e = random_event(rng);
      watermark = std::max(watermark, e.when.start + 1);
      writer.append(e);
      mem.add(std::move(e));
    }
  };
  {
    EventLogWriter first(dir.path);
    feed(first, 400);
    ASSERT_EQ(first.seal(watermark), 1u);
  }
  {
    EventLogWriter second(dir.path);
    feed(second, 400);
    ASSERT_EQ(second.seal(watermark), 2u);
    feed(second, 150);  // live WAL tail, not sealed
  }
  mem.warm();

  PersistentEventStore disk = PersistentEventStore::open(dir.path);
  EXPECT_EQ(disk.stats().sealed_segments, 2u);
  EXPECT_EQ(disk.stats().wal_events, 150u);
  expect_equivalent(mem, disk, rng, 300);
  EXPECT_TRUE(verify_store(dir.path, /*deep=*/true).ok());

  // Compaction folds both generations plus the tail into one segment with
  // identical answers.
  ASSERT_TRUE(compact_store(dir.path).has_value());
  PersistentEventStore compacted = PersistentEventStore::open(dir.path);
  EXPECT_EQ(compacted.stats().sealed_segments, 1u);
  EXPECT_FALSE(compacted.stats().wal_present);
  expect_equivalent(mem, compacted, rng, 300);
  EXPECT_TRUE(verify_store(dir.path, /*deep=*/true).ok());
}

// The torn-tail sweep with a sealed v2 segment alongside: truncating the
// WAL at every offset must never disturb the sealed columnar data, and
// recovery still adopts exactly the whole frames.
TEST(EventLog, TornTailSweepWithSealedV2Segment) {
  util::Rng rng(0x2718);
  TempDir master("master");
  std::vector<core::EventInstance> sealed_events;
  util::TimeSec watermark = 0;
  {
    EventLogWriter writer(master.path);
    for (int i = 0; i < 50; ++i) {
      sealed_events.push_back(random_event(rng));
      watermark = std::max(watermark, sealed_events.back().when.start + 1);
      writer.append(sealed_events.back());
    }
    ASSERT_TRUE(writer.seal(watermark).has_value());
  }
  // Hand-build the WAL tail so frame boundaries are known exactly.
  std::vector<core::EventInstance> tail;
  std::vector<std::size_t> frame_end;
  std::vector<std::uint8_t> wal = encode_segment_header(2, SegmentKind::kLive);
  for (int i = 0; i < 3; ++i) {
    tail.push_back(random_event(rng));
    encode_frame(tail.back(), wal);
    frame_end.push_back(wal.size());
  }
  auto sealed_paths = list_segments(master.path);
  ASSERT_EQ(sealed_paths.size(), 1u);
  std::vector<std::uint8_t> seg_bytes = read_file(sealed_paths.front());

  for (std::size_t cut = kSegmentHeaderBytes; cut <= wal.size(); ++cut) {
    TempDir dir("cut" + std::to_string(cut));
    fs::create_directories(dir.path);
    write_file(dir.path / sealed_paths.front().filename(), seg_bytes,
               seg_bytes.size());
    write_file(dir.path / kWalName, wal, cut);

    std::size_t whole_frames =
        static_cast<std::size_t>(std::upper_bound(frame_end.begin(),
                                                  frame_end.end(), cut) -
                                 frame_end.begin());
    PersistentEventStore store = PersistentEventStore::open(dir.path);
    EXPECT_EQ(store.stats().sealed_segments, 1u);
    EXPECT_EQ(store.stats().wal_events, whole_frames);
    ASSERT_EQ(store.total_instances(), sealed_events.size() + whole_frames)
        << "cut=" << cut;
    for (std::size_t i = 0; i < whole_frames; ++i) {
      auto span = store.all(tail[i].name);
      EXPECT_TRUE(std::any_of(span.begin(), span.end(),
                              [&](const core::EventInstance& got) {
                                return got == tail[i];
                              }))
          << "cut=" << cut << " lost WAL frame " << i;
    }
  }
}

TEST(PersistentStore, OpenEmptyDirectoryThrows) {
  TempDir dir("empty");
  fs::create_directories(dir.path);
  EXPECT_THROW(PersistentEventStore::open(dir.path), StorageError);
}

TEST(PersistentStore, EmptyStoreRoundTrips) {
  core::EventStore mem;
  mem.warm();
  TempDir dir("zero");
  write_sealed_store(dir.path, mem, 12345);
  PersistentEventStore disk = PersistentEventStore::open(dir.path);
  EXPECT_EQ(disk.total_instances(), 0u);
  EXPECT_TRUE(disk.event_names().empty());
  EXPECT_EQ(disk.watermark(), 12345);
  EXPECT_TRUE(disk.query("anything", 0, 1'000'000'000).empty());
}

// -------------------------------------------------------------- verify ---

TEST(EventLog, VerifyDetectsFrameCorruption) {
  util::Rng rng(31);
  core::EventStore mem;
  for (int i = 0; i < 200; ++i) mem.add(random_event(rng));
  mem.warm();
  TempDir dir("corrupt");
  write_sealed_store(dir.path, mem, util::make_utc(2026, 4, 1));
  ASSERT_TRUE(verify_store(dir.path).ok());

  auto segments = list_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<std::uint8_t> bytes = read_file(segments.front());
  // Flip one byte in the middle of the frame region (past the header, well
  // before the footer).
  bytes[kSegmentHeaderBytes + kFrameHeaderBytes + 3] ^= 0x40;
  write_file(segments.front(), bytes, bytes.size());

  VerifyReport report = verify_store(dir.path);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.errors.empty());
}

TEST(EventLog, VerifyReportsTornWalAsRecoverable) {
  util::Rng rng(37);
  TempDir dir("tornwal");
  {
    EventLogWriter writer(dir.path);
    for (int i = 0; i < 10; ++i) writer.append(random_event(rng));
  }
  fs::path wal = dir.path / kWalName;
  std::vector<std::uint8_t> bytes = read_file(wal);
  write_file(wal, bytes, bytes.size() - 3);  // tear the last frame

  VerifyReport report = verify_store(dir.path);
  EXPECT_TRUE(report.ok()) << "a torn WAL tail is recoverable, not an error";
  EXPECT_GT(report.torn_wal_bytes, 0u);
}

// A sealed v1 segment (the retired row-oriented sealed format) must be
// refused by every reader with a StorageError naming the file — never read
// as a live segment, whether or not a footer trailer validates behind its
// frames — and compaction must leave a log holding one untouched.
TEST(EventLog, SealedV1SegmentIsRefusedEverywhere) {
  util::Rng rng(41);
  for (bool with_trailer : {false, true}) {
    TempDir dir(with_trailer ? "trailer" : "bare");
    {
      EventLogWriter writer(dir.path);
      for (int i = 0; i < 20; ++i) writer.append(random_event(rng));
      ASSERT_EQ(writer.seal(util::make_utc(2026, 4, 1)), 1u);
      for (int i = 0; i < 5; ++i) writer.append(random_event(rng));
    }
    // The WAL header with its kind switched to sealed (header CRC
    // recomputed so only the version/kind pairing is wrong), then frames.
    std::vector<std::uint8_t> v1 = encode_segment_header(2, SegmentKind::kLive);
    v1.resize(kSegmentHeaderBytes - 4);
    v1[6] = static_cast<std::uint8_t>(SegmentKind::kSealed);
    put_u32(v1, crc32c(v1.data(), v1.size()));
    for (int i = 0; i < 3; ++i) encode_frame(random_event(rng), v1);
    if (with_trailer) {
      std::vector<std::uint8_t> footer = {1, 2, 3, 4, 5, 6, 7, 8};
      v1.insert(v1.end(), footer.begin(), footer.end());
      put_u64(v1, footer.size());
      put_u32(v1, crc32c(footer.data(), footer.size()));
      put_u32(v1, kFooterMagic);
    }
    const fs::path v1_path = dir.path / "seg-000002.grseg";
    write_file(v1_path, v1, v1.size());

    auto expect_names_file = [&](const StorageError& e) {
      EXPECT_NE(std::string(e.what()).find(v1_path.string()),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("sealed v1"), std::string::npos)
          << e.what();
    };
    try {
      SegmentReader::open(v1_path);
      ADD_FAILURE() << "SegmentReader::open accepted a sealed v1 segment";
    } catch (const StorageError& e) {
      expect_names_file(e);
    }
    try {
      PersistentEventStore::open(dir.path);
      ADD_FAILURE() << "PersistentEventStore::open accepted sealed v1";
    } catch (const StorageError& e) {
      expect_names_file(e);
    }

    VerifyReport report = verify_store(dir.path, /*deep=*/true);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_NE(report.errors.front().find(v1_path.string()),
              std::string::npos);
    EXPECT_NE(report.errors.front().find("sealed v1"), std::string::npos);

    // Compaction refuses before writing anything: same files, same bytes.
    std::map<std::string, std::vector<std::uint8_t>> before;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      before[entry.path().filename().string()] = read_file(entry.path());
    }
    try {
      compact_store(dir.path);
      ADD_FAILURE() << "compact_store accepted a sealed v1 segment";
    } catch (const StorageError& e) {
      expect_names_file(e);
    }
    std::map<std::string, std::vector<std::uint8_t>> after;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      after[entry.path().filename().string()] = read_file(entry.path());
    }
    EXPECT_EQ(after, before);
    EXPECT_EQ(after.size(), 3u);  // seg-000001, seg-000002, wal
  }
}

// ----------------------------------------- end-to-end diagnosis identity --

struct StudyFixture {
  t::Network sim_net;
  t::Network rca_net;
  sim::StudyOutput study;

  StudyFixture() {
    t::TopoParams tp;
    tp.pops = 4;
    tp.pers_per_pop = 3;
    tp.customers_per_per = 5;
    sim_net = t::generate_isp(tp);
    rca_net = t::build_network_from_configs(
        t::render_all_configs(sim_net), t::render_layer1_inventory(sim_net));
    sim::BgpStudyParams params;
    params.days = 2;
    params.target_symptoms = 100;
    params.noise = 0.3;
    study = sim::run_bgp_study(sim_net, params);
  }
};

/// Every field of a diagnosis that the paper's result browser surfaces,
/// rendered to a string — pointer-free, so fingerprints compare across
/// backends.
std::string fingerprint(const core::Diagnosis& d) {
  std::ostringstream out;
  auto instance = [&](const core::EventInstance* e) {
    out << e->name << "@" << e->when.start << "-" << e->when.end << "@"
        << e->where.key();
    for (const auto& [k, v] : e->attrs) out << ";" << k << "=" << v;
    out << "|";
  };
  out << d.symptom.where.key() << "@" << d.symptom.when.start << " -> "
      << d.primary() << "\n";
  for (const core::EvidenceNode& n : d.evidence) {
    out << "  " << n.event << " p" << n.priority << " d" << n.depth << ": ";
    for (const core::EventInstance* e : n.instances) instance(e);
    out << "\n";
  }
  for (const core::RootCause& c : d.causes) {
    out << "  cause " << c.event << " p" << c.priority << ": ";
    for (const core::EventInstance* e : c.instances) instance(e);
    out << "\n";
  }
  return out.str();
}

// The acceptance gate: diagnosing against a reopened persistent store
// yields byte-identical verdicts (same diagnoses, same order, same
// evidence) as a fresh extraction run over the same corpus.
TEST(PersistentStore, DiagnosisByteIdenticalAcrossBackends) {
  StudyFixture f;
  apps::Pipeline fresh(f.rca_net, f.study.records);
  auto batch = fresh.diagnose_all(apps::bgp::build_graph(), 1);
  ASSERT_GT(batch.size(), 20u);

  util::TimeSec watermark = 0;
  for (const std::string& name : fresh.store().event_names()) {
    for (const core::EventInstance& e : fresh.store().all(name)) {
      watermark = std::max(watermark, e.when.start + 1);
    }
  }
  TempDir dir("diag");
  write_sealed_store(dir.path, fresh.store(), watermark);

  auto disk = std::make_shared<PersistentEventStore>(
      PersistentEventStore::open(dir.path));
  EXPECT_EQ(disk->stats().sealed_segments, 1u);
  EXPECT_EQ(disk->total_instances(), fresh.store().total_instances());
  apps::Pipeline loaded(f.rca_net, f.study.records, disk);
  // Threaded diagnosis also covers the mmap'd store's warm() -> read-only
  // query contract (the TSan job runs this test).
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto replayed = loaded.diagnose_all(apps::bgp::build_graph(), threads);
    ASSERT_EQ(replayed.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i].symptom, replayed[i].symptom) << "diagnosis " << i;
      ASSERT_EQ(fingerprint(batch[i]), fingerprint(replayed[i]))
          << "diagnosis " << i;
    }
  }
}

// ------------------------------------------------ streaming kill+resume --

std::string verdict_key(const core::Diagnosis& d) {
  return d.symptom.where.key() + "@" + std::to_string(d.symptom.when.start);
}

// Kill a persisted streaming engine mid-stream, start a fresh one on the
// same directory, re-feed the stream: the resumed run emits exactly the
// diagnoses the killed run never got to, with the same verdicts as an
// uninterrupted run, and no duplicates.
TEST(Streaming, KillAndResumeCompletesWithoutDuplicates) {
  StudyFixture f;
  apps::StreamingOptions options;
  options.freeze_horizon = 900;
  options.settle = 400;
  options.extract.flap_pair_window = 600;

  auto run_ticks = [&](apps::StreamingRca& stream,
                       std::vector<core::Diagnosis>& out,
                       util::TimeSec stop_at) {
    util::TimeSec next_tick = f.study.records.front().true_utc;
    for (const telemetry::RawRecord& r : f.study.records) {
      while (r.true_utc >= next_tick && next_tick <= stop_at) {
        for (auto& d : stream.advance(next_tick)) out.push_back(std::move(d));
        next_tick += 300;
      }
      if (r.true_utc > stop_at) return;
      stream.ingest(r);
    }
  };
  const util::TimeSec no_stop = std::numeric_limits<util::TimeSec>::max();

  // Uninterrupted reference.
  std::map<std::string, std::string> reference;
  {
    apps::StreamingRca stream(f.rca_net, apps::bgp::build_graph(), options);
    std::vector<core::Diagnosis> all;
    run_ticks(stream, all, no_stop);
    for (auto& d : stream.drain()) all.push_back(std::move(d));
    for (const core::Diagnosis& d : all) reference[verdict_key(d)] = d.primary();
    ASSERT_GT(reference.size(), 20u);
  }

  TempDir dir("resume");
  options.persist_dir = dir.path;
  options.persist_seal_every = 300;  // seal on every tick: exact resume point

  // First incarnation: killed (destroyed without drain) mid-stream.
  std::vector<core::Diagnosis> before_kill;
  util::TimeSec kill_at = f.study.records.front().true_utc + 24 * 3600;
  {
    apps::StreamingRca stream(f.rca_net, apps::bgp::build_graph(), options);
    EXPECT_FALSE(stream.resumed_from().has_value());
    run_ticks(stream, before_kill, kill_at);
    ASSERT_GT(stream.diagnosed(), 0u) << "kill point too early to be a test";
  }

  // Second incarnation: resumes from the sealed log, re-fed from the top.
  std::vector<core::Diagnosis> after_resume;
  {
    apps::StreamingRca stream(f.rca_net, apps::bgp::build_graph(), options);
    ASSERT_TRUE(stream.resumed_from().has_value());
    run_ticks(stream, after_resume, no_stop);
    for (auto& d : stream.drain()) after_resume.push_back(std::move(d));
  }

  std::map<std::string, std::string> merged;
  for (const core::Diagnosis& d : before_kill) {
    ASSERT_TRUE(merged.emplace(verdict_key(d), d.primary()).second);
  }
  for (const core::Diagnosis& d : after_resume) {
    ASSERT_TRUE(merged.emplace(verdict_key(d), d.primary()).second)
        << "resumed run re-diagnosed " << verdict_key(d);
  }
  EXPECT_FALSE(before_kill.empty());
  EXPECT_FALSE(after_resume.empty());
  ASSERT_EQ(merged.size(), reference.size());
  for (const auto& [key, primary] : reference) {
    auto it = merged.find(key);
    ASSERT_NE(it, merged.end()) << "symptom lost across the kill: " << key;
    EXPECT_EQ(it->second, primary) << key;
  }

  // The log left behind is intact and verifiable.
  EXPECT_TRUE(verify_store(dir.path).ok());
}

}  // namespace
}  // namespace grca::storage
