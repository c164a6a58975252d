// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the sharded multi-process diagnosis subsystem: FNV-1a vectors,
// wire-frame and codec round-trips (corruption rejection included),
// partition determinism and the inclusion invariant, byte-identity of
// sharded runs against single-process diagnosis, worker-failure reporting
// and the --retry-failed deterministic re-merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bgp_flap_app.h"
#include "apps/pipeline.h"
#include "shard/coordinator.h"
#include "shard/partition.h"
#include "shard/slice.h"
#include "shard/wire.h"
#include "shard/worker.h"
#include "simulation/archive.h"
#include "simulation/workloads.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "topology/config.h"
#include "topology/topo_gen.h"
#include "util/error.h"

namespace grca::shard {
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
           ("grca-shard-test-" + std::string(info->test_suite_name()) + "-" +
            std::string(info->name()) + "-" + tag);
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Every field of a diagnosis the result browser surfaces, rendered to a
/// pointer-free string — fingerprints compare across process boundaries.
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

std::vector<std::string> fingerprints(
    const std::vector<core::Diagnosis>& diagnoses) {
  std::vector<std::string> out;
  out.reserve(diagnoses.size());
  for (const core::Diagnosis& d : diagnoses) out.push_back(fingerprint(d));
  return out;
}

/// A small BGP study corpus written to disk plus its sealed store — the
/// exact inputs `grca shard` takes — and the single-process reference
/// diagnosis over the reopened store.
struct ShardFixture {
  t::Network sim_net;
  t::Network rca_net;
  sim::StudyOutput study;
  fs::path data_dir;
  fs::path store_dir;
  std::vector<std::string> reference;  // single-process fingerprints

  explicit ShardFixture(const TempDir& tmp) {
    t::TopoParams tp;
    tp.pops = 4;
    tp.pers_per_pop = 3;
    tp.customers_per_per = 5;
    sim_net = t::generate_isp(tp);
    rca_net = t::build_network_from_configs(
        t::render_all_configs(sim_net), t::render_layer1_inventory(sim_net));
    sim::BgpStudyParams params;
    params.days = 2;
    params.target_symptoms = 80;
    params.noise = 0.3;
    study = sim::run_bgp_study(sim_net, params);

    data_dir = tmp.path / "data";
    store_dir = tmp.path / "store";
    sim::write_corpus(data_dir, sim_net, study.records, study.truth);

    apps::Pipeline fresh(rca_net, study.records);
    util::TimeSec watermark = 0;
    for (const std::string& name : fresh.store().event_names()) {
      for (const core::EventInstance& e : fresh.store().all(name)) {
        watermark = std::max(watermark, e.when.start + 1);
      }
    }
    storage::write_sealed_store(store_dir, fresh.store(), watermark);

    auto store = std::make_shared<storage::PersistentEventStore>(
        storage::PersistentEventStore::open(store_dir));
    apps::Pipeline persisted(rca_net, study.records, store);
    reference =
        fingerprints(persisted.diagnose_all(apps::bgp::build_graph(), 1));
  }

  ShardOptions options(std::uint32_t workers) const {
    ShardOptions o;
    o.study = "bgp";
    o.data_dir = data_dir;
    o.store_dir = store_dir;
    o.workers = workers;
    o.fork_workers = true;  // the test binary is not `grca`
    return o;
  }
};

// ---- fnv1a ----------------------------------------------------------------

TEST(Fnv1a, KnownVectors) {
  // Reference vectors from the FNV specification (64-bit FNV-1a).
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// ---- wire frames ----------------------------------------------------------

TEST(Wire, FrameRoundTripInArbitraryChunks) {
  WorkerReport report;
  report.worker_index = 3;
  report.symptoms = 41;
  report.store_events = 1234;
  report.load_seconds = 0.5;
  report.diagnose_seconds = 2.25;
  std::vector<std::uint8_t> payload = encode_status(report);

  // Assemble the on-wire bytes via a pipe-free path: write to a pipe and
  // read it back through the chunked FrameBuffer in 3-byte slices.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  write_frame(fds[1], payload);
  write_frame(fds[1], payload);
  ::close(fds[1]);
  std::vector<std::uint8_t> wire;
  std::uint8_t byte;
  while (::read(fds[0], &byte, 1) == 1) wire.push_back(byte);
  ::close(fds[0]);

  FrameBuffer buffer;
  std::vector<Frame> frames;
  for (std::size_t at = 0; at < wire.size(); at += 3) {
    buffer.feed(wire.data() + at, std::min<std::size_t>(3, wire.size() - at));
    while (auto frame = buffer.next()) frames.push_back(std::move(*frame));
  }
  EXPECT_TRUE(buffer.drained());
  ASSERT_EQ(frames.size(), 2u);
  for (const Frame& f : frames) {
    EXPECT_EQ(f.type, FrameType::kStatus);
    WorkerReport back = decode_status(f.payload);
    EXPECT_EQ(back.worker_index, 3u);
    EXPECT_EQ(back.symptoms, 41u);
    EXPECT_EQ(back.store_events, 1234u);
    EXPECT_DOUBLE_EQ(back.load_seconds, 0.5);
    EXPECT_DOUBLE_EQ(back.diagnose_seconds, 2.25);
  }
}

TEST(Wire, CorruptFrameRejected) {
  std::vector<std::uint8_t> payload = encode_error(7, "boom");
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  write_frame(fds[1], payload);
  ::close(fds[1]);
  std::vector<std::uint8_t> wire;
  std::uint8_t byte;
  while (::read(fds[0], &byte, 1) == 1) wire.push_back(byte);
  ::close(fds[0]);

  wire[wire.size() - 1] ^= 0x40;  // flip one payload bit
  FrameBuffer buffer;
  EXPECT_THROW(
      {
        buffer.feed(wire.data(), wire.size());
        buffer.next();
      },
      StorageError);
}

TEST(Wire, HandshakeRoundTrip) {
  Handshake h;
  h.study = "bgp";
  h.data_dir = "/tmp/data";
  h.store_dir = "/tmp/store";
  h.worker_index = 2;
  h.worker_count = 8;
  h.threads = 4;
  h.attempt = 1;
  h.fail_after_results = 17;
  h.extra_dsl = "event x at router\n";
  h.symptom_seqs = {0, 5, 6, 300};

  const std::vector<std::uint8_t> wire = encode_handshake(h);
  Handshake back = decode_handshake(wire);
  EXPECT_EQ(back.study, h.study);
  EXPECT_EQ(back.data_dir, h.data_dir);
  EXPECT_EQ(back.store_dir, h.store_dir);
  EXPECT_EQ(back.worker_index, 2u);
  EXPECT_EQ(back.worker_count, 8u);
  EXPECT_EQ(back.threads, 4u);
  EXPECT_EQ(back.attempt, 1u);
  EXPECT_EQ(back.fail_after_results, 17u);
  EXPECT_EQ(back.extra_dsl, h.extra_dsl);
  EXPECT_EQ(back.symptom_seqs, h.symptom_seqs);

  // Every decode is bounds-checked: truncations and trailing bytes throw,
  // and a handshake from another protocol version is refused.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(decode_handshake(std::span<const std::uint8_t>(
                     wire.data(), len)),
                 StorageError)
        << "prefix of " << len << " bytes decoded";
  }
  std::vector<std::uint8_t> longer = wire;
  longer.push_back(0);
  EXPECT_THROW(decode_handshake(longer), StorageError);
  Handshake old = h;
  old.version = kProtocolVersion - 1;
  EXPECT_THROW(decode_handshake(encode_handshake(old)), StorageError);
}

TEST(Wire, ResultRoundTripPreservesInstanceSharing) {
  // Two evidence nodes referencing the SAME instance must decode to two
  // pointers into the same arena slot — the dedup arena is what keeps
  // result frames linear in distinct instances.
  core::EventInstance shared;
  shared.name = "link-down";
  shared.when = {100, 160};
  shared.where = core::Location::logical_link("r1--r2");
  shared.attrs = {{"reason", "fiber"}};
  core::EventInstance other;
  other.name = "ebgp-down";
  other.when = {110, 150};
  other.where = core::Location::router_neighbor("r1", "n1");

  core::Diagnosis d;
  d.symptom = other;
  d.elapsed_ms = 1.5;
  core::EvidenceNode n1;
  n1.event = "link-down";
  n1.priority = 3;
  n1.depth = 1;
  n1.instances = {&shared};
  core::EvidenceNode n2;
  n2.event = "link-down-again";
  n2.priority = 2;
  n2.depth = 2;
  n2.instances = {&shared, &other};
  d.evidence = {n1, n2};
  d.evidence_index = {n1.event, n2.event};
  core::RootCause cause;
  cause.event = "link-down";
  cause.priority = 3;
  cause.instances = {&shared};
  d.causes = {cause};

  std::deque<std::vector<core::EventInstance>> arenas;
  DecodedResult r = decode_result(encode_result(42, d), arenas);
  EXPECT_EQ(r.seq, 42u);
  EXPECT_EQ(fingerprint(r.diagnosis), fingerprint(d));
  EXPECT_DOUBLE_EQ(r.diagnosis.elapsed_ms, 1.5);
  ASSERT_EQ(arenas.size(), 1u);
  EXPECT_EQ(arenas.back().size(), 2u);  // deduplicated: 2 distinct instances
  EXPECT_EQ(r.diagnosis.evidence[0].instances[0],
            r.diagnosis.evidence[1].instances[0]);
}

// ---- partition ------------------------------------------------------------

struct PartitionFixture {
  TempDir tmp{"partition"};
  ShardFixture f{tmp};
  std::shared_ptr<storage::PersistentEventStore> store;
  std::unique_ptr<apps::Pipeline> pipeline;

  PartitionFixture() {
    store = std::make_shared<storage::PersistentEventStore>(
        storage::PersistentEventStore::open(f.store_dir));
    pipeline = std::make_unique<apps::Pipeline>(f.rca_net, f.study.records,
                                                store);
  }
};

TEST(Partition, DeterministicCompleteAndInclusive) {
  PartitionFixture px;
  const std::string root = apps::bgp::build_graph().root();
  Partition a = partition_symptoms(px.pipeline->events(), root,
                                   px.pipeline->mapper(), 4);
  Partition b = partition_symptoms(px.pipeline->events(), root,
                                   px.pipeline->mapper(), 4);
  EXPECT_EQ(a.symptom_shard, b.symptom_shard);
  EXPECT_EQ(a.locations, b.locations);
  EXPECT_EQ(a.inclusion, b.inclusion);

  const auto symptoms = px.pipeline->events().all(root);
  ASSERT_EQ(a.symptom_shard.size(), symptoms.size());
  ASSERT_GT(symptoms.size(), 20u);

  // Every symptom lands on exactly one worker, seqs ascend per worker, and
  // the owning worker's inclusion mask admits the symptom's own location —
  // the minimum the worker needs to even find its assigned instance.
  std::vector<std::uint32_t> seen(a.symptom_shard.size(), 0);
  for (std::uint32_t w = 0; w < a.workers; ++w) {
    EXPECT_TRUE(std::is_sorted(a.shard_seqs[w].begin(), a.shard_seqs[w].end()));
    for (std::uint32_t seq : a.shard_seqs[w]) {
      ASSERT_LT(seq, seen.size());
      seen[seq] += 1;
      EXPECT_EQ(a.symptom_shard[seq], w);
      EXPECT_TRUE(a.included(w, symptoms[seq].where))
          << "worker " << w << " excludes its own symptom at "
          << symptoms[seq].where.key();
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](std::uint32_t c) { return c == 1; }));
  EXPECT_GE(a.skew(), 1.0);
}

TEST(Partition, ZeroWorkersThrows) {
  PartitionFixture px;
  EXPECT_THROW(partition_symptoms(px.pipeline->events(), "ebgp-flap",
                                  px.pipeline->mapper(), 0),
               ConfigError);
}

// ---- slices ---------------------------------------------------------------

TEST(Slice, SliceHoldsAssignedSymptomsInGlobalOrder) {
  PartitionFixture px;
  const std::string root = apps::bgp::build_graph().root();
  Partition partition = partition_symptoms(px.pipeline->events(), root,
                                           px.pipeline->mapper(), 4);
  fs::path dir = px.tmp.path / "slices";
  write_slices(px.pipeline->events(), partition, dir);

  const auto symptoms = px.pipeline->events().all(root);
  for (std::uint32_t w = 0; w < partition.workers; ++w) {
    if (partition.shard_seqs[w].empty()) {
      EXPECT_FALSE(fs::exists(slice_path(dir, w)));
      continue;
    }
    storage::PersistentEventStore slice =
        storage::PersistentEventStore::open(slice_path(dir, w));
    slice.warm();
    const auto local = slice.all(root);
    ASSERT_EQ(local.size(), partition.shard_seqs[w].size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      const core::EventInstance& global =
          symptoms[partition.shard_seqs[w][i]];
      EXPECT_EQ(local[i].name, global.name);
      EXPECT_EQ(local[i].when.start, global.when.start);
      EXPECT_EQ(local[i].where, global.where);
    }
  }
}

// ---- selected-symptom diagnosis -------------------------------------------

TEST(Engine, DiagnoseSelectedMatchesDiagnoseAll) {
  PartitionFixture px;
  auto all = px.pipeline->diagnose_all(apps::bgp::build_graph(), 1);
  std::vector<std::uint32_t> indices(all.size());
  std::iota(indices.begin(), indices.end(), 0u);
  auto selected =
      px.pipeline->diagnose_selected(apps::bgp::build_graph(), indices);
  ASSERT_EQ(selected.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(fingerprint(selected[i]), fingerprint(all[i]));
  }
  // Any subset in any order: result i is the diagnosis of indices[i].
  std::vector<std::uint32_t> odd_reversed;
  for (std::uint32_t i = 1; i < all.size(); i += 2) odd_reversed.push_back(i);
  std::reverse(odd_reversed.begin(), odd_reversed.end());
  auto subset = px.pipeline->diagnose_selected(apps::bgp::build_graph(),
                                               odd_reversed, 2);
  ASSERT_EQ(subset.size(), odd_reversed.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    EXPECT_EQ(fingerprint(subset[i]), fingerprint(all[odd_reversed[i]]));
  }
}

// ---- end-to-end sharded runs ----------------------------------------------

TEST(Shard, SliceModeByteIdenticalToSingleProcess) {
  TempDir tmp("slice-mode");
  ShardFixture f(tmp);
  ShardReport report = run_sharded(f.options(4));
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(fingerprints(report.diagnoses), f.reference);
  EXPECT_EQ(report.symptom_count, f.reference.size());
  for (const WorkerStatus& w : report.workers) {
    EXPECT_TRUE(w.ok);
    EXPECT_EQ(w.results, w.assigned);
  }
  // Default run cleans its slice scratch up.
  EXPECT_FALSE(fs::exists(fs::path(f.store_dir.string() + ".slices")));
}

TEST(Shard, SingleWorkerMatches) {
  TempDir tmp("single");
  ShardFixture f(tmp);
  ShardReport report = run_sharded(f.options(1));
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(fingerprints(report.diagnoses), f.reference);
}

TEST(Shard, WorkerFailureReportedWithPerWorkerStatus) {
  TempDir tmp("fail");
  ShardFixture f(tmp);
  ShardOptions o = f.options(4);
  // Fail the busiest worker so the death is mid-stream, not pre-stream.
  ShardReport probe = run_sharded(o);
  ASSERT_TRUE(probe.ok);
  std::uint32_t victim = 0;
  for (const WorkerStatus& w : probe.workers) {
    if (w.assigned > probe.workers[victim].assigned) victim = w.index;
  }
  ASSERT_GT(probe.workers[victim].assigned, 2u);

  o.test_fail_worker = victim;
  o.test_fail_after = 2;
  ShardReport report = run_sharded(o);
  EXPECT_FALSE(report.ok);
  const WorkerStatus& w = report.workers[victim];
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.exit_code, 42);
  EXPECT_EQ(w.results, 2u);
  EXPECT_FALSE(w.error.empty());
  // The survivors still completed and reported clean.
  for (const WorkerStatus& other : report.workers) {
    if (other.index != victim) EXPECT_TRUE(other.ok) << other.error;
  }
}

TEST(Shard, RetryFailedRemergesByteIdentically) {
  TempDir tmp("retry");
  ShardFixture f(tmp);
  ShardOptions o = f.options(4);
  ShardReport probe = run_sharded(o);
  ASSERT_TRUE(probe.ok);
  std::uint32_t victim = 0;
  for (const WorkerStatus& w : probe.workers) {
    if (w.assigned > probe.workers[victim].assigned) victim = w.index;
  }

  o.test_fail_worker = victim;
  o.test_fail_after = 2;
  o.retry_failed = true;
  ShardReport report = run_sharded(o);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.workers[victim].attempts, 2u);
  EXPECT_EQ(fingerprints(report.diagnoses), f.reference);
}

}  // namespace
}  // namespace grca::shard
