// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the parallel diagnosis paths: RcaEngine::diagnose_all fan-out,
// the EventStore freeze-then-query contract and the streaming worker stage.
// The determinism tests assert the parallel runs are *identical* to serial —
// same diagnoses, same instance pointers, same order. The TSan CI job runs
// this binary to prove the concurrent paths race-free.

#include <gtest/gtest.h>

#include <thread>

#include "apps/bgp_flap_app.h"
#include "apps/streaming.h"
#include "core/engine.h"
#include "core/rule_dsl.h"
#include "routing/bgp.h"
#include "routing/ospf.h"
#include "simulation/workloads.h"
#include "topology/config.h"
#include "topology/topo_gen.h"
#include "util/rng.h"

namespace grca {
namespace {

namespace t = topology;

/// A seeded store of interface flaps plus matching ebgp-flap symptoms,
/// mirroring the engine_scaling bench scenario.
struct SeededScenario {
  t::Network net;
  routing::OspfSim ospf;
  routing::BgpSim bgp;
  core::LocationMapper mapper;
  core::EventStore store;

  explicit SeededScenario(std::size_t flaps = 20000)
      : net(t::generate_isp(t::TopoParams{})),
        ospf(net),
        bgp(ospf),
        mapper(net, ospf, bgp) {
    util::Rng rng(99);
    util::TimeSec start = util::make_utc(2010, 1, 1);
    util::TimeSec span = 30 * util::kDay;
    for (std::size_t i = 0; i < flaps; ++i) {
      const t::CustomerSite& c =
          net.customers()[rng.below(net.customers().size())];
      const t::Interface& port = net.interface(c.attachment);
      util::TimeSec at = start + rng.range(0, span);
      store.add(core::EventInstance{
          "interface-flap",
          {at, at + rng.range(2, 12)},
          core::Location::interface(net.router(port.router).name, port.name),
          {}});
      if (i % 50 == 0) {
        store.add(core::EventInstance{
            "ebgp-flap",
            {at + 2, at + rng.range(20, 60)},
            core::Location::router_neighbor(net.router(port.router).name,
                                            c.neighbor_ip.to_string()),
            {}});
      }
    }
  }

  core::DiagnosisGraph graph() const {
    core::DiagnosisGraph g;
    core::load_dsl(R"(
event ebgp-flap {
  location router-neighbor
}
event interface-flap {
  location interface
}
rule ebgp-flap -> interface-flap {
  priority 180
  symptom start-start 185 5
  diagnostic start-end 5 15
  join interface
}
graph {
  root ebgp-flap
}
)",
                   g);
    return g;
  }
};

void expect_identical(const std::vector<core::Diagnosis>& serial,
                      const std::vector<core::Diagnosis>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const core::Diagnosis& s = serial[i];
    const core::Diagnosis& p = parallel[i];
    EXPECT_EQ(s.symptom, p.symptom) << "symptom " << i;
    ASSERT_EQ(s.evidence.size(), p.evidence.size()) << "symptom " << i;
    for (std::size_t j = 0; j < s.evidence.size(); ++j) {
      EXPECT_EQ(s.evidence[j].event, p.evidence[j].event);
      EXPECT_EQ(s.evidence[j].instances, p.evidence[j].instances)
          << "same store => identical instance pointers, symptom " << i;
      EXPECT_EQ(s.evidence[j].priority, p.evidence[j].priority);
      EXPECT_EQ(s.evidence[j].depth, p.evidence[j].depth);
    }
    ASSERT_EQ(s.causes.size(), p.causes.size()) << "symptom " << i;
    for (std::size_t j = 0; j < s.causes.size(); ++j) {
      EXPECT_EQ(s.causes[j].event, p.causes[j].event);
      EXPECT_EQ(s.causes[j].priority, p.causes[j].priority);
      EXPECT_EQ(s.causes[j].instances, p.causes[j].instances);
    }
    EXPECT_EQ(s.primary(), p.primary());
  }
}

TEST(ParallelEngine, EightThreadsIdenticalToSerial) {
  SeededScenario scenario;
  core::RcaEngine engine(scenario.graph(), scenario.store, scenario.mapper);
  auto serial = engine.diagnose_all(1);
  auto parallel = engine.diagnose_all(8);
  ASSERT_GT(serial.size(), 100u);  // the scenario actually exercises fan-out
  expect_identical(serial, parallel);
}

TEST(ParallelEngine, ZeroMeansHardwareConcurrency) {
  SeededScenario scenario(2000);
  core::RcaEngine engine(scenario.graph(), scenario.store, scenario.mapper);
  expect_identical(engine.diagnose_all(1), engine.diagnose_all(0));
}

TEST(ParallelEngine, ConcurrentDiagnoseOnWarmStore) {
  SeededScenario scenario(2000);
  core::RcaEngine engine(scenario.graph(), scenario.store, scenario.mapper);
  scenario.store.warm();
  auto symptoms = scenario.store.all("ebgp-flap");
  ASSERT_FALSE(symptoms.empty());
  // Hammer the same symptoms from several threads directly (no pool), to
  // exercise the shared SPF cache and read-only store under TSan.
  std::vector<std::thread> threads;
  std::vector<std::string> primaries(4);
  for (std::size_t th = 0; th < primaries.size(); ++th) {
    threads.emplace_back([&, th] {
      std::string last;
      for (const core::EventInstance& s :
           symptoms.subspan(0, std::min<std::size_t>(symptoms.size(), 50))) {
        last = engine.diagnose(s).primary();
      }
      primaries[th] = last;
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t th = 1; th < primaries.size(); ++th) {
    EXPECT_EQ(primaries[th], primaries[0]);
  }
}

TEST(EventStoreFreeze, AddAfterFinalizeThrows) {
  core::EventStore store;
  store.add(core::EventInstance{
      "ebgp-flap", {10, 20}, core::Location::router("r1"), {}});
  EXPECT_FALSE(store.finalized());
  store.finalize();
  EXPECT_TRUE(store.finalized());
  EXPECT_THROW(store.add(core::EventInstance{
                   "ebgp-flap", {30, 40}, core::Location::router("r1"), {}}),
               ConfigError);
  // Queries still work on the frozen store.
  EXPECT_EQ(store.query("ebgp-flap", 0, 100).size(), 1u);
}

TEST(EventStoreFreeze, WarmMakesQueriesReadOnly) {
  core::EventStore store;
  for (int i = 100; i > 0; --i) {
    store.add(core::EventInstance{"flap",
                                  {i * 10, i * 10 + 5},
                                  core::Location::router("r1"),
                                  {}});
  }
  store.warm();
  // Concurrent queries after warm(): safe (TSan verifies) and consistent.
  std::vector<std::thread> threads;
  std::vector<std::size_t> counts(4);
  for (std::size_t th = 0; th < counts.size(); ++th) {
    threads.emplace_back(
        [&, th] { counts[th] = store.query("flap", 0, 2000).size(); });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t count : counts) EXPECT_EQ(count, 100u);
}

/// Streaming fixture: the same BGP study both serial and with workers.
struct StreamScenario {
  t::Network sim_net;
  t::Network rca_net;
  sim::StudyOutput study;

  StreamScenario() {
    t::TopoParams tp;
    tp.pops = 3;
    tp.pers_per_pop = 3;
    tp.customers_per_per = 4;
    sim_net = t::generate_isp(tp);
    rca_net = t::build_network_from_configs(
        t::render_all_configs(sim_net), t::render_layer1_inventory(sim_net));
    sim::BgpStudyParams params;
    params.days = 2;
    params.target_symptoms = 80;
    study = sim::run_bgp_study(sim_net, params);
  }

  std::vector<core::Diagnosis> run(unsigned workers) const {
    apps::StreamingOptions options;
    options.freeze_horizon = 900;
    options.settle = 400;
    options.extract.flap_pair_window = 600;
    options.workers = workers;
    apps::StreamingRca stream(rca_net, apps::bgp::build_graph(), options);
    std::vector<core::Diagnosis> out;
    util::TimeSec next_tick = study.records.front().true_utc;
    for (const telemetry::RawRecord& r : study.records) {
      while (r.true_utc >= next_tick) {
        for (auto& d : stream.advance(next_tick)) out.push_back(std::move(d));
        next_tick += 300;
      }
      stream.ingest(r);
    }
    for (auto& d : stream.drain()) out.push_back(std::move(d));
    return out;
  }
};

TEST(ParallelStreaming, WorkerStageIdenticalToSerial) {
  StreamScenario scenario;
  auto serial = scenario.run(1);
  auto parallel = scenario.run(4);
  ASSERT_GT(serial.size(), 10u);
  ASSERT_EQ(serial.size(), parallel.size());
  // Separate StreamingRca instances own separate stores, so compare by
  // value (symptom identity, verdict, evidence shape), in order.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].symptom, parallel[i].symptom) << "diagnosis " << i;
    EXPECT_EQ(serial[i].primary(), parallel[i].primary()) << "diagnosis " << i;
    ASSERT_EQ(serial[i].evidence.size(), parallel[i].evidence.size());
    for (std::size_t j = 0; j < serial[i].evidence.size(); ++j) {
      EXPECT_EQ(serial[i].evidence[j].event, parallel[i].evidence[j].event);
      EXPECT_EQ(serial[i].evidence[j].instances.size(),
                parallel[i].evidence[j].instances.size());
    }
  }
}

}  // namespace
}  // namespace grca
