// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for streaming (real-time) RCA: batch-equivalence, bounded detection
// latency, late-record handling, and drain semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>

#include "apps/bgp_flap_app.h"
#include "apps/pipeline.h"
#include "apps/scoring.h"
#include "apps/streaming.h"
#include "obs/metrics.h"
#include "simulation/workloads.h"
#include "topology/config.h"
#include "topology/topo_gen.h"
#include "util/rng.h"

namespace grca::apps {
namespace {

namespace t = topology;

struct StreamFixture {
  t::Network sim_net;
  t::Network rca_net;
  sim::StudyOutput study;

  StreamFixture() {
    t::TopoParams tp;
    tp.pops = 4;
    tp.pers_per_pop = 3;
    tp.customers_per_per = 5;
    sim_net = t::generate_isp(tp);
    rca_net = t::build_network_from_configs(
        t::render_all_configs(sim_net), t::render_layer1_inventory(sim_net));
    sim::BgpStudyParams params;
    params.days = 3;
    params.target_symptoms = 150;
    params.noise = 0.3;
    study = sim::run_bgp_study(sim_net, params);
  }

  StreamingOptions stream_options() const {
    StreamingOptions options;
    options.freeze_horizon = 900;
    options.settle = 400;
    options.extract.flap_pair_window = 600;
    return options;
  }
};

TEST(Streaming, MatchesBatchDiagnoses) {
  StreamFixture f;
  // Batch reference (same shortened pairing window).
  collector::ExtractOptions extract;
  extract.flap_pair_window = 600;
  Pipeline pipeline(f.rca_net, f.study.records, extract);
  core::RcaEngine engine(bgp::build_graph(), pipeline.store(),
                         pipeline.mapper());
  auto batch = engine.diagnose_all();

  // Streaming run, ticking every 5 minutes of record time.
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  std::vector<core::Diagnosis> streamed;
  util::TimeSec next_tick = f.study.records.front().true_utc;
  for (const telemetry::RawRecord& r : f.study.records) {
    while (r.true_utc >= next_tick) {
      for (auto& d : stream.advance(next_tick)) streamed.push_back(std::move(d));
      next_tick += 300;
    }
    stream.ingest(r);
  }
  for (auto& d : stream.drain()) streamed.push_back(std::move(d));

  ASSERT_EQ(streamed.size(), batch.size());
  // Same verdict for every symptom (order may differ; match by key+time).
  std::map<std::string, std::string> batch_verdicts;
  for (const core::Diagnosis& d : batch) {
    batch_verdicts[d.symptom.where.key() + "@" +
                   std::to_string(d.symptom.when.start)] = d.primary();
  }
  std::size_t mismatches = 0;
  for (const core::Diagnosis& d : streamed) {
    auto it = batch_verdicts.find(d.symptom.where.key() + "@" +
                                  std::to_string(d.symptom.when.start));
    ASSERT_NE(it, batch_verdicts.end());
    mismatches += it->second != d.primary();
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Streaming, AccuracyMatchesGroundTruth) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  for (const telemetry::RawRecord& r : f.study.records) stream.ingest(r);
  auto diagnoses = stream.drain();
  Score score = score_diagnoses(diagnoses, f.study.truth,
                                bgp::canonical_cause);
  EXPECT_GE(score.accuracy(), 0.9) << score.confusion_table().render();
}

TEST(Streaming, DetectionLatencyBounded) {
  StreamFixture f;
  StreamingOptions options = f.stream_options();
  StreamingRca stream(f.rca_net, bgp::build_graph(), options);
  util::TimeSec max_latency = 0;
  util::TimeSec next_tick = f.study.records.front().true_utc;
  for (const telemetry::RawRecord& r : f.study.records) {
    while (r.true_utc >= next_tick) {
      for (const core::Diagnosis& d : stream.advance(next_tick)) {
        max_latency =
            std::max(max_latency, next_tick - d.symptom.when.start);
      }
      next_tick += 300;
    }
    stream.ingest(r);
  }
  EXPECT_GT(stream.diagnosed(), 0u);
  // Latency is bounded by horizon + settle + one tick.
  EXPECT_LE(max_latency, options.freeze_horizon + options.settle + 300 + 60);
}

TEST(Streaming, LateRecordsDroppedNotCrashed) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  const telemetry::RawRecord& first = f.study.records.front();
  stream.ingest(first);
  stream.advance(first.true_utc + 3 * util::kHour);
  // A record far behind the frozen cut must be counted, not applied.
  telemetry::RawRecord stale = first;
  stream.ingest(stale);
  EXPECT_EQ(stream.dropped_late(), 1u);
}

// The skew bound is inclusive: a record exactly max_skew behind the
// high-water mark is still accepted; one second older is dropped. (Before
// any advance() the frozen cut is still unset, so only the skew condition
// is in play.)
TEST(Streaming, SkewBoundaryExactlyAtMaxSkewIsKept) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  const telemetry::RawRecord& first = f.study.records.front();
  stream.ingest(first);  // high-water mark = this record's normalized utc

  // Shifting the raw timestamp shifts the normalized utc by the same amount
  // (the collector's timezone reconstruction is a fixed per-source offset).
  telemetry::RawRecord boundary = first;
  boundary.timestamp -= util::kHour;  // default max_skew
  stream.ingest(boundary);
  EXPECT_EQ(stream.dropped_late(), 0u);

  telemetry::RawRecord beyond = first;
  beyond.timestamp -= util::kHour + 1;
  stream.ingest(beyond);
  EXPECT_EQ(stream.dropped_late(), 1u);
}

// Late drops are attributed to the originating feed, both in the monitor's
// status and in the registry's labelled counter (satellite of the
// observability subsystem).
TEST(Streaming, LateDropsCountedPerSource) {
  StreamFixture f;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  const telemetry::RawRecord& first = f.study.records.front();
  stream.ingest(first);
  stream.advance(first.true_utc + 3 * util::kHour);
  telemetry::RawRecord stale = first;
  stream.ingest(stale);  // behind the frozen cut now

  EXPECT_EQ(stream.dropped_late(), 1u);
  EXPECT_EQ(stream.feed_health().total_late_drops(), 1u);
  bool found = false;
  for (const auto& s : stream.feed_health().status()) {
    if (s.source == first.source) {
      found = true;
      EXPECT_EQ(s.late_drops, 1u);
    }
  }
  EXPECT_TRUE(found);
  std::string series = "grca_feed_late_drops_total{source=\"" +
                       std::string(telemetry::to_string(first.source)) +
                       "\"}";
  EXPECT_EQ(registry.counter(series).value(), 1u);
}

TEST(Streaming, AdvanceBeforeDataIsEmpty) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  EXPECT_TRUE(stream.advance(util::make_utc(2010, 1, 1)).empty());
  EXPECT_TRUE(stream.drain().empty());
}

TEST(Streaming, RejectsInsufficientHorizon) {
  StreamFixture f;
  StreamingOptions options;
  options.freeze_horizon = 300;
  options.extract.flap_pair_window = 600;
  EXPECT_THROW(StreamingRca(f.rca_net, bgp::build_graph(), options),
               ConfigError);
}

TEST(Streaming, EachSymptomDiagnosedOnce) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  std::set<std::string> seen;
  util::TimeSec next_tick = f.study.records.front().true_utc;
  std::size_t duplicates = 0;
  for (const telemetry::RawRecord& r : f.study.records) {
    while (r.true_utc >= next_tick) {
      for (const core::Diagnosis& d : stream.advance(next_tick)) {
        duplicates += !seen
                           .insert(d.symptom.where.key() + "@" +
                                   std::to_string(d.symptom.when.start))
                           .second;
      }
      next_tick += 300;
    }
    stream.ingest(r);
  }
  for (const core::Diagnosis& d : stream.drain()) {
    duplicates += !seen
                       .insert(d.symptom.where.key() + "@" +
                               std::to_string(d.symptom.when.start))
                       .second;
  }
  EXPECT_EQ(duplicates, 0u);
}

// ---- Extraction at tick boundaries -----------------------------------------
// The engine feeds every accepted record to one EventExtractor on arrival
// and releases events cut by cut. These drive the extractor the same way —
// records in a jittered arrival order, a tick every 300 s, a cut one
// horizon behind — and require the released events to equal batch
// extraction over the same records, name by name and in store order.

using collector::NormalizedRecord;

constexpr util::TimeSec kT0 = 1'262'304'000;  // 2010-01-01 00:00 UTC
constexpr util::TimeSec kHorizon = 900;
constexpr util::TimeSec kTick = 300;

/// The k-th freeze cut of a stream whose first tick is at kT0.
constexpr util::TimeSec cut_at(int k) { return kT0 + k * kTick - kHorizon; }

NormalizedRecord syslog_record(const std::string& router, util::TimeSec t,
                               std::string body) {
  NormalizedRecord r;
  r.source = telemetry::SourceType::kSyslog;
  r.utc = t;
  r.router = router;
  r.body = std::move(body);
  return r;
}

NormalizedRecord link_updown(const std::string& router,
                             const std::string& iface, util::TimeSec t,
                             bool up) {
  return syslog_record(router, t,
                       "%LINK-3-UPDOWN: Interface " + iface +
                           ", changed state to " + (up ? "up" : "down"));
}

NormalizedRecord ospf_metric(const t::Network& net, t::InterfaceId iface,
                             util::TimeSec t, int metric) {
  NormalizedRecord r;
  r.source = telemetry::SourceType::kOspfMon;
  r.utc = t;
  const t::Interface& ifc = net.interface(iface);
  r.router = net.router(ifc.router).name;
  r.interface = ifc.name;
  r.value = metric;
  return r;
}

NormalizedRecord announce(const std::string& egress,
                          const std::string& nexthop, util::TimeSec t) {
  NormalizedRecord r;
  r.source = telemetry::SourceType::kBgpMon;
  r.utc = t;
  r.body = "announce";
  r.attrs["egress"] = egress;
  r.attrs["nexthop"] = nexthop;
  return r;
}

using EventsByName = std::map<std::string, std::vector<std::string>>;

std::string render(const core::EventInstance& e) {
  std::string out = std::to_string(e.when.start) + ".." +
                    std::to_string(e.when.end) + " " + e.where.key();
  for (const auto& [k, v] : e.attrs) out += " " + k + "=" + v;
  return out;
}

EventsByName batch_events(const t::Network& net,
                          std::vector<NormalizedRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const NormalizedRecord& a, const NormalizedRecord& b) {
                     return a.utc < b.utc;
                   });
  core::EventStore store;
  collector::EventExtractor(net).extract(records, store);
  EventsByName out;
  for (const std::string& name : store.event_names()) {
    for (const core::EventInstance& e : store.all(name)) {
      out[name].push_back(render(e));
    }
  }
  return out;
}

/// Streams `records` through one extractor: arrival = utc + up to 60 s of
/// seeded jitter, a tick whenever arrivals pass the next tick time. With
/// `open_state`, records the extractor's open-state size after each tick,
/// keyed by the cut.
EventsByName streamed_events(
    const t::Network& net, std::vector<NormalizedRecord> records,
    std::map<util::TimeSec, std::size_t>* open_state = nullptr) {
  util::Rng rng(11);
  std::vector<std::pair<util::TimeSec, std::size_t>> arrivals;
  for (std::size_t i = 0; i < records.size(); ++i) {
    arrivals.emplace_back(records[i].utc + rng.range(0, 60), i);
  }
  std::stable_sort(arrivals.begin(), arrivals.end());
  collector::EventExtractor extractor(net);
  EventsByName out;
  std::vector<core::EventInstance> released;
  auto advance = [&](util::TimeSec cut) {
    released.clear();
    extractor.advance(cut, released);
    for (const core::EventInstance& e : released) {
      out[e.name].push_back(render(e));
    }
    if (open_state) (*open_state)[cut] = extractor.open_state();
  };
  util::TimeSec next_tick = kT0;
  for (const auto& [arrival, index] : arrivals) {
    while (arrival >= next_tick) {
      advance(next_tick - kHorizon);
      next_tick += kTick;
    }
    extractor.feed(records[index]);
  }
  advance(std::numeric_limits<util::TimeSec>::max());  // drain
  return out;
}

/// Filler so ticks keep coming: one CPU reading every 100 s.
void add_filler(std::vector<NormalizedRecord>& records, util::TimeSec until) {
  for (util::TimeSec t = kT0; t < until; t += 100) {
    NormalizedRecord r;
    r.source = telemetry::SourceType::kSnmp;
    r.utc = t;
    r.router = "filler";
    r.field = "cpu5min";
    r.value = (t / 100) % 7 == 0 ? 95.0 : 10.0;  // some cpu-high-avg
    records.push_back(std::move(r));
  }
}

t::Network small_network() {
  t::TopoParams tp;
  tp.pops = 4;
  tp.pers_per_pop = 3;
  tp.customers_per_per = 5;
  return t::generate_isp(tp);
}

TEST(StreamingExtraction, FlapStraddlingFreezeCutMatchesBatch) {
  t::Network net = small_network();
  std::vector<NormalizedRecord> records;
  add_filler(records, kT0 + 6 * util::kHour);
  const util::TimeSec cut = cut_at(10);
  // Down just before a cut, up just after it: the flap starts before the
  // cut, so it is released by the lookahead at that cut.
  records.push_back(link_updown("r1", "so-0/0/0", cut - 10, false));
  records.push_back(link_updown("r1", "so-0/0/0", cut + 50, true));
  // A second down after the cut re-arms the pairing: only the later
  // down..up is a flap.
  records.push_back(link_updown("r2", "so-0/0/1", cut_at(14) - 5, false));
  records.push_back(link_updown("r2", "so-0/0/1", cut_at(14) + 20, false));
  records.push_back(link_updown("r2", "so-0/0/1", cut_at(14) + 40, true));
  // Same second on both sides of an exact cut time, and an up that comes
  // too late to pair (the down persisted past the pairing window).
  records.push_back(link_updown("r3", "so-0/0/2", cut_at(18), false));
  records.push_back(link_updown("r3", "so-0/0/2", cut_at(18), true));
  records.push_back(link_updown("r4", "so-0/0/3", cut_at(20) - 1, false));
  records.push_back(link_updown("r4", "so-0/0/3", cut_at(20) + 3700, true));

  EventsByName batch = batch_events(net, records);
  ASSERT_EQ(batch["interface-flap"].size(), 3u);
  EXPECT_EQ(streamed_events(net, records), batch);
}

TEST(StreamingExtraction, RecordBeforeTheCutIsRejected) {
  t::Network net = small_network();
  collector::EventExtractor extractor(net);
  std::vector<core::EventInstance> released;
  extractor.feed(link_updown("r1", "so-0/0/0", kT0, false));
  extractor.advance(kT0 + 100, released);
  EXPECT_THROW(extractor.feed(link_updown("r1", "so-0/0/0", kT0 + 99, true)),
               StateError);
  EXPECT_THROW(extractor.advance(kT0 + 99, released), StateError);
  extractor.feed(link_updown("r1", "so-0/0/0", kT0 + 100, true));
}

TEST(StreamingExtraction, CostChangeAfterLongQuietMatchesBatch) {
  t::Network net = small_network();
  // A router with several backbone links, and one link of another router.
  std::optional<t::RouterId> wide;
  for (const t::Router& router : net.routers()) {
    if (net.links_of_router(router.id).size() >= 3) {
      wide = router.id;
      break;
    }
  }
  ASSERT_TRUE(wide.has_value());
  std::vector<t::InterfaceId> wide_ifaces;
  for (t::InterfaceId i : net.router(*wide).interfaces) {
    if (net.interface(i).kind == t::InterfaceKind::kBackbone &&
        net.interface(i).link.valid()) {
      wide_ifaces.push_back(i);
    }
  }
  t::InterfaceId lone = wide_ifaces.front();
  for (const t::Interface& ifc : net.interfaces()) {
    if (ifc.kind == t::InterfaceKind::kBackbone && ifc.link.valid() &&
        ifc.router != *wide &&
        net.link_peer(ifc.link, ifc.router) != *wide) {
      lone = ifc.id;
      break;
    }
  }

  std::vector<NormalizedRecord> records;
  add_filler(records, kT0 + 8 * util::kHour);
  // The link is costed out, then back in 10,000 s later — its previous
  // metric is far older than any fixed re-extraction context.
  records.push_back(ospf_metric(net, lone, kT0 + 100, 65535));
  records.push_back(ospf_metric(net, lone, kT0 + 10'100, 10));
  // Router-wide cost-out whose link changes straddle a cut: the group's
  // seed precedes the cut, its other members follow it.
  const util::TimeSec cut = cut_at(40);
  for (std::size_t i = 0; i < wide_ifaces.size(); ++i) {
    records.push_back(ospf_metric(net, wide_ifaces[i],
                                  cut - 5 + static_cast<util::TimeSec>(i),
                                  65535));
  }

  EventsByName batch = batch_events(net, records);
  ASSERT_EQ(batch["link-cost-inup"].size(), 1u);
  ASSERT_EQ(batch["router-cost-inout"].size(), 1u);
  EXPECT_EQ(streamed_events(net, records), batch);
}

TEST(StreamingExtraction, PrefixFloodSpanningTicksMatchesBatch) {
  t::Network net = small_network();
  std::vector<NormalizedRecord> records;
  add_filler(records, kT0 + 6 * util::kHour);
  // A leak: 120 announces 6 s apart, 714 s long, across several cuts.
  for (int i = 0; i < 120; ++i) {
    records.push_back(announce("r1", "10.0.0.1", cut_at(12) - 300 + 6 * i));
  }
  // Normal traffic: one announce per minute never floods.
  for (int i = 0; i < 200; ++i) {
    records.push_back(announce("r2", "10.0.0.2", kT0 + 60 * i));
  }
  // Exactly prefix_flood_count announces inside the window, straddling a
  // cut: a burst whose start is known before the cut but whose threshold
  // is reached only after it.
  for (int i = 0; i < 15; ++i) {
    records.push_back(announce("r3", "10.0.0.3", cut_at(30) - 70 + 8 * i));
  }

  EventsByName batch = batch_events(net, records);
  ASSERT_EQ(batch["bgp-prefix-flood"].size(), 2u);
  EXPECT_EQ(streamed_events(net, records), batch);
}

TEST(StreamingExtraction, OpenStateStaysBoundedOnLongStreams) {
  t::Network net = small_network();
  t::InterfaceId iface{};
  for (const t::Interface& ifc : net.interfaces()) {
    if (ifc.kind == t::InterfaceKind::kBackbone && ifc.link.valid()) {
      iface = ifc.id;
      break;
    }
  }
  // 20 days of the same daily pattern, on keys that are new every day:
  // hourly flaps on 10 interfaces, an unpaired down, a leak, steady
  // announces, and a cost-out/in every two hours.
  constexpr int kDays = 20;
  std::vector<NormalizedRecord> records;
  add_filler(records, kT0 + kDays * util::kDay);
  for (int day = 0; day < kDays; ++day) {
    const std::string d = std::to_string(day);
    for (int hour = 0; hour < 24; ++hour) {
      const util::TimeSec t = kT0 + day * util::kDay + hour * util::kHour;
      for (int k = 0; k < 10; ++k) {
        const std::string name = "ge-" + d + "/0/" + std::to_string(k);
        records.push_back(link_updown("r1", name, t + 60 * k, false));
        records.push_back(link_updown("r1", name, t + 60 * k + 30, true));
      }
      for (int i = 0; i < 6; ++i) {
        records.push_back(announce("r2", "10.0." + d + ".2", t + 600 * i));
      }
      if (hour % 2 == 0) {
        records.push_back(ospf_metric(net, iface, t + 7, 65535));
        records.push_back(ospf_metric(net, iface, t + 1807, 10));
      }
    }
    const util::TimeSec t = kT0 + day * util::kDay;
    records.push_back(link_updown("r9", "so-" + d + "/9/9", t + 5, false));
    for (int i = 0; i < 20; ++i) {
      records.push_back(announce("r3", "10.0." + d + ".3", t + 1000 + 5 * i));
    }
  }
  std::map<util::TimeSec, std::size_t> open_state;
  EventsByName streamed = streamed_events(net, records, &open_state);
  EXPECT_EQ(streamed["interface-flap"].size(), 10u * 24 * kDays);
  EXPECT_EQ(streamed["bgp-prefix-flood"].size(),
            static_cast<std::size_t>(kDays));
  // The open state holds what the horizon holds: no more on the last day
  // than on the first.
  auto day_max = [&](int day) {
    std::size_t most = 0;
    for (const auto& [cut, size] : open_state) {
      if (cut >= kT0 + day * util::kDay && cut < kT0 + (day + 1) * util::kDay) {
        most = std::max(most, size);
      }
    }
    return most;
  };
  EXPECT_GT(day_max(0), 0u);
  EXPECT_LE(day_max(kDays - 1), day_max(0));
}

}  // namespace
}  // namespace grca::apps
