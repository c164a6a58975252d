// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "apps/bgp_flap_app.h"
#include "apps/pim_app.h"
#include "apps/pipeline.h"
#include "apps/replay.h"
#include "apps/scoring.h"
#include "apps/streaming.h"
#include "obs/metrics.h"
#include "simulation/archive.h"
#include "simulation/workloads.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "telemetry/records_io.h"
#include "topology/config.h"
#include "topology/topo_gen.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace grca;
using Clock = std::chrono::steady_clock;
using Scope = Tracer::Scope;

// `grca replay` defaults: tick and the seeded arrival-skew model.
constexpr util::TimeSec kTick = 300;
constexpr util::TimeSec kSourceLag = 120;
constexpr util::TimeSec kRecordJitter = 60;
// Time spent after each batch pass re-timing its diagnose step, as a share
// of the pass wall.
constexpr double kRepeatShare = 0.3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct StudyHooks {
  core::DiagnosisGraph (*graph)();
  void (*browser)(core::ResultBrowser&);
  std::string (*canonical)(const std::string&);
};

StudyHooks hooks_for(std::string_view study) {
  if (study == "pim") {
    return {apps::pim::build_graph, apps::pim::configure_browser,
            apps::pim::canonical_cause};
  }
  return {apps::bgp::build_graph, apps::bgp::configure_browser,
          apps::bgp::canonical_cause};
}

/// The network as the RCA side rebuilds it: configs/ plus inventory.txt
/// (the front half of sim::read_corpus, without records.tsv).
topology::Network load_network(const fs::path& corpus) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(corpus / "configs")) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> configs;
  configs.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    configs.push_back(ss.str());
  }
  std::ifstream inv(corpus / "inventory.txt");
  if (!inv) throw std::runtime_error("corpus has no inventory.txt");
  std::stringstream ss;
  ss << inv.rdbuf();
  return topology::build_network_from_configs(configs, ss.str());
}

telemetry::RecordStream read_records(const fs::path& corpus) {
  std::ifstream in(corpus / "records.tsv");
  if (!in) throw std::runtime_error("corpus has no records.tsv");
  return telemetry::read_stream(in);
}

/// Counters the program already exports, read around a pass.
struct Registry {
  std::uint64_t rule_evals = 0;
  std::uint64_t evidence_matches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_entries = 0.0;
  double batch_seconds = 0.0;  // grca_streaming_batch_seconds sum
};

Registry read_registry() {
  Registry r;
  obs::MetricsRegistry* reg = obs::registry_ptr();
  if (reg == nullptr) return r;
  r.rule_evals = reg->counter("grca_engine_rule_evals_total").value();
  r.evidence_matches =
      reg->counter("grca_engine_evidence_matches_total").value();
  r.cache_hits = reg->counter("grca_join_cache_hits").value();
  r.cache_misses = reg->counter("grca_join_cache_misses").value();
  r.cache_entries = reg->gauge("grca_join_cache_entries").value();
  r.batch_seconds =
      reg->histogram("grca_streaming_batch_seconds").snapshot().sum;
  return r;
}

void add_engine_counts(const Registry& before, const Registry& after,
                       std::map<std::string, double>& counts) {
  const double lookups = static_cast<double>(
      (after.cache_hits - before.cache_hits) +
      (after.cache_misses - before.cache_misses));
  counts["core.engine.rule_evals"] =
      static_cast<double>(after.rule_evals - before.rule_evals);
  counts["core.engine.evidence_matches"] =
      static_cast<double>(after.evidence_matches - before.evidence_matches);
  counts["core.join_cache.lookups"] = lookups;
  counts["core.join_cache.hit_ratio"] =
      lookups > 0.0
          ? static_cast<double>(after.cache_hits - before.cache_hits) / lookups
          : 0.0;
  counts["core.join_cache.entries"] = after.cache_entries;
}

std::string verdict_line(const core::Diagnosis& d) {
  return d.symptom.where.key() + "@" + std::to_string(d.symptom.when.start) +
         " -> " + d.primary();
}

std::string fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& line : lines) {
    for (char c : line) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    h = (h ^ '\n') * 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Scores a pass's verdicts against the reference verdicts and the truth
/// labels. A symptom fails when it has no verdict, its verdict differs from
/// the reference, or its cause differs from its truth label.
class Checker {
 public:
  void set_reference(const std::vector<std::string>& reference,
                     std::vector<sim::TruthEntry> truth,
                     std::string (*canonical)(const std::string&)) {
    reference_.clear();
    for (const std::string& line : reference) ++reference_[line];
    attempted_ = reference.size();
    truth_ = std::move(truth);
    canonical_ = canonical;
  }

  Check check(const std::vector<core::Diagnosis>& verdicts) const {
    Check c;
    c.attempted = attempted_;
    std::map<std::string, std::size_t> expected = reference_;
    std::vector<core::Diagnosis> agreeing;  // verdicts the reference has
    std::vector<std::string> lines;
    std::size_t extra = 0;
    std::string first_extra;
    for (const core::Diagnosis& d : verdicts) {
      std::string line = verdict_line(d);
      auto it = expected.find(line);
      if (it != expected.end() && it->second > 0) {
        --it->second;
        agreeing.push_back(d);
      } else if (extra++ == 0) {
        first_extra = line;
      }
      lines.push_back(std::move(line));
    }
    std::size_t missing = 0;
    std::string first_missing;
    for (const auto& [line, left] : expected) {
      if (left > 0 && missing == 0) first_missing = line;
      missing += left;
    }
    c.mismatched = std::max(missing, extra);
    c.failed = c.attempted -
               apps::score_diagnoses(agreeing, truth_, canonical_).correct;
    c.truth_wrong =
        verdicts.size() -
        apps::score_diagnoses(verdicts, truth_, canonical_).correct;
    std::sort(lines.begin(), lines.end());
    c.fingerprint = fnv1a(lines);
    if (c.mismatched > 0) {
      c.problem = std::to_string(c.mismatched) +
                  " verdict(s) differ from the reference, first: " +
                  (missing > 0 ? "expected " + first_missing
                               : "unexpected " + first_extra);
    }
    return c;
  }

 private:
  std::map<std::string, std::size_t> reference_;  // verdict line -> count
  std::size_t attempted_ = 0;
  std::vector<sim::TruthEntry> truth_;
  std::string (*canonical_)(const std::string&) = nullptr;
};

/// Test hook behind Config::corrupt_verdict: a copy of the verdicts with
/// the first one's primary cause replaced.
std::vector<core::Diagnosis> corrupted(std::vector<core::Diagnosis> verdicts) {
  if (verdicts.empty()) return verdicts;
  std::vector<core::RootCause>& causes = verdicts.front().causes;
  if (causes.empty()) causes.emplace_back();
  causes.front().event = "corrupted-verdict";
  return verdicts;
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

fs::path reference_path(const fs::path& corpus, Kind kind) {
  return corpus / ("reference-" + std::string(name_of(kind)) + ".txt");
}

/// The verdict lines a workload's passes must reproduce: the production
/// Pipeline over the corpus, on the network rebuilt from its configs. The
/// layer path of batch-bgp must equal it; so must store-pim, whose store is
/// sealed from that Pipeline's in-memory store (v2 == in-memory); and
/// stream-bgp, against a Pipeline with the stream's extraction options
/// (streaming == batch).
std::vector<std::string> reference_lines(Kind kind, const fs::path& corpus) {
  const topology::Network net = load_network(corpus);
  const telemetry::RecordStream raw = read_records(corpus);
  collector::ExtractOptions extract;
  if (kind == Kind::kStreamBgp) extract = apps::StreamingOptions{}.extract;
  apps::Pipeline pipeline(net, raw, extract);
  std::vector<std::string> lines;
  for (const core::Diagnosis& d :
       pipeline.diagnose_all(hooks_for(study_of(kind)).graph(), 1)) {
    lines.push_back(verdict_line(d));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::vector<std::string> read_reference(const fs::path& corpus, Kind kind) {
  std::ifstream in(reference_path(corpus, kind));
  if (!in) {
    throw std::runtime_error("corpus has no " +
                             reference_path(corpus, kind).filename().string());
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Shared state of every workload: the network rebuilt from the corpus and
/// the study's diagnosis graph.
class StudyWorkload : public Workload {
 protected:
  explicit StudyWorkload(Config config)
      : config_(std::move(config)), hooks_(hooks_for(study_of(config_.kind))) {}

  void load_study() {
    net_ = std::make_unique<topology::Network>(load_network(config_.corpus));
    graph_ = hooks_.graph();
  }

  void load_reference() {
    checker_.set_reference(read_reference(config_.corpus, config_.kind),
                           sim::read_truth(config_.corpus), hooks_.canonical);
  }

  /// Runs the checks on the verdicts of one pass (after its timer).
  Check check(const std::vector<core::Diagnosis>& verdicts) {
    if (config_.corrupt_verdict && !corrupted_) {
      corrupted_ = true;
      return checker_.check(corrupted(verdicts));
    }
    return checker_.check(verdicts);
  }

  Config config_;
  StudyHooks hooks_;
  std::unique_ptr<topology::Network> net_;
  core::DiagnosisGraph graph_;
  Checker checker_;
  bool corrupted_ = false;
};

// ---- batch-bgp and store-pim ----------------------------------------------

/// Read -> normalize -> index -> routing replay -> (extract | store open) ->
/// warm -> diagnose each symptom -> render the breakdown. With `from_store`
/// the events come from a v2 store sealed during set-up instead of being
/// extracted.
class BatchWorkload final : public StudyWorkload {
 public:
  BatchWorkload(Config config, bool from_store)
      : StudyWorkload(std::move(config)), from_store_(from_store) {}

  void setup() override {
    load_study();
    if (from_store_) seal_store();
  }

  void prepare() override { load_reference(); }

  std::map<std::string, double> setup_counts() const override {
    return {{"storage.seal.busy_s", seal_s_},
            {"storage.seal.bytes", static_cast<double>(seal_bytes_)}};
  }

  Pass run(Tracer& tracer) override {
    Pass pass;
    const Registry before = read_registry();
    // Everything the path builds outlives the timed block, so tearing it
    // down is not timed.
    telemetry::RecordStream raw;
    obs::FeedHealthMonitor health;
    std::vector<collector::NormalizedRecord> normalized;
    std::size_t rejected = 0;
    std::size_t normalized_count = 0;
    std::optional<collector::RecordIndex> index;
    std::optional<collector::RebuiltRouting> routing;
    core::EventStore memory;
    std::optional<storage::PersistentEventStore> persistent;
    const core::EventStoreView* view = &memory;
    std::optional<core::LocationMapper> mapper;
    std::optional<core::RcaEngine> engine;
    std::vector<core::Diagnosis> verdicts;
    std::optional<core::ResultBrowser> browser;
    std::string rendered;

    const auto t0 = Clock::now();
    {
      Scope path(tracer, "path");
      {
        Scope s(tracer, "telemetry.read");
        raw = read_records(config_.corpus);
      }
      {
        Scope s(tracer, "collector.normalize");
        collector::Normalizer normalizer(*net_, &health);
        normalized = normalizer.normalize_stream(raw);
        rejected = normalizer.dropped();
      }
      normalized_count = normalized.size();
      {
        Scope s(tracer, "collector.index");
        index.emplace(std::move(normalized));
      }
      {
        Scope s(tracer, "collector.routing");
        routing.emplace(*net_);
        routing->replay(index->all());
      }
      if (from_store_) {
        Scope s(tracer, "storage.open");
        persistent.emplace(storage::PersistentEventStore::open(store_dir()));
        view = &*persistent;
      } else {
        Scope s(tracer, "collector.extract");
        memory.enable_metrics(obs::registry_ptr());
        collector::EventExtractor(*net_).extract(index->all(), memory);
      }
      {
        Scope s(tracer, "core.store.warm");
        view->warm();
      }
      {
        Scope s(tracer, "core.engine");
        mapper.emplace(*net_, routing->ospf(), routing->bgp());
        engine.emplace(graph_, *view, *mapper);
        std::span<const core::EventInstance> symptoms =
            view->all(graph_.root());
        verdicts.reserve(symptoms.size());
        pass.symptom_us.reserve(symptoms.size());
        for (const core::EventInstance& symptom : symptoms) {
          const auto a = Clock::now();
          {
            Scope d(tracer, "core.engine.diagnose");
            verdicts.push_back(engine->diagnose(symptom));
          }
          pass.symptom_us.push_back(seconds_since(a) * 1e6);
        }
      }
      {
        Scope s(tracer, "core.browser.render");
        browser.emplace(std::move(verdicts));
        hooks_.browser(*browser);
        rendered = browser->breakdown().render("root cause breakdown");
      }
    }
    pass.wall_s = seconds_since(t0);
    pass.records = raw.size();

    add_engine_counts(before, read_registry(), pass.counts);
    pass.counts["telemetry.read.records"] = static_cast<double>(raw.size());
    pass.counts["collector.normalize.records_out"] =
        static_cast<double>(normalized_count);
    pass.counts["collector.normalize.rejected"] =
        static_cast<double>(rejected);
    pass.counts["collector.routing.records_skipped"] =
        static_cast<double>(routing->skipped());
    pass.counts["collector.extract.events_out"] =
        static_cast<double>(memory.total_instances());
    pass.counts["core.store.warm.events"] =
        static_cast<double>(view->total_instances());
    pass.counts["core.engine.symptoms"] =
        static_cast<double>(browser->diagnoses().size());
    pass.check = check(browser->diagnoses());
    if (rendered.empty()) pass.check.problem = "empty breakdown";

    // Untimed repeat rounds of the diagnose step, each set up as in the
    // pass: routing replayed afresh (its SPF memo starts cold), the store
    // reopened (store-pim), a fresh mapper and engine (a cold join cache),
    // the verdicts kept. Each symptom keeps its fastest call: the host slows
    // single calls down in stretches, and with one call per pass some
    // symptoms had no fast call in a run (README.md, "Noise").
    pass.peak_rss_mb = peak_rss_mb();
    const auto r0 = Clock::now();
    while (seconds_since(r0) < kRepeatShare * pass.wall_s) {
      std::optional<storage::PersistentEventStore> round_store;
      const core::EventStoreView* round_view = view;
      if (from_store_) {
        round_store.emplace(storage::PersistentEventStore::open(store_dir()));
        round_view = &*round_store;
        round_view->warm();
      }
      collector::RebuiltRouting round_routing(*net_);
      round_routing.replay(index->all());
      core::LocationMapper round_mapper(*net_, round_routing.ospf(),
                                        round_routing.bgp());
      core::RcaEngine round_engine(graph_, *round_view, round_mapper);
      const std::span<const core::EventInstance> symptoms =
          round_view->all(graph_.root());
      if (symptoms.size() != pass.symptom_us.size()) {
        throw std::runtime_error("repeat round saw a different symptom set");
      }
      std::vector<core::Diagnosis> round_verdicts;
      round_verdicts.reserve(symptoms.size());
      for (std::size_t i = 0; i < symptoms.size(); ++i) {
        const auto a = Clock::now();
        round_verdicts.push_back(round_engine.diagnose(symptoms[i]));
        pass.symptom_us[i] =
            std::min(pass.symptom_us[i], seconds_since(a) * 1e6);
      }
    }
    return pass;
  }

 private:
  fs::path store_dir() const { return config_.work / "store"; }

  /// Normalize + extract through the production Pipeline, then seal its
  /// events as one v2 segment (the `grca simulate --store-out` path).
  void seal_store() {
    telemetry::RecordStream raw = read_records(config_.corpus);
    apps::Pipeline pipeline(*net_, raw);
    const core::EventStore& store = pipeline.store();
    util::TimeSec watermark = 0;
    for (const std::string& name : store.event_names()) {
      for (const core::EventInstance& e : store.all(name)) {
        watermark = std::max(watermark, e.when.start + 1);
      }
    }
    const auto t0 = Clock::now();
    storage::write_sealed_store(store_dir(), store, watermark,
                                storage::SealFormat::kV2);
    seal_s_ = seconds_since(t0);
    seal_bytes_ = directory_bytes(store_dir());
  }

  bool from_store_;
  double seal_s_ = 0.0;
  std::uint64_t seal_bytes_ = 0;
};

// ---- stream-bgp -------------------------------------------------------------

/// The batch corpus fed to one StreamingRca at max rate, closed loop, on
/// the seeded `grca replay` arrival schedule; ends at drain() and the
/// rendered breakdown.
class StreamWorkload final : public StudyWorkload {
 public:
  explicit StreamWorkload(Config config) : StudyWorkload(std::move(config)) {}

  void setup() override { load_study(); }

  void prepare() override {
    load_reference();
    telemetry::RecordStream raw = read_records(config_.corpus);
    // The arrival schedule of `grca replay` at one ingest thread: a stable
    // per-source lag plus per-record jitter, drawn in emission order.
    util::Rng rng(config_.seed);
    std::array<util::TimeSec, obs::kSourceCount> lag{};
    for (util::TimeSec& l : lag) l = rng.range(0, kSourceLag);
    schedule_.clear();
    schedule_.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      util::TimeSec arrival = raw[i].true_utc +
                              lag[static_cast<std::size_t>(raw[i].source)] +
                              rng.range(0, kRecordJitter);
      schedule_.push_back({arrival, static_cast<std::uint32_t>(i)});
    }
    std::sort(schedule_.begin(), schedule_.end(),
              [](const Arrival& a, const Arrival& b) {
                return a.at != b.at ? a.at < b.at : a.index < b.index;
              });
  }

  Pass run(Tracer& tracer) override {
    Pass pass;
    // A stream is consumed by its pass, so each pass builds its own; that
    // is set-up, which the caller adds to setup_s.
    const auto s0 = Clock::now();
    apps::StreamingRca stream(*net_, graph_, options_);
    pass.setup_s = seconds_since(s0);
    const Registry before = read_registry();
    Registry before_drain;
    telemetry::RecordStream raw;
    std::vector<core::Diagnosis> verdicts;
    std::optional<core::ResultBrowser> browser;
    std::string rendered;
    util::TimeSec detection_max = 0;

    const auto t0 = Clock::now();
    {
      Scope path(tracer, "path");
      {
        Scope s(tracer, "telemetry.read");
        raw = read_records(config_.corpus);
      }
      if (raw.size() != schedule_.size()) {
        throw std::runtime_error("records.tsv changed since set-up");
      }
      const std::size_t n = schedule_.size();
      std::size_t i = 0;
      util::TimeSec next_tick = n == 0 ? 0 : schedule_.front().at + kTick;
      while (i < n) {
        {
          Scope s(tracer, "apps.streaming.ingest");
          for (; i < n && schedule_[i].at < next_tick; ++i) {
            stream.ingest(raw[schedule_[i].index]);
          }
        }
        for (; i < n && schedule_[i].at >= next_tick; next_tick += kTick) {
          const auto a = Clock::now();
          {
            Scope s(tracer, "apps.streaming.advance");
            for (core::Diagnosis& d : stream.advance(next_tick)) {
              detection_max =
                  std::max(detection_max, next_tick - d.symptom.when.start);
              verdicts.push_back(std::move(d));
            }
          }
          pass.tick_ms.push_back(seconds_since(a) * 1e3);
        }
      }
      before_drain = read_registry();
      {
        Scope s(tracer, "apps.streaming.drain");
        for (core::Diagnosis& d : stream.drain()) {
          verdicts.push_back(std::move(d));
        }
      }
      {
        Scope s(tracer, "core.browser.render");
        browser.emplace(std::move(verdicts));
        hooks_.browser(*browser);
        rendered = browser->breakdown().render("root cause breakdown");
      }
    }
    pass.wall_s = seconds_since(t0);
    pass.records = raw.size();
    for (const core::Diagnosis& d : browser->diagnoses()) {
      pass.symptom_us.push_back(d.elapsed_ms * 1e3);
    }

    add_engine_counts(before, read_registry(), pass.counts);
    double advance_s = 0.0;
    for (double ms : pass.tick_ms) advance_s += ms * 1e-3;
    const double diagnose_s =
        before_drain.batch_seconds - before.batch_seconds;
    const double events = static_cast<double>(stream.store().total_instances());
    pass.counts["telemetry.read.records"] = static_cast<double>(raw.size());
    pass.counts["collector.normalize.records_out"] =
        static_cast<double>(stream.stored() + stream.dropped_late());
    pass.counts["collector.normalize.rejected"] =
        static_cast<double>(stream.rejected());
    pass.counts["collector.extract.events_out"] = events;
    pass.counts["core.engine.symptoms"] =
        static_cast<double>(browser->diagnoses().size());
    pass.counts["apps.streaming.ingest.records"] =
        static_cast<double>(raw.size());
    pass.counts["apps.streaming.ingest.dropped_late"] =
        static_cast<double>(stream.dropped_late());
    pass.counts["apps.streaming.advance.ticks"] =
        static_cast<double>(pass.tick_ms.size());
    pass.counts["apps.streaming.advance.diagnose_s"] = diagnose_s;
    pass.counts["apps.streaming.advance.freeze_s"] = advance_s - diagnose_s;
    pass.counts["apps.streaming.advance.events_stored"] = events;
    pass.counts["apps.streaming.detection_max_s"] =
        static_cast<double>(detection_max);

    pass.check = check(browser->diagnoses());
    // Record conservation: fed = stored + rejected + dropped_late, and the
    // feed-health view agrees with the engine's own counts.
    apps::ConservationCheck c;
    c.emitted = raw.size();
    c.stored = stream.stored();
    c.rejected = stream.rejected();
    c.dropped_late = stream.dropped_late();
    const obs::FeedHealthMonitor& health = stream.feed_health();
    c.feed_records = health.total_records();
    c.feed_late_drops = health.total_late_drops();
    for (const obs::FeedHealthMonitor::Status& s : health.status()) {
      c.feed_rejected += s.rejected;
    }
    if (!c.conserved() && pass.check.problem.empty()) {
      pass.check.problem = "records not conserved: fed " +
                           std::to_string(c.emitted) + ", stored " +
                           std::to_string(c.stored) + ", rejected " +
                           std::to_string(c.rejected) + ", late " +
                           std::to_string(c.dropped_late);
    }
    if (rendered.empty() && pass.check.problem.empty()) {
      pass.check.problem = "empty breakdown";
    }
    pass.peak_rss_mb = peak_rss_mb();
    return pass;
  }

 private:
  struct Arrival {
    util::TimeSec at = 0;
    std::uint32_t index = 0;  // into records.tsv order
  };

  apps::StreamingOptions options_;  // StreamingOptions defaults
  std::vector<Arrival> schedule_;
};

}  // namespace

std::optional<Kind> parse_kind(std::string_view name) {
  if (name == "batch-bgp") return Kind::kBatchBgp;
  if (name == "store-pim") return Kind::kStorePim;
  if (name == "stream-bgp") return Kind::kStreamBgp;
  return std::nullopt;
}

std::string_view name_of(Kind kind) {
  switch (kind) {
    case Kind::kBatchBgp:
      return "batch-bgp";
    case Kind::kStorePim:
      return "store-pim";
    case Kind::kStreamBgp:
      return "stream-bgp";
  }
  return "";
}

std::string_view study_of(Kind kind) {
  return kind == Kind::kStorePim ? "pim" : "bgp";
}

std::uint64_t default_seed(Kind kind) {
  return kind == Kind::kStorePim ? sim::PimStudyParams{}.seed
                                 : sim::BgpStudyParams{}.seed;
}

void generate_corpus(std::string_view study, std::uint64_t seed, bool smoke,
                     const fs::path& out) {
  topology::TopoParams tp = topology::paper_scale_params();
  int days = study == "pim" ? 14 : 30;  // `grca simulate` study defaults
  int symptoms = 2000;
  if (smoke) {
    tp = topology::TopoParams{};
    days = 2;
    symptoms = 60;
  }
  {
    topology::Network net = topology::generate_isp(tp);
    sim::StudyOutput result;
    if (study == "pim") {
      sim::PimStudyParams p;
      p.days = days;
      p.target_symptoms = symptoms;
      p.seed = seed;
      result = sim::run_pim_study(net, p);
    } else {
      sim::BgpStudyParams p;
      p.days = days;
      p.target_symptoms = symptoms;
      p.seed = seed;
      result = sim::run_bgp_study(net, p);
    }
    sim::write_corpus(out, net, result.records, result.truth);
  }
  for (Kind kind : {Kind::kBatchBgp, Kind::kStorePim, Kind::kStreamBgp}) {
    if (study_of(kind) != study) continue;
    std::ofstream file(reference_path(out, kind));
    for (const std::string& line : reference_lines(kind, out)) {
      file << line << "\n";
    }
    if (!file.flush()) {
      throw std::runtime_error("cannot write " +
                               reference_path(out, kind).string());
    }
  }
}

double peak_rss_mb() {
  struct rusage usage_self {};
  getrusage(RUSAGE_SELF, &usage_self);
  return static_cast<double>(usage_self.ru_maxrss) / 1024.0;
}

std::unique_ptr<Workload> make_workload(const Config& config) {
  switch (config.kind) {
    case Kind::kBatchBgp:
      return std::make_unique<BatchWorkload>(config, false);
    case Kind::kStorePim:
      return std::make_unique<BatchWorkload>(config, true);
    case Kind::kStreamBgp:
      return std::make_unique<StreamWorkload>(config);
  }
  return nullptr;
}

}  // namespace perfbench
