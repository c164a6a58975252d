// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// `grca` — the operator-facing command-line tool.
//
//   grca dump-library
//       Print the Knowledge Library (Table I events, Table II rules).
//
//   grca simulate --study bgp|cdn|pim|innet --out DIR
//                 [--days N] [--symptoms N] [--seed S] [--paper-scale]
//                 [--store-out DIR]
//       Generate a synthetic ISP + study workload; write the router config
//       snapshots, the layer-1 inventory, the raw telemetry archive and the
//       ground-truth labels under DIR. --store-out additionally reads DIR
//       back, runs the collector over it once as `diagnose --data DIR`
//       does, and persists the extracted event store as a sealed segmented
//       event log (see docs/STORAGE.md), which `diagnose --store` can
//       reopen without re-extracting.
//
//   grca diagnose --study bgp|cdn|pim|innet --data DIR
//                 [--dsl FILE]... [--threads N] [--trend] [--score]
//                 [--drill CAUSE] [--metrics-out FILE] [--store DIR]
//                 [--span-log FILE]
//       Rebuild the network from DIR's configs, replay the telemetry
//       archive, run the study's RCA application (plus any extra DSL
//       files), and print the root-cause breakdown. --threads fans
//       per-symptom diagnosis out over N workers (default: hardware
//       concurrency; 1 = serial — same output either way). --score
//       compares against DIR/truth.tsv; --drill prints one drill-down for
//       the given diagnosed cause ("unknown" works). --metrics-out dumps
//       the metrics registry after the run (FILE ending in .json selects
//       JSON, anything else Prometheus text). --store serves events from a
//       persisted event log (mmap-backed) instead of re-extracting them —
//       verdicts are byte-identical either way. --span-log records stage
//       spans as JSONL (convert with `grca spans`).
//
//   grca metrics --study bgp|cdn|pim|innet --data DIR [--threads N]
//                [--format prometheus|json] [--store DIR] [--dsl FILE]...
//                [--span-log FILE]
//       Run the same pipeline + diagnosis as `diagnose`, but print the
//       metrics registry instead of the breakdown: per-source feed
//       counts/lag/gaps, per-stage latency histograms, engine counters.
//
//   grca calibrate --study bgp|cdn|pim|innet --data DIR [--store DIR]
//                  --symptom EVENT --diagnostic EVENT --join LEVEL
//       Learn temporal margins for a rule from the archived data (§VI),
//       over the same events `diagnose` sees for the study. --store reads
//       events from a persisted event log instead of re-extracting,
//       matching `diagnose --store`.
//
//   grca learn (--study bgp|cdn|pim|innet --data DIR [--store DIR]
//              | --topology FILE --scenario CLASS [--days N] [--symptoms N]
//                [--noise X] [--pers N] [--customers N])
//              [--seed S] [--ablate SYM->DIAG]... [--dsl FILE]...
//              [--max-iterations N] [--budget N] [--min-score X] [--alpha X]
//              [--permutations N] [--threads N] [--deterministic]
//              [--out FILE] [--gate-out FILE] [--rules-out FILE]
//              [--metrics-out FILE] [--span-log FILE]
//       Close the §II-E rule-learning loop: diagnose the corpus against the
//       current rule library, mine the unknown residue with the NICE
//       correlation tester, propose candidate rules (join-level search +
//       temporal calibration), re-score against ground truth and accept
//       only candidates that improve held-out F1 — until an iteration
//       accepts nothing or the candidate budget runs out. Input is either a
//       recorded corpus (--study/--data, optionally --store) or a
//       regenerated benchmark cell (--topology/--scenario, same seeds as
//       `grca benchmark`). --ablate drops rules from the starting library
//       first (the rule-ablation benchmark: verify the loop re-learns
//       them). --out writes the per-iteration accuracy-curve report JSON,
//       --gate-out the flat metric map for tools/bench_diff.py, --rules-out
//       the accepted rules as reviewable DSL. --deterministic drops
//       wall-clock timing so every rendering is byte-stable.
//
//   grca replay [--study bgp|cdn|pim|innet] [--data DIR]
//               [--rate N[x]|max] [--threads N] [--tick SEC]
//               [--source-lag SEC] [--jitter SEC] [--seed S]
//               [--days N] [--symptoms N] [--paper-scale] [--report-out FILE]
//               [--metrics-out FILE] [--min-rate RECORDS_PER_MIN] [--no-truth]
//               [--persist DIR] [--persist-seal-every SEC]
//       Replay a recorded corpus (--data) or a freshly generated default
//       scenario through the streaming RCA engine at a scaled (or maximum)
//       rate, in one arrival order sorted from seeded per-source lag and
//       per-record jitter, and print the replay report: throughput, ingest
//       latency percentiles, per-source feed health, the record
//       conservation check, and (unless --no-truth) ground-truth coverage
//       plus a streaming-vs-batch verdict diff. --threads diagnoses each
//       ready batch over N threads (default 1 = inline, 0 = hardware
//       concurrency); the answers are the same at every N. Exits nonzero
//       when a check fails or the sustained rate is below --min-rate.
//       --persist appends every frozen event to the event log at DIR and
//       seals a segment every --persist-seal-every stream-seconds (default
//       3600; a usage error without --persist); a DIR that already holds
//       sealed segments resumes from the newest watermark. --tick (default
//       300) must be positive.
//
//   grca serve --study bgp|cdn|pim|innet [--data DIR] [--port N]
//              [--port-file FILE] [--http-threads N] [--api-dump DIR]
//              [--once] [--public] [--follow] [--rate N[x]|max] [--tick SEC]
//              [--idle-ticks N] [--alert-rules FILE] [--threads N]
//              [--persist DIR] [--persist-seal-every SEC]
//              [--days N] [--symptoms N] [--seed S] [--paper-scale]
//       Run a diagnosis and serve it over HTTP: GET /metrics (Prometheus
//       scrape), /api/breakdown, /api/trending, /api/drilldown/{cause},
//       /api/health, /api/alerts, /healthz. Default (batch) mode runs the
//       study once and serves the finished result; --follow streams the
//       corpus through the real-time engine at --rate, publishing a fresh
//       snapshot every --tick sim-seconds while the feed-health alert
//       engine (default rules or --alert-rules FILE) injects missing-data
//       evidence into the live diagnosis. --idle-ticks keeps the stream
//       clock advancing after the corpus ends (feeds go silent and the
//       alarms fire — the smoke test's trigger). --api-dump writes every
//       /api/* response to DIR through the exact handler the server uses,
//       so a live curl and the dump are byte-identical; --once exits after
//       the dump instead of serving. SIGINT/SIGTERM shut down gracefully:
//       the stream drains, the persistence watermark seals, listeners
//       close. --threads is the diagnosis thread count in both modes
//       (0 = hardware concurrency; default 0 in batch mode, 1 with
//       --follow). --persist, --persist-seal-every, --rate, --tick and
//       --idle-ticks only apply to --follow; batch mode rejects them, and
//       --follow checks them as `replay` does.
//
//   grca store inspect|verify|compact --dir DIR [--deep]
//       Operate on a persisted event log. `inspect` prints per-segment
//       summaries (sequence, events, names, watermark, bytes, dictionary
//       and zone-map sizes plus per-name run summaries: rows, blocks,
//       start range, column-region bytes). `verify` runs the full
//       integrity sweep — header/footer/frame CRCs, column-region CRCs,
//       full structural decode — and exits nonzero on any corruption;
//       `--deep` additionally recomputes footer statistics (max durations,
//       zone maps) from a full rescan. `compact` folds every sealed segment
//       plus the WAL's valid prefix into one segment (query results
//       unchanged).
//
//   grca spans --in FILE [--out FILE]
//       Convert a span JSONL log (from --span-log) into a Chrome trace
//       file: load the output into chrome://tracing or https://ui.perfetto.dev
//       for a flame-style view of the run's stages.
//
//   grca benchmark [--topology FILE]... [--topo-dir DIR] [--scenarios LIST]
//                  [--days N] [--symptoms N] [--seed S] [--threads N]
//                  [--noise X] [--pers N] [--customers N] [--out FILE]
//                  [--gate-out FILE] [--deterministic]
//       Run the RCAEval-style scorecard: import every --topology file (or
//       all *.graph files under --topo-dir, default bench/topologies) in
//       REPETITA flat-text format, generate each fault-scenario class on
//       each imported network (maintenance-storm, srlg-cut, route-leak,
//       gray-failure, cdn-flood — or the --scenarios comma list), diagnose
//       the corpus end-to-end, and print per-cell precision/recall/F1 plus
//       diagnosis throughput. --out writes the scorecard JSON; --gate-out
//       writes the flat metric map tools/bench_diff.py gates on.
//       --deterministic drops wall-clock throughput from all outputs so
//       they are byte-stable across machines (golden fixtures, CI gates).
//
//   grca version
//       Print the build version (also: grca --version).

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <set>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "apps/benchmark.h"
#include "apps/bgp_flap_app.h"
#include "apps/cdn_app.h"
#include "apps/innet_app.h"
#include "apps/pim_app.h"
#include "apps/pipeline.h"
#include "apps/replay.h"
#include "apps/scoring.h"
#include "core/calibration.h"
#include "core/knowledge_library.h"
#include "core/rule_dsl.h"
#include "core/trending.h"
#include "learn/driver.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "service/alerts.h"
#include "service/service_plane.h"
#include "service/shutdown.h"
#include "simulation/archive.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "simulation/workloads.h"
#include "topology/import.h"
#include "topology/topo_gen.h"
#include "util/strings.h"

namespace fs = std::filesystem;
using namespace grca;

// Injected by src/tools/CMakeLists.txt (project version + git describe).
#ifndef GRCA_VERSION
#define GRCA_VERSION "unknown"
#endif

namespace {

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      R"(usage:
  grca dump-library
  grca simulate --study bgp|cdn|pim|innet --out DIR [--days N] [--symptoms N]
                [--seed S] [--paper-scale] [--store-out DIR]
  grca diagnose --study bgp|cdn|pim|innet --data DIR [--dsl FILE]...
                [--threads N] [--trend] [--score] [--drill CAUSE]
                [--metrics-out FILE] [--store DIR] [--span-log FILE]
  grca metrics --study bgp|cdn|pim|innet --data DIR [--threads N]
               [--format prometheus|json] [--store DIR] [--dsl FILE]...
               [--span-log FILE]
  grca calibrate --study bgp|cdn|pim|innet --data DIR [--store DIR]
                 --symptom EVENT --diagnostic EVENT --join LEVEL
  grca learn (--study bgp|cdn|pim|innet --data DIR [--store DIR]
             | --topology FILE --scenario CLASS [--days N] [--symptoms N]
               [--noise X] [--pers N] [--customers N])
             [--seed S] [--ablate SYM->DIAG]... [--dsl FILE]...
             [--max-iterations N] [--budget N] [--min-score X] [--alpha X]
             [--permutations N] [--threads N] [--deterministic] [--out FILE]
             [--gate-out FILE] [--rules-out FILE] [--metrics-out FILE]
             [--span-log FILE]
  grca replay [--study bgp|cdn|pim|innet] [--data DIR] [--rate N[x]|max]
              [--threads N] [--tick SEC] [--source-lag SEC] [--jitter SEC]
              [--seed S] [--days N] [--symptoms N] [--paper-scale]
              [--report-out FILE] [--metrics-out FILE]
              [--min-rate RECORDS_PER_MIN] [--no-truth]
              [--persist DIR] [--persist-seal-every SEC]
  grca serve --study bgp|cdn|pim|innet [--data DIR] [--port N]
             [--port-file FILE] [--http-threads N] [--api-dump DIR] [--once]
             [--public] [--follow] [--rate N[x]|max] [--tick SEC]
             [--idle-ticks N] [--alert-rules FILE] [--threads N]
             [--persist DIR] [--persist-seal-every SEC]
             [--days N] [--symptoms N] [--seed S] [--paper-scale]
  grca store inspect --dir DIR
  grca store verify --dir DIR [--deep]
  grca store compact --dir DIR
  grca spans --in FILE [--out FILE]
  grca benchmark [--topology FILE]... [--topo-dir DIR] [--scenarios LIST]
                 [--days N] [--symptoms N] [--seed S] [--threads N]
                 [--noise X] [--pers N] [--customers N] [--out FILE]
                 [--gate-out FILE] [--deterministic]
  grca version
)";
  std::exit(2);
}

using FlagSet = std::set<std::string>;

FlagSet operator+(FlagSet a, const FlagSet& b) {
  a.insert(b.begin(), b.end());
  return a;
}

/// Minimal flag parser: --key value pairs plus bare flags. Each command
/// names the valued and bare flags it reads; any other flag is a usage
/// error, so a misspelt or removed flag cannot be silently ignored.
struct Args {
  std::map<std::string, std::vector<std::string>> values;
  std::set<std::string> flags;

  static Args parse(int argc, char** argv, int from,
                    const std::string& command, const FlagSet& valued,
                    const FlagSet& bare = {}) {
    Args args;
    for (int i = from; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) usage("unexpected argument " + arg);
      std::string key = arg.substr(2);
      if (bare.count(key)) {
        args.flags.insert(key);
      } else if (valued.count(key)) {
        if (i + 1 >= argc) usage("missing value for --" + key);
        args.values[key].push_back(argv[++i]);
      } else {
        usage("unknown flag --" + key + " for " + command);
      }
    }
    return args;
  }

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    if (it == values.end()) {
      if (fallback.empty()) usage("missing --" + key);
      return fallback;
    }
    return it->second.back();
  }
  long get_long(const std::string& key, long fallback) const {
    auto it = values.find(key);
    if (it == values.end()) return fallback;
    try {
      return std::stol(it->second.back());
    } catch (const std::exception&) {
      throw ConfigError("--" + key + ": expected an integer, got '" +
                        it->second.back() + "'");
    }
  }
  /// --threads as a thread count (0 = hardware concurrency); a negative
  /// value is a usage error.
  unsigned get_threads(long fallback) const {
    long threads = get_long("threads", fallback);
    if (threads < 0) usage("--threads must be >= 0");
    return static_cast<unsigned>(threads);
  }
};

/// A workload's size: days of data and target symptom count.
struct Scale {
  int days;
  int symptoms;
};

/// One row per study: everything a command needs to know about a G-RCA
/// application. Every command finds its study here, by name, and nowhere
/// else.
struct Study {
  const char* name;
  core::DiagnosisGraph (*graph)();
  void (*browser)(core::ResultBrowser&);
  std::string (*canonical)(const std::string&);
  /// `simulate` defaults, matching the scale of the paper's case studies.
  Scale scale;
  sim::StudyOutput (*workload)(const topology::Network&, Scale,
                               std::uint64_t seed);
  /// Routers at which BGP egress changes are evaluated.
  std::vector<topology::RouterId> (*observers)(const topology::Network&);
};

template <typename Params,
          sim::StudyOutput (*Run)(const topology::Network&, const Params&)>
sim::StudyOutput workload(const topology::Network& net, Scale scale,
                          std::uint64_t seed) {
  Params params;
  params.days = scale.days;
  params.target_symptoms = scale.symptoms;
  params.seed = seed;
  return Run(net, params);
}

std::vector<topology::RouterId> no_observers(const topology::Network&) {
  return {};
}

/// The CDN study watches its ingress routers.
std::vector<topology::RouterId> cdn_ingress(const topology::Network& net) {
  if (net.cdn_nodes().empty()) return {};
  return net.cdn_nodes().front().ingress_routers;
}

const Study kStudies[] = {
    {"bgp", apps::bgp::build_graph, apps::bgp::configure_browser,
     apps::bgp::canonical_cause, {30, 2000},
     workload<sim::BgpStudyParams, sim::run_bgp_study>, no_observers},
    {"cdn", apps::cdn::build_graph, apps::cdn::configure_browser,
     apps::cdn::canonical_cause, {30, 1500},
     workload<sim::CdnStudyParams, sim::run_cdn_study>, cdn_ingress},
    {"pim", apps::pim::build_graph, apps::pim::configure_browser,
     apps::pim::canonical_cause, {14, 2000},
     workload<sim::PimStudyParams, sim::run_pim_study>, no_observers},
    {"innet", apps::innet::build_graph, apps::innet::configure_browser,
     apps::innet::canonical_cause, {30, 600},
     workload<sim::InnetStudyParams, sim::run_innet_study>, no_observers},
};

const Study& find_study(const std::string& name) {
  for (const Study& study : kStudies) {
    if (name == study.name) return study;
  }
  usage("unknown study '" + name + "'");
}

int cmd_dump_library() {
  core::DiagnosisGraph graph;
  core::load_knowledge_library(graph);
  std::cout << core::render_dsl(graph);
  return 0;
}

/// The contents of `file`; a usage error naming `what` when it cannot be
/// opened.
std::string read_text(const std::string& file, const std::string& what) {
  std::ifstream in(file);
  if (!in) usage("cannot open " + what + " " + file);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The study graph plus every --dsl file, validated.
core::DiagnosisGraph study_graph(const Args& args, const Study& study) {
  core::DiagnosisGraph graph = study.graph();
  if (auto it = args.values.find("dsl"); it != args.values.end()) {
    for (const std::string& file : it->second) {
      core::load_dsl(read_text(file, "DSL file"), graph);
    }
  }
  graph.validate();
  return graph;
}

/// Flags generate_corpus reads: these valued ones plus the bare
/// --paper-scale.
const FlagSet kCorpusFlags = {"seed", "days", "symptoms"};

/// Generates the synthetic ISP and the study's workload over it, at
/// --days/--symptoms or the given defaults.
sim::ReplayCorpus generate_corpus(const Args& args, const Study& study,
                                  Scale defaults) {
  topology::TopoParams tp;
  if (args.flags.count("paper-scale")) {
    tp = topology::paper_scale_params();
  } else {
    tp.pops = 10;
    tp.pers_per_pop = 6;
    tp.customers_per_per = 8;
    tp.mvpn_count = 4;
    tp.mvpn_sites_per_vpn = 10;
  }
  tp.seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  topology::Network net = topology::generate_isp(tp);
  sim::StudyOutput result = study.workload(
      net,
      {static_cast<int>(args.get_long("days", defaults.days)),
       static_cast<int>(args.get_long("symptoms", defaults.symptoms))},
      tp.seed + 1);
  return sim::ReplayCorpus{std::move(net), std::move(result.records),
                           std::move(result.truth)};
}

/// The corpus `replay` and `serve` stream: the archive at --data DIR, or a
/// freshly generated two-week scenario at paper-like symptom density.
sim::ReplayCorpus load_corpus(const Args& args, const Study& study) {
  if (auto it = args.values.find("data"); it != args.values.end()) {
    return sim::read_corpus(fs::path(it->second.back()));
  }
  return generate_corpus(args, study, {14, 1000});
}

/// The event source: the sealed store at --store DIR (mmap'd; routing is
/// still replayed from the records), or fresh extraction with the study's
/// egress observers. Verdicts are byte-identical either way.
apps::Pipeline study_pipeline(const Args& args, const Study& study,
                              const sim::ReplayCorpus& corpus) {
  if (auto it = args.values.find("store"); it != args.values.end()) {
    return apps::Pipeline(
        corpus.network, corpus.records,
        std::make_shared<storage::PersistentEventStore>(
            storage::PersistentEventStore::open(fs::path(it->second.back()))));
  }
  return apps::Pipeline(corpus.network, corpus.records,
                        collector::ExtractOptions{},
                        study.observers(corpus.network));
}

/// A corpus and the Pipeline over it. The pipeline keeps references into
/// the corpus, so the two live together and never move.
struct StudyData {
  /// The archive at --data DIR.
  StudyData(const Args& args, const Study& study)
      : StudyData(sim::read_corpus(fs::path(args.get("data"))), args,
                  study) {}
  StudyData(sim::ReplayCorpus data, const Args& args, const Study& study)
      : corpus(std::move(data)),
        pipeline(study_pipeline(args, study, corpus)) {}
  StudyData(const StudyData&) = delete;
  StudyData& operator=(const StudyData&) = delete;

  /// Diagnoses every symptom against study_graph over --threads (default:
  /// hardware concurrency).
  std::vector<core::Diagnosis> diagnose(const Args& args,
                                        const Study& study) const {
    return pipeline.diagnose_all(study_graph(args, study),
                                 args.get_threads(0));
  }

  sim::ReplayCorpus corpus;
  apps::Pipeline pipeline;
};

/// Flags the stream commands read through stream_flags.
const FlagSet kStreamFlags = {"threads", "rate", "tick", "persist",
                              "persist-seal-every"};

/// The stream settings `replay` and `serve --follow` share: diagnosis
/// threads, pacing, tick and write-ahead persistence.
apps::ReplayOptions stream_flags(const Args& args, unsigned default_threads) {
  apps::ReplayOptions opt;
  opt.stream.threads = args.get_threads(default_threads);
  if (std::string rate = args.get("rate", "max"); rate != "max") {
    if (!rate.empty() && rate.back() == 'x') rate.pop_back();
    try {
      opt.rate = std::stod(rate);
    } catch (const std::exception&) {
      opt.rate = -1.0;
    }
    if (opt.rate <= 0) usage("--rate must be a positive factor or 'max'");
  }
  opt.tick = args.get_long("tick", 300);
  if (opt.tick <= 0) usage("--tick must be positive");
  if (auto it = args.values.find("persist"); it != args.values.end()) {
    opt.stream.persist_dir = fs::path(it->second.back());
  } else if (args.values.count("persist-seal-every")) {
    usage("--persist-seal-every needs --persist");
  }
  opt.stream.persist_seal_every =
      args.get_long("persist-seal-every", util::kHour);
  return opt;
}

/// Writes render() to the file named by --KEY when the command was given
/// one, and names the file on stdout when `what` is set.
template <typename Render>
void write_output(const Args& args, const std::string& key, Render render,
                  const char* what = nullptr) {
  auto it = args.values.find(key);
  if (it == args.values.end()) return;
  const std::string& file = it->second.back();
  std::ofstream out(file);
  if (!out) usage("cannot write " + file);
  out << render();
  if (what) std::cout << what << " written to " << file << "\n";
}

/// The installed metrics registry as JSON or Prometheus text.
std::string render_metrics(bool json) {
  const obs::MetricsRegistry& reg = *obs::registry_ptr();
  return json ? obs::render_json(reg) : obs::render_prometheus(reg);
}

/// --metrics-out FILE: the registry after the run; `.json` selects JSON,
/// anything else Prometheus text.
void write_metrics_out(const Args& args) {
  write_output(args, "metrics-out", [&] {
    return render_metrics(fs::path(args.get("metrics-out")).extension() ==
                          ".json");
  });
}

void open_span_log(const Args& args) {
  if (auto it = args.values.find("span-log"); it != args.values.end()) {
    if (!obs::set_span_log(it->second.back())) {
      usage("cannot write span log " + it->second.back());
    }
  }
}

int cmd_simulate(const Args& args) {
  const Study& study = find_study(args.get("study"));
  fs::path out(args.get("out"));
  {
    sim::ReplayCorpus corpus = generate_corpus(args, study, study.scale);
    sim::write_corpus(out, corpus.network, corpus.records, corpus.truth);
    std::cout << "wrote " << corpus.network.routers().size() << " configs, "
              << corpus.records.size() << " records, " << corpus.truth.size()
              << " truth labels under " << out.string() << "\n";
  }
  if (auto it = args.values.find("store-out"); it != args.values.end()) {
    // Seal what every reader of DIR extracts: the archive read back (its
    // config-rebuilt network and read order), not the in-memory corpus.
    StudyData data(sim::read_corpus(out), args, study);
    const core::EventStore& store = data.pipeline.store();
    // Batch extraction is complete, so the watermark is one past the last
    // event start: everything on disk is final.
    util::TimeSec watermark = 0;
    for (const std::string& name : store.event_names()) {
      for (const core::EventInstance& e : store.all(name)) {
        watermark = std::max(watermark, e.when.start + 1);
      }
    }
    fs::path store_dir(it->second.back());
    storage::write_sealed_store(store_dir, store, watermark);
    std::cout << "persisted " << store.total_instances() << " events ("
              << store.event_names().size() << " names) to "
              << store_dir.string() << "\n";
  }
  return 0;
}

/// Flags `diagnose` and `metrics` both read.
const FlagSet kStudyRunFlags = {"study", "data", "span-log", "store", "dsl",
                                "threads"};

int cmd_diagnose(const Args& args) {
  const Study& study = find_study(args.get("study"));
  open_span_log(args);
  StudyData data(args, study);
  core::ResultBrowser browser(data.diagnose(args, study));
  study.browser(browser);
  std::cout << browser.breakdown().render("root cause breakdown");
  std::cout << "\nmean diagnosis time: " << browser.mean_diagnosis_ms()
            << " ms/symptom over " << browser.diagnoses().size()
            << " symptoms\n";

  if (args.flags.count("trend")) {
    std::cout << "\n" << browser.trend().render("daily trend");
    core::TrendSeries series = core::daily_counts(browser.diagnoses());
    if (auto alert = core::detect_level_shift(series)) {
      std::cout << "TREND ALERT: daily symptom rate shifted "
                << alert->before_mean << " -> " << alert->after_mean
                << "/day on " << util::format_utc(alert->day_utc)
                << " (score " << alert->score << ")\n";
    }
  }
  if (args.flags.count("score")) {
    const std::vector<sim::TruthEntry>& truth = data.corpus.truth;
    if (truth.empty()) {
      std::cout << "\nno truth.tsv found; skipping scoring\n";
    } else {
      apps::Score score = apps::score_diagnoses(browser.diagnoses(), truth,
                                                study.canonical);
      std::cout << "\naccuracy vs ground truth: " << 100.0 * score.accuracy()
                << "% (" << score.correct << "/" << score.matched
                << " matched diagnoses)\n";
    }
  }
  if (auto it = args.values.find("drill"); it != args.values.end()) {
    auto cases = browser.with_cause(it->second.back());
    if (cases.empty()) {
      std::cout << "\nno diagnoses with cause " << it->second.back() << "\n";
    } else {
      std::cout << "\n"
                << browser.drill_down(*cases.front(),
                                      data.pipeline.context_lookup());
    }
  }
  write_metrics_out(args);
  return 0;
}

int cmd_metrics(const Args& args) {
  std::string format = args.get("format", "prometheus");
  if (format != "prometheus" && format != "json") {
    usage("--format must be prometheus or json");
  }
  const Study& study = find_study(args.get("study"));
  open_span_log(args);
  StudyData data(args, study);
  data.diagnose(args, study);  // fills the registry as a side effect
  std::cout << render_metrics(format == "json");
  return 0;
}

int cmd_calibrate(const Args& args) {
  StudyData data(args, find_study(args.get("study")));
  auto result = core::calibrate_temporal(
      data.pipeline.events(), data.pipeline.mapper(), args.get("symptom"),
      args.get("diagnostic"), core::parse_location_type(args.get("join")));
  if (!result) {
    std::cout << "not enough co-occurrences to calibrate\n";
    return 1;
  }
  std::cout << "samples: " << result->samples
            << "  median lag: " << result->median_lag
            << " s  coverage: " << 100.0 * result->coverage << "%\n";
  std::cout << "calibrated rule:\n"
            << "  symptom " << core::to_string(result->rule.symptom.option)
            << " " << result->rule.symptom.left << " "
            << result->rule.symptom.right << "\n"
            << "  diagnostic "
            << core::to_string(result->rule.diagnostic.option) << " "
            << result->rule.diagnostic.left << " "
            << result->rule.diagnostic.right << "\n";
  return 0;
}

int cmd_replay(const Args& args) {
  const Study& study = find_study(args.get("study", "bgp"));
  apps::ReplayOptions opt = stream_flags(args, 1);
  opt.source_lag = args.get_long("source-lag", 120);
  opt.record_jitter = args.get_long("jitter", 60);
  opt.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  sim::ReplayCorpus corpus = load_corpus(args, study);

  apps::FeedReplayer replayer(corpus.network, opt);
  core::DiagnosisGraph graph = study_graph(args, study);
  bool with_truth = !args.flags.count("no-truth");
  apps::ReplayReport report =
      replayer.replay(corpus.records, graph,
                      with_truth ? &corpus.truth : nullptr, study.canonical);

  std::cout << apps::render_text(report);
  write_output(args, "report-out", [&] { return apps::render_json(report); });
  write_metrics_out(args);

  long min_rate = args.get_long("min-rate", 0);
  if (min_rate > 0 && report.records_per_min() < static_cast<double>(min_rate)) {
    std::cerr << "replay gate: sustained " << report.records_per_min()
              << " records/min < required " << min_rate << "\n";
    return 1;
  }
  return report.passed() ? 0 : 1;
}

/// --api-dump DIR: writes every /api/* response to DIR through
/// ServicePlane::handle — the exact code path the live server runs, so a
/// curl of the running server and these files are byte-identical (the CI
/// smoke job diffs them).
void api_dump(const service::ServicePlane& plane, const Args& args) {
  auto it = args.values.find("api-dump");
  if (it == args.values.end()) return;
  fs::path dir(it->second.back());
  fs::create_directories(dir);
  static constexpr std::pair<const char*, const char*> kEndpoints[] = {
      {"/api/breakdown", "breakdown.json"},
      {"/api/trending", "trending.json"},
      {"/api/health", "health.json"},
      {"/api/alerts", "alerts.json"},
      {"/api/drilldown/unknown", "drilldown-unknown.json"},
  };
  for (const auto& [target, file] : kEndpoints) {
    std::ofstream out(dir / file);
    if (!out) usage("cannot write " + (dir / file).string());
    out << plane.get(target);
  }
  std::cout << "wrote " << std::size(kEndpoints) << " API dumps under "
            << dir.string() << "\n";
}

std::vector<service::AlertRule> load_alert_rules(const Args& args) {
  auto it = args.values.find("alert-rules");
  if (it == args.values.end()) return service::default_alert_rules();
  return service::parse_alert_rules(
      read_text(it->second.back(), "alert rules file"));
}

/// Starts the HTTP listeners and reports where they landed (--port 0 binds
/// an ephemeral port; --port-file is how scripts learn which).
void start_serving(service::ServicePlane& plane, const Args& args) {
  plane.start();
  write_output(args, "port-file",
               [&] { return std::to_string(plane.port()) + "\n"; });
  std::cout << "serving on http://127.0.0.1:" << plane.port()
            << " (/metrics, /api/*)" << std::endl;
}

/// Blocks until SIGINT/SIGTERM, then announces the graceful shutdown.
void wait_for_shutdown(service::ServicePlane& plane) {
  while (!service::ShutdownSignal::requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "signal " << service::ShutdownSignal::signal_number()
            << ": closing listeners" << std::endl;
  plane.stop();
}

int cmd_serve(const Args& args) {
  const Study& study = find_study(args.get("study"));
  bool follow = args.flags.count("follow") > 0;
  bool once = args.flags.count("once") > 0;
  if (!follow) {
    // Batch mode reads none of the streaming flags: name the first one given
    // rather than ignore it.
    for (const std::string& key : kStreamFlags + FlagSet{"idle-ticks"}) {
      if (key != "threads" && args.values.count(key)) {
        usage("--" + key + " needs --follow");
      }
    }
  }
  // Diagnosis threads in both modes; streaming batches are small, so
  // --follow diagnoses inline unless asked otherwise.
  const apps::ReplayOptions opt = stream_flags(args, follow ? 1 : 0);
  const long http_threads = args.get_long("http-threads", 1);
  if (http_threads < 0) usage("--http-threads must be >= 0");

  sim::ReplayCorpus corpus = load_corpus(args, study);
  if (corpus.records.empty()) usage("corpus has no records");

  service::ServicePlaneOptions popt;
  popt.port = static_cast<std::uint16_t>(args.get_long("port", 0));
  popt.http_threads = static_cast<unsigned>(http_threads);
  popt.loopback_only = args.flags.count("public") == 0;
  service::ServicePlane plane(popt);
  {
    // Same labels and row order as the study's offline report tables.
    core::ResultBrowser browser{std::vector<core::Diagnosis>{}};
    study.browser(browser);
    plane.set_display(service::DisplayConfig::from_browser(browser));
  }

  service::ShutdownSignal::install();

  if (!follow) {
    // Batch mode: run the study once, publish the finished result, serve.
    StudyData data(std::move(corpus), args, study);
    std::vector<core::Diagnosis> diagnoses = data.diagnose(args, study);
    // The stream clock echoed by /api/health: end of the diagnosed data
    // (deterministic, so batch dumps are reproducible run to run).
    util::TimeSec now = 0;
    for (const core::Diagnosis& d : diagnoses) {
      now = std::max(now, d.symptom.when.end);
    }
    plane.add_diagnoses(diagnoses);
    plane.set_health(data.pipeline.feed_health().status());
    plane.set_alerts(load_alert_rules(args), {}, 0);
    plane.publish(now);
    std::cout << "published " << diagnoses.size() << " diagnoses (batch "
              << study.name << " study)" << std::endl;
    api_dump(plane, args);
    if (once) return 0;
    start_serving(plane, args);
    wait_for_shutdown(plane);
    return 0;
  }

  // Follow mode: stream the corpus through the real-time engine, publish a
  // fresh snapshot every tick, and let the alert engine inject missing-data
  // evidence into the live diagnosis.
  core::DiagnosisGraph graph = study_graph(args, study);
  service::add_missing_data_support(graph);
  apps::StreamingRca stream(corpus.network, std::move(graph), opt.stream);

  std::vector<core::Location> scope;
  for (const topology::Pop& p : corpus.network.pops()) {
    scope.push_back(core::Location::pop(p.name));
  }
  service::AlertEngine alerts(load_alert_rules(args), std::move(scope));

  const double rate = opt.rate;  // <= 0: as fast as possible
  const util::TimeSec tick = opt.tick;
  long idle_ticks = args.get_long("idle-ticks", 0);

  if (!once) start_serving(plane, args);

  const telemetry::RecordStream& records = corpus.records;
  util::TimeSec start_sim = records.front().true_utc;
  auto wall_start = std::chrono::steady_clock::now();
  auto pace = [&](util::TimeSec sim) {
    if (rate <= 0) return;
    auto target = wall_start + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(sim - start_sim) /
                                       rate));
    while (!service::ShutdownSignal::requested() &&
           std::chrono::steady_clock::now() < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };

  std::size_t diag_total = 0;
  auto step = [&](util::TimeSec t) {
    std::vector<core::Diagnosis> batch = stream.advance(t);
    diag_total += batch.size();
    // Copy the batch before inject(): injected events grow the store, which
    // may invalidate the batch's instance pointers.
    plane.add_diagnoses(batch);
    for (core::EventInstance& e : alerts.evaluate(t)) {
      stream.inject(std::move(e));
    }
    plane.set_health(stream.feed_health().status());
    plane.set_alerts(alerts.rules(), alerts.alarms(),
                     alerts.events_synthesized());
    plane.publish(t);
  };

  util::TimeSec now = start_sim;
  std::size_t idx = 0;
  while (idx < records.size() && !service::ShutdownSignal::requested()) {
    util::TimeSec next = now + tick;
    while (idx < records.size() && records[idx].true_utc < next) {
      stream.ingest(records[idx]);
      ++idx;
    }
    now = next;
    pace(now);
    step(now);
  }
  for (long i = 0;
       i < idle_ticks && !service::ShutdownSignal::requested(); ++i) {
    // The corpus has ended but the clock keeps running: feeds go silent,
    // the silence alarms fire, missing-data evidence enters the graph.
    now += tick;
    pace(now);
    step(now);
  }

  // End of stream (or a shutdown signal): drain the engine — remaining
  // symptoms diagnose, the persistence watermark seals — and publish the
  // final snapshot before the listeners close.
  std::vector<core::Diagnosis> tail = stream.drain();
  diag_total += tail.size();
  plane.add_diagnoses(tail);
  plane.set_health(stream.feed_health().status());
  plane.set_alerts(alerts.rules(), alerts.alarms(),
                   alerts.events_synthesized());
  plane.publish(now);
  std::cout << "stream complete: " << diag_total << " diagnoses, "
            << stream.injected() << " injected alert events, "
            << alerts.alarms().size() << " alarms" << std::endl;
  api_dump(plane, args);
  if (once) return 0;
  if (service::ShutdownSignal::requested()) {
    std::cout << "signal " << service::ShutdownSignal::signal_number()
              << ": drained and sealed, closing listeners" << std::endl;
    plane.stop();
    return 0;
  }
  wait_for_shutdown(plane);
  return 0;
}

int cmd_store(const std::string& action, const Args& args) {
  fs::path dir(args.get("dir"));
  if (action == "verify") {
    bool deep = args.flags.count("deep") > 0;
    storage::VerifyReport report = storage::verify_store(dir, deep);
    std::cout << "verified " << report.segments << " segment file(s), "
              << report.frames
              << " row(s), " << report.bytes << " byte(s)"
              << (deep ? ", deep stats rescan" : "") << "\n";
    if (report.torn_wal_bytes > 0) {
      std::cout << "torn WAL tail: " << report.torn_wal_bytes
                << " byte(s) (recoverable — not an error)\n";
    }
    for (const std::string& error : report.errors) {
      std::cerr << "corruption: " << error << "\n";
    }
    if (!report.ok()) {
      std::cerr << report.errors.size() << " integrity error(s)\n";
      return 1;
    }
    std::cout << "integrity OK\n";
    return 0;
  }
  if (action == "compact") {
    std::optional<std::uint64_t> seq = storage::compact_store(dir);
    if (!seq) {
      std::cout << "nothing to compact in " << dir.string() << "\n";
      return 0;
    }
    std::cout << "compacted " << dir.string() << " into segment " << *seq
              << "\n";
    return 0;
  }
  if (action == "inspect") {
    std::vector<fs::path> segments = storage::list_segments(dir);
    bool wal = fs::exists(dir / storage::kWalName);
    if (segments.empty() && !wal) {
      std::cerr << "no event log at " << dir.string() << "\n";
      return 1;
    }
    if (wal) segments.push_back(dir / storage::kWalName);
    std::uint64_t total_events = 0;
    for (const fs::path& path : segments) {
      storage::SegmentReader seg = storage::SegmentReader::open(path);
      std::cout << path.filename().string() << ": seq " << seg.seq() << ", "
                << seg.size() << " bytes, "
                << (seg.mapped() ? "mapped" : "heap") << ", ";
      if (seg.sealed()) {
        const storage::V2Footer& footer = seg.v2_footer();
        total_events += footer.event_count;
        std::size_t zone_maps = 0;
        for (const storage::V2Run& run : footer.runs) {
          zone_maps += run.blocks.size();
        }
        std::cout << "sealed v2 (columnar): " << footer.event_count
                  << " events across " << footer.runs.size() << " names, "
                  << zone_maps << " zone maps, dictionaries: "
                  << footer.locations.size() << " locations, "
                  << footer.strings.size() << " attr strings, watermark "
                  << footer.watermark << "\n";
        // Per-name run summaries: rows, zone-map block count + time range,
        // column-region bytes — what each segment actually holds.
        for (const storage::V2Run& run : footer.runs) {
          std::cout << "  " << footer.names[run.name_id] << ": " << run.count
                    << " rows, " << run.blocks.size() << " blocks ("
                    << run.block_rows << " rows/block)";
          if (!run.blocks.empty()) {
            std::cout << ", starts [" << run.blocks.front().min_start << ".."
                      << run.blocks.back().max_start << "]";
          }
          std::cout << ", max duration " << run.max_duration << ", "
                    << run.region_len() << " bytes (starts " << run.starts_len
                    << ", durations " << run.durs_len << ", locations "
                    << run.locs_len << ", attrs " << run.attrs_len << ")\n";
        }
      } else {
        storage::SegmentReader::Scan scan = seg.scan_frames();
        total_events += scan.events.size();
        std::cout << "live WAL: " << scan.events.size()
                  << " valid frames";
        if (scan.dropped_bytes > 0) {
          std::cout << ", torn tail " << scan.dropped_bytes << " bytes";
        }
        std::cout << "\n";
      }
    }
    std::cout << "total: " << total_events << " events in "
              << segments.size() << " file(s)\n";
    return 0;
  }
  usage("unknown store action '" + action + "'");
}

/// Extracts the integer after `"key":` in a span JSONL line (the format is
/// fixed — written by obs/span.cpp — so a targeted scan beats a JSON
/// parser dependency).
bool span_field(const std::string& line, const std::string& key,
                long long& out) {
  std::size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return false;
  try {
    out = std::stoll(line.substr(at + key.size() + 3));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

int cmd_spans(const Args& args) {
  fs::path in_path(args.get("in"));
  fs::path out_path(args.get("out", in_path.string() + ".trace.json"));
  std::ifstream in(in_path);
  if (!in) usage("cannot open span log " + in_path.string());
  std::ofstream out(out_path);
  if (!out) usage("cannot write " + out_path.string());
  // Chrome trace format: complete ("X") events on one process/thread
  // timeline, timestamps in microseconds since the log's epoch.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    std::size_t name_at = line.find("\"span\":\"");
    if (name_at == std::string::npos) continue;
    name_at += 8;
    std::size_t name_end = line.find('"', name_at);
    long long start_us = 0;
    long long dur_us = 0;
    if (name_end == std::string::npos ||
        !span_field(line, "start_us", start_us) ||
        !span_field(line, "dur_us", dur_us)) {
      continue;
    }
    if (count > 0) out << ",";
    out << "\n{\"name\":\"" << line.substr(name_at, name_end - name_at)
        << "\",\"ph\":\"X\",\"ts\":" << start_us << ",\"dur\":" << dur_us
        << ",\"pid\":1,\"tid\":1}";
    ++count;
  }
  out << "\n]}\n";
  std::cout << "converted " << count << " span(s) to " << out_path.string()
            << "\n";
  return 0;
}

/// --pers/--customers: how an imported topology is populated.
topology::ImportOptions import_options(const Args& args) {
  topology::ImportOptions options;
  options.pers_per_pop = static_cast<int>(args.get_long("pers", 2));
  options.customers_per_per = static_cast<int>(args.get_long("customers", 4));
  return options;
}

/// --noise: the benign-event scale factor (default 1.0).
double noise_flag(const Args& args) {
  std::string noise = args.get("noise", "1.0");
  try {
    return std::stod(noise);
  } catch (const std::exception&) {
    usage("--noise: expected a number, got '" + noise + "'");
  }
}

int cmd_benchmark(const Args& args) {
  // Topology set: explicit --topology files, else every *.graph under the
  // topology directory in name order (stable matrix row order).
  std::vector<fs::path> files;
  if (auto it = args.values.find("topology"); it != args.values.end()) {
    for (const std::string& f : it->second) files.emplace_back(f);
  } else {
    fs::path dir(args.get("topo-dir", "bench/topologies"));
    if (!fs::is_directory(dir)) {
      usage("topology directory " + dir.string() +
            " not found (pass --topology FILE or --topo-dir DIR)");
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".graph") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
  }
  if (files.empty()) usage("no topology files to benchmark");

  apps::BenchmarkOptions options;
  options.days = static_cast<int>(args.get_long("days", 3));
  options.target_symptoms = static_cast<int>(args.get_long("symptoms", 120));
  options.seed = static_cast<std::uint64_t>(args.get_long("seed", 29));
  options.threads = args.get_threads(0);
  options.noise = noise_flag(args);
  options.timing = !args.flags.count("deterministic");
  if (auto it = args.values.find("scenarios"); it != args.values.end()) {
    for (std::string_view part : util::split(it->second.back(), ',')) {
      options.scenarios.push_back(
          sim::parse_scenario_class(std::string(util::trim(part))));
    }
  }

  const topology::ImportOptions imports = import_options(args);
  std::deque<topology::Network> networks;  // stable addresses
  std::vector<apps::BenchmarkTopology> topologies;
  for (const fs::path& file : files) {
    topology::ImportStats stats;
    networks.push_back(
        topology::import_repetita_file(file.string(), imports, &stats));
    topologies.push_back({file.stem().string(), &networks.back()});
    std::cout << "imported " << file.stem().string() << ": "
              << stats.graph_nodes << " nodes, " << stats.graph_edges
              << " edges -> " << stats.backbone_links << " backbone links ("
              << stats.parallel_groups << " SRLG group(s))\n";
  }

  apps::BenchmarkResult result = apps::run_benchmark(topologies, options);
  std::cout << "\n"
            << apps::render_scorecard_table(result).render(
                   "G-RCA benchmark scorecard");

  std::size_t truth = 0, diagnosed = 0, correct = 0;
  for (const apps::BenchmarkCell& c : result.cells) {
    truth += c.truth_total;
    diagnosed += c.diagnosed;
    correct += c.correct;
  }
  double p = diagnosed ? static_cast<double>(correct) / diagnosed : 0.0;
  double r = truth ? static_cast<double>(correct) / truth : 0.0;
  double f1 = p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
  std::cout << "\noverall: precision " << util::format_double(p, 4)
            << ", recall " << util::format_double(r, 4) << ", f1 "
            << util::format_double(f1, 4) << " over " << result.cells.size()
            << " cell(s)\n";

  write_output(args, "out",
               [&] { return apps::render_scorecard_json(result); },
               "scorecard");
  write_output(args, "gate-out",
               [&] { return apps::render_gate_json(result); }, "gate metrics");
  return 0;
}

int cmd_learn(const Args& args) {
  open_span_log(args);

  learn::LearnDriverOptions options;
  options.deterministic = args.flags.count("deterministic") > 0;
  long max_iterations = args.get_long("max-iterations", 8);
  if (max_iterations < 0) usage("--max-iterations must be >= 0");
  options.loop.max_iterations = static_cast<std::size_t>(max_iterations);
  long budget = args.get_long("budget", 24);
  if (budget < 1) usage("--budget must be >= 1");
  options.loop.candidate_budget = static_cast<std::size_t>(budget);
  options.loop.threads = args.get_threads(0);
  try {
    options.loop.mine.nice.min_score =
        std::stod(args.get("min-score", "0.15"));
    options.loop.mine.nice.alpha = std::stod(args.get("alpha", "0.01"));
  } catch (const std::exception&) {
    usage("--min-score/--alpha: expected a number");
  }
  long permutations = args.get_long("permutations", 200);
  if (permutations < 1) usage("--permutations must be >= 1");
  options.loop.mine.nice.permutations =
      static_cast<std::size_t>(permutations);
  if (auto it = args.values.find("ablate"); it != args.values.end()) {
    for (const std::string& spec : it->second) {
      std::size_t arrow = spec.find("->");
      std::string symptom(util::trim(spec.substr(0, arrow)));
      std::string diagnostic(
          arrow == std::string::npos ? "" : util::trim(spec.substr(arrow + 2)));
      if (arrow == std::string::npos || symptom.empty() || diagnostic.empty()) {
        usage("--ablate expects 'SYMPTOM->DIAGNOSTIC', got '" + spec + "'");
      }
      options.ablate.emplace_back(std::move(symptom), std::move(diagnostic));
    }
  }

  // Input: a recorded corpus (--study/--data) or a regenerated benchmark
  // cell (--topology/--scenario) with benchmark-identical cell seeding.
  sim::ReplayCorpus corpus;
  const Study* study = nullptr;
  if (auto it = args.values.find("topology"); it != args.values.end()) {
    fs::path file(it->second.back());
    sim::ScenarioClass cls = sim::parse_scenario_class(args.get("scenario"));
    study = &find_study(sim::scenario_app(cls));
    topology::ImportStats stats;
    topology::Network net = topology::import_repetita_file(
        file.string(), import_options(args), &stats);
    std::cout << "imported " << file.stem().string() << ": "
              << stats.graph_nodes << " nodes, " << stats.graph_edges
              << " edges -> " << stats.backbone_links << " backbone links\n";
    sim::ScenarioParams params;
    params.days = static_cast<int>(args.get_long("days", 3));
    params.target_symptoms = static_cast<int>(args.get_long("symptoms", 120));
    params.noise = noise_flag(args);
    params.seed = apps::cell_seed(
        static_cast<std::uint64_t>(args.get_long("seed", 29)),
        file.stem().string(), sim::to_string(cls));
    sim::StudyOutput cell = sim::run_scenario(cls, net, params);
    options.label = file.stem().string() + "." + sim::to_string(cls);
    options.seed = params.seed;
    corpus = {std::move(net), std::move(cell.records), std::move(cell.truth)};
  } else {
    study = &find_study(args.get("study"));
    corpus = sim::read_corpus(fs::path(args.get("data")));
    options.label = std::string("study:") + study->name;
    options.seed = static_cast<std::uint64_t>(args.get_long("seed", 0));
  }
  if (corpus.truth.empty()) {
    usage("learning needs ground-truth labels; the corpus has none");
  }
  StudyData data(std::move(corpus), args, *study);

  learn::LearnDriver driver(options);
  learn::LearnRun run =
      driver.run(data.pipeline, study_graph(args, *study), data.corpus.truth,
                 study->canonical);
  std::cout << learn::render_learn_text(run);

  write_output(args, "out", [&] { return learn::render_learn_json(run); },
               "report");
  write_output(args, "gate-out",
               [&] { return learn::render_learn_gate_json(run); },
               "gate metrics");
  write_output(args, "rules-out",
               [&] { return learn::render_learned_rules_dsl(run); },
               "learned rules");
  write_metrics_out(args);

  bool ok = run.options.ablate.empty() ||
            run.ablated_relearned == run.options.ablate.size();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::string command = argv[1];
  try {
    if (command == "version" || command == "--version") {
      std::cout << "grca " << GRCA_VERSION << "\n";
      return 0;
    }
    if (command == "dump-library") {
      Args::parse(argc, argv, 2, command, {});
      return cmd_dump_library();
    }
    if (command == "simulate") {
      return cmd_simulate(Args::parse(argc, argv, 2, command,
                                      kCorpusFlags + FlagSet{"study", "out",
                                                             "store-out"},
                                      {"paper-scale"}));
    }
    if (command == "diagnose") {
      return cmd_diagnose(Args::parse(argc, argv, 2, command,
                                      kStudyRunFlags +
                                          FlagSet{"drill", "metrics-out"},
                                      {"trend", "score"}));
    }
    if (command == "metrics") {
      return cmd_metrics(Args::parse(argc, argv, 2, command,
                                     kStudyRunFlags + FlagSet{"format"}));
    }
    if (command == "calibrate") {
      return cmd_calibrate(Args::parse(
          argc, argv, 2, command,
          {"study", "data", "store", "symptom", "diagnostic", "join"}));
    }
    if (command == "replay") {
      return cmd_replay(Args::parse(
          argc, argv, 2, command,
          kCorpusFlags + kStreamFlags +
              FlagSet{"study", "data", "source-lag", "jitter", "report-out",
                      "metrics-out", "min-rate"},
          {"no-truth", "paper-scale"}));
    }
    if (command == "serve") {
      return cmd_serve(Args::parse(
          argc, argv, 2, command,
          kCorpusFlags + kStreamFlags +
              FlagSet{"study", "data", "port", "port-file", "http-threads",
                      "api-dump", "alert-rules", "idle-ticks"},
          {"follow", "once", "public", "paper-scale"}));
    }
    if (command == "store") {
      if (argc < 3) usage("store needs an action: inspect|verify|compact");
      std::string action = argv[2];
      return cmd_store(action,
                       Args::parse(argc, argv, 3, "store " + action, {"dir"},
                                   action == "verify" ? FlagSet{"deep"}
                                                      : FlagSet{}));
    }
    if (command == "spans") {
      return cmd_spans(Args::parse(argc, argv, 2, command, {"in", "out"}));
    }
    if (command == "benchmark") {
      return cmd_benchmark(Args::parse(
          argc, argv, 2, command,
          {"topology", "topo-dir", "scenarios", "days", "symptoms", "seed",
           "threads", "noise", "pers", "customers", "out", "gate-out"},
          {"deterministic"}));
    }
    if (command == "learn") {
      return cmd_learn(Args::parse(
          argc, argv, 2, command,
          {"study", "data", "store", "topology", "scenario", "days",
           "symptoms", "noise", "pers", "customers", "seed", "ablate", "dsl",
           "max-iterations", "budget", "min-score", "alpha", "permutations",
           "threads", "out", "gate-out", "rules-out", "metrics-out",
           "span-log"},
          {"deterministic"}));
    }
    usage("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
