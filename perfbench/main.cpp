// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// grca_perfbench: the records-in -> verdicts-out benchmark binary.
//
//   grca_perfbench gen --workload W --seed S --out DIR [--smoke]
//       Writes the workload's corpus and the reference verdicts of its
//       study's workloads (generator time, never measured).
//   grca_perfbench run --workload W --seed S --seconds T --trace 0|1
//                      --corpus DIR --work DIR
//                      [--trace-out FILE] [--corrupt-verdict]
//       Sets the program up (at least kMinSetups times; setup_s is the
//       median), loads the reference verdicts `gen` wrote, then repeats the
//       timed path for T seconds and checks every pass. The last stdout
//       line is one JSON object:
//       {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
//       the end-to-end metrics, --trace 1 the per-layer ones (traced and
//       untraced passes alternate, so the tracing overhead is measured).
//       Exits 1 when a check fails.
//
// run.py builds this binary and generates the corpus; use that.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Pass;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

// Share of the measuring time that repeated set-ups may take.
constexpr double kSetupShare = 0.2;
// Set-ups per run, at least; setup_s is their median.
constexpr std::size_t kMinSetups = 5;

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"records_per_s", "1/s"}, {"symptom_p50_us", "us"},
    {"peak_rss_mb", "MB"},    {"setup_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"telemetry.read.busy_s", "s"},
    {"telemetry.read.records", "count"},
    {"collector.normalize.busy_s", "s"},
    {"collector.normalize.records_out", "count"},
    {"collector.normalize.rejected", "count"},
    {"collector.index.busy_s", "s"},
    {"collector.routing.busy_s", "s"},
    {"collector.routing.records_skipped", "count"},
    {"collector.extract.busy_s", "s"},
    {"collector.extract.events_out", "count"},
    {"core.store.warm.busy_s", "s"},
    {"core.store.warm.events", "count"},
    {"storage.open.busy_s", "s"},
    {"storage.seal.busy_s", "s"},
    {"storage.seal.bytes", "bytes"},
    {"core.engine.busy_s", "s"},
    {"core.engine.symptoms", "count"},
    {"core.engine.rule_evals", "count"},
    {"core.engine.evidence_matches", "count"},
    {"core.engine.symptom_p99_us", "us"},
    {"core.join_cache.hit_ratio", "ratio"},
    {"core.join_cache.lookups", "count"},
    {"core.join_cache.entries", "count"},
    {"core.browser.render.busy_s", "s"},
    {"apps.streaming.ingest.busy_s", "s"},
    {"apps.streaming.ingest.records", "count"},
    {"apps.streaming.ingest.dropped_late", "count"},
    {"apps.streaming.advance.busy_s", "s"},
    {"apps.streaming.advance.ticks", "count"},
    {"apps.streaming.advance.diagnose_s", "s"},
    {"apps.streaming.advance.freeze_s", "s"},
    {"apps.streaming.advance.events_stored", "count"},
    {"apps.streaming.advance.p50_ms", "ms"},
    {"apps.streaming.advance.p99_ms", "ms"},
    {"apps.streaming.drain.busy_s", "s"},
    {"trace.records_per_s_traced", "1/s"},
    {"trace.records_per_s_untraced", "1/s"},
    {"trace.overhead_share", "ratio"},
    {"trace.span_coverage", "ratio"},
    {"trace.glue_s", "s"},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "grca_perfbench: " << error << "\n"
            << "usage: grca_perfbench gen --workload W --seed S --out DIR "
               "[--smoke]\n"
            << "       grca_perfbench run --workload W --seed S --seconds T "
               "--trace 0|1 --corpus DIR --work DIR "
               "[--trace-out FILE] [--corrupt-verdict]\n";
  std::exit(2);
}

struct Args {
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) > 0; }
  std::string get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) usage("missing --" + key);
    return it->second;
  }
  long number(const std::string& key, long fallback) const {
    auto it = values.find(key);
    if (it == values.end()) return fallback;
    try {
      std::size_t used = 0;
      long v = std::stol(it->second, &used);
      if (used == it->second.size()) return v;
    } catch (const std::exception&) {
    }
    usage("--" + key + ": expected an integer, got '" + it->second + "'");
  }
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage("unexpected argument " + arg);
    std::string key = arg.substr(2);
    if (key == "smoke" || key == "corrupt-verdict") {
      args.values[key] = "1";
    } else {
      if (i + 1 >= argc) usage("missing value for --" + arg.substr(2));
      args.values[key] = argv[++i];
    }
  }
  return args;
}

perfbench::Kind kind_of(const Args& args) {
  auto kind = perfbench::parse_kind(args.get("workload"));
  if (!kind) usage("unknown workload '" + args.get("workload") + "'");
  return *kind;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The fastest over passes of each sample position: passes diagnose the
/// same symptoms (and tick the same clock) in the same order, so position i
/// is one symptom (tick), and its fastest time is its cost when the machine
/// did not slow it down. Pools the samples instead if the passes disagree
/// in length.
std::vector<double> min_by_position(const std::vector<Pass>& passes,
                                    std::vector<double> Pass::*samples) {
  const std::size_t n = (passes.front().*samples).size();
  std::vector<double> out;
  for (const Pass& p : passes) {
    if ((p.*samples).size() != n) {
      for (const Pass& q : passes) {
        out.insert(out.end(), (q.*samples).begin(), (q.*samples).end());
      }
      return out;
    }
  }
  std::vector<double> column(passes.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < passes.size(); ++k) {
      column[k] = (passes[k].*samples)[i];
    }
    out.push_back(*std::min_element(column.begin(), column.end()));
  }
  return out;
}

int cmd_gen(const Args& args) {
  perfbench::Kind kind = kind_of(args);
  std::uint64_t seed = static_cast<std::uint64_t>(
      args.number("seed", static_cast<long>(perfbench::default_seed(kind))));
  perfbench::generate_corpus(perfbench::study_of(kind), seed,
                             args.has("smoke"), args.get("out"));
  return 0;
}

int cmd_run(const Args& args) {
  perfbench::Config config;
  config.kind = kind_of(args);
  config.seed = static_cast<std::uint64_t>(args.number(
      "seed", static_cast<long>(perfbench::default_seed(config.kind))));
  config.corpus = args.get("corpus");
  config.work = args.get("work");
  config.corrupt_verdict = args.has("corrupt-verdict");
  const double seconds = static_cast<double>(args.number("seconds", 10));
  const long trace = args.number("trace", 0);
  if (seconds <= 0) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");

  std::unique_ptr<perfbench::Workload> workload =
      perfbench::make_workload(config);
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(t0));
  };
  timed_setup();
  workload->prepare();

  // Passes until the time is up: untraced only, or (--trace 1) untraced and
  // traced alternating, each kind at least once. More set-ups are spread
  // between the passes (up to kSetupShare of the time), so setup_s samples
  // the same stretch of machine time as the passes do. Peak memory is taken
  // after the first set-up and the first pass's timed path (before its
  // repeat rounds, which hold a second copy): that sequence is the same in
  // every run, while later set-ups land wherever the clock puts them and
  // change how the heap fragments.
  double peak_rss_mb = 0.0;
  Tracer tracer;
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  std::vector<std::uint32_t> traced_ids;
  const auto start = Clock::now();
  double setup_total = setup_s.front();
  for (std::uint32_t id = 0;; ++id) {
    const bool want_trace = trace == 1 && id % 2 == 1;
    tracer.set_enabled(want_trace);
    tracer.begin_run(id);
    Pass pass = workload->run(tracer);
    tracer.set_enabled(false);
    if (id == 0) peak_rss_mb = pass.peak_rss_mb;
    (want_trace ? traced : plain).push_back(std::move(pass));
    if (want_trace) traced_ids.push_back(id);
    const double elapsed = seconds_since(start);
    if (elapsed >= seconds && (trace == 0 || !traced.empty())) break;
    if (setup_total < kSetupShare * elapsed) {
      timed_setup();
      setup_total += setup_s.back();
    }
  }
  while (setup_s.size() < kMinSetups) timed_setup();

  // Checks: every pass passes, with one fingerprint.
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string fingerprint;
  std::string problem;
  for (const std::vector<Pass>* group : {&plain, &traced}) {
    for (const Pass& p : *group) {
      attempted = std::max(attempted, p.check.attempted);
      failed = std::max(failed, p.check.failed);
      if (!p.check.problem.empty()) {
        correct = false;
        if (problem.empty()) problem = p.check.problem;
      }
      if (fingerprint.empty()) fingerprint = p.check.fingerprint;
      if (p.check.fingerprint != fingerprint) {
        correct = false;
        if (problem.empty()) problem = "verdict fingerprint changed";
      }
    }
  }
  const Pass& last = plain.back();

  // Records read over wall time, both summed over the passes. The host runs
  // a pass at one of two speeds; the median pass jumped between them from
  // run to run, where the sums move with the share of each (README.md,
  // "Noise").
  auto throughput = [](const std::vector<Pass>& passes) {
    double records = 0.0;
    double wall_s = 0.0;
    for (const Pass& p : passes) {
      records += static_cast<double>(p.records);
      wall_s += p.wall_s;
    }
    return records / wall_s;
  };
  std::vector<double> pass_rates;  // for the log line
  for (const Pass& p : plain) {
    pass_rates.push_back(static_cast<double>(p.records) / p.wall_s);
  }
  std::sort(pass_rates.begin(), pass_rates.end());
  // Set-up a pass does before its timer (the stream's StreamingRca) is
  // part of set-up: its median is added to that of the set-ups.
  std::vector<double> pass_setup_s;
  for (const std::vector<Pass>* group : {&plain, &traced}) {
    for (const Pass& p : *group) pass_setup_s.push_back(p.setup_s);
  }
  // p50 and p99 over symptoms (ticks) of each one's fastest untraced call
  // (batch passes add their repeat rounds). On a shared 4-vCPU VM a pass
  // runs at one of two speeds, up to 1.7x apart, switching every few
  // seconds; the median over passes followed the mix of the two and moved
  // by 0.30 between two sets of runs, the fastest time by 0.04 (README.md,
  // "Noise").
  const std::vector<double> symptom_us =
      min_by_position(plain, &Pass::symptom_us);
  const std::vector<double> tick_ms = min_by_position(plain, &Pass::tick_ms);

  std::map<std::string, double> values;
  if (trace == 0) {
    values["records_per_s"] = throughput(plain);
    values["symptom_p50_us"] = percentile(symptom_us, 0.50);
    values["peak_rss_mb"] = peak_rss_mb;
    values["setup_s"] = median(setup_s) + median(pass_setup_s);
  } else {
    for (const Metric& m : kPerLayer) values[m.name] = 0.0;
    // Counts repeat exactly from pass to pass; the few that are times
    // (the stream's diagnose and freeze split) do not, so every value is
    // the median over the traced passes, like the busy times below.
    std::map<std::string, std::vector<double>> counts;
    for (const Pass& p : traced) {
      for (const auto& [name, v] : p.counts) counts[name].push_back(v);
    }
    for (const auto& [name, v] : counts) {
      if (values.count(name)) values[name] = median(v);
    }
    // Busy time per layer: median over traced passes of the span totals.
    std::map<std::string, std::vector<double>> busy;
    std::vector<double> coverage;
    std::vector<double> glue;
    for (std::uint32_t id : traced_ids) {
      Tracer::Totals t = tracer.totals(id);
      double wall = t.busy_s["path"];
      double layers = 0.0;
      for (const auto& [name, self] : t.self_s) {
        if (name != "path") layers += self;
      }
      coverage.push_back(wall > 0 ? layers / wall : 0.0);
      glue.push_back(t.self_s["path"]);
      for (const Metric& m : kPerLayer) {
        std::string name = m.name;
        if (name.size() > 7 && name.compare(name.size() - 7, 7, ".busy_s") == 0) {
          busy[name].push_back(t.busy_s[name.substr(0, name.size() - 7)]);
        }
      }
    }
    for (const auto& [name, v] : busy) values[name] = median(v);
    for (const auto& [name, v] : workload->setup_counts()) values[name] = v;
    values["core.engine.symptom_p99_us"] = percentile(symptom_us, 0.99);
    values["apps.streaming.advance.p50_ms"] = percentile(tick_ms, 0.50);
    values["apps.streaming.advance.p99_ms"] = percentile(tick_ms, 0.99);
    values["trace.records_per_s_traced"] = throughput(traced);
    values["trace.records_per_s_untraced"] = throughput(plain);
    values["trace.overhead_share"] =
        1.0 - values["trace.records_per_s_traced"] /
                  values["trace.records_per_s_untraced"];
    values["trace.span_coverage"] = median(coverage);
    values["trace.glue_s"] = median(glue);
    if (args.has("trace-out") && !tracer.write_jsonl(args.get("trace-out"))) {
      std::cerr << "grca_perfbench: cannot write " << args.get("trace-out")
                << "\n";
      return 1;
    }
  }

  std::printf(
      "perfbench %s seed %llu: %zu untraced + %zu traced pass(es), %zu "
      "records/pass, %zu/%zu symptoms failed (truth %zu, vs reference %zu), "
      "verdict fingerprint %s; p50 and p99 over %zu symptoms and %zu ticks, "
      "each the fastest over %zu untraced passes (batch: and their repeat "
      "rounds); %zu set-ups\n",
      args.get("workload").c_str(), static_cast<unsigned long long>(config.seed),
      plain.size(), traced.size(), last.records, failed, attempted,
      last.check.truth_wrong, last.check.mismatched, fingerprint.c_str(),
      symptom_us.size(), tick_ms.size(), plain.size(), setup_s.size());
  std::printf("perfbench: untraced records/s per pass min %.0f median %.0f "
              "max %.0f\n",
              pass_rates.front(), median(pass_rates), pass_rates.back());
  if (auto it = last.counts.find("apps.streaming.detection_max_s");
      it != last.counts.end()) {
    std::printf("perfbench: sim-time detection latency max %.0f s\n",
                it->second);
  }
  if (!correct) std::printf("perfbench: CHECK FAILED: %s\n", problem.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : trace == 0 ? std::span<const Metric>(kEndToEnd)
                                    : std::span<const Metric>(kPerLayer)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", values[m.name]);
    json += first ? "" : ", ";
    json += std::string("\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  std::string command = argv[1];
  try {
    if (command == "gen") return cmd_gen(parse(argc, argv));
    if (command == "run") return cmd_run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "grca_perfbench: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command '" + command + "'");
}
