// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Feed replay at maximum rate: replays the two-week BGP study through the
// FeedReplayer with streaming diagnosis inline (1 thread) and over a
// 4-thread pool, and reports throughput and ingest-latency percentiles for
// each. Two hard gates ride along: the diagnoses must be byte-identical,
// in emission order, at both thread counts, and the final truth-checked
// run must conserve every record and match the batch pipeline
// verdict-for-verdict. Writes the gated run's report as JSON (default
// BENCH_replay.json) for the CI artifact trail.
//
// It also times ingest alone — the study written to TSV in memory, then
// read_stream + normalize_stream + RecordIndex, best of 20 runs — and writes
// ingest_records_per_sec to BENCH_ingest.json beside the replay report.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bgp_flap_app.h"
#include "apps/replay.h"
#include "bench/bench_util.h"
#include "collector/normalizer.h"
#include "collector/record_index.h"
#include "simulation/workloads.h"
#include "telemetry/records_io.h"
#include "util/table.h"

namespace {

/// One "key@start -> cause" line per diagnosis, in emission order.
std::string fingerprint(const std::vector<grca::core::Diagnosis>& diagnoses) {
  std::string out;
  for (const grca::core::Diagnosis& d : diagnoses) {
    out += d.symptom.where.key() + "@" + std::to_string(d.symptom.when.start) +
           " -> " + d.primary() + "\n";
  }
  return out;
}

/// Records per second from TSV text to a RecordIndex, best of 20 runs.
double ingest_records_per_sec(const grca::topology::Network& net,
                              const grca::telemetry::RecordStream& records) {
  using namespace grca;
  std::ostringstream tsv;
  telemetry::write_stream(tsv, records);
  const std::string text = tsv.str();
  double best = 0.0;
  for (int run = 0; run < 20; ++run) {
    std::istringstream in(text);
    const auto t0 = std::chrono::steady_clock::now();
    collector::RecordIndex index(
        collector::Normalizer(net).normalize_stream(telemetry::read_stream(in)));
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    best = std::max(best, static_cast<double>(index.size()) / seconds);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grca;
  std::string out_file = "BENCH_replay.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out_file = argv[i + 1];
    if (arg.rfind("--out=", 0) == 0) out_file = arg.substr(6);
  }

  bench::World world(bench::bench_params(argc, argv));
  sim::BgpStudyParams params;
  params.days = 14;
  params.target_symptoms = 1000;
  sim::StudyOutput study = sim::run_bgp_study(world.sim_net, params);
  const double ingest_rate =
      ingest_records_per_sec(world.rca_net, study.records);
  std::printf("ingest (read + normalize + index): %.0f records/s\n",
              ingest_rate);
  {
    const std::string ingest_file =
        (std::filesystem::path(out_file).parent_path() / "BENCH_ingest.json")
            .string();
    std::ofstream out(ingest_file);
    out << "{\n  \"records\": " << study.records.size()
        << ",\n  \"ingest_records_per_sec\": " << std::llround(ingest_rate)
        << "\n}\n";
    std::printf("ingest report written to %s\n", ingest_file.c_str());
  }
  std::printf("replaying %zu records (%d days) at max rate\n",
              study.records.size(), params.days);

  apps::ReplayOptions base;
  base.stream.freeze_horizon = 900;
  base.stream.settle = 400;
  base.stream.extract.flap_pair_window = 600;
  base.source_lag = 120;
  base.record_jitter = 60;

  util::TextTable table({"Diagnosis threads", "Wall (s)", "Records/s",
                         "M records/min", "p50 (us)", "p99 (us)",
                         "Conserved"});
  std::string reference;
  bool deterministic = true;
  bool conserved = true;
  for (unsigned threads : {1u, 4u}) {
    apps::ReplayOptions options = base;
    options.stream.threads = threads;
    apps::FeedReplayer replayer(world.rca_net, options);
    apps::ReplayReport report =
        replayer.replay(study.records, apps::bgp::build_graph());
    conserved &= report.conservation.conserved();
    std::string fp = fingerprint(report.diagnoses);
    if (reference.empty()) {
      reference = fp;
    } else if (fp != reference) {
      deterministic = false;
    }
    table.add_row({std::to_string(threads),
                   util::format_double(report.wall_seconds, 3),
                   util::format_double(report.records_per_sec, 0),
                   util::format_double(report.records_per_min() / 1e6, 2),
                   util::format_double(report.ingest_p50_us, 2),
                   util::format_double(report.ingest_p99_us, 2),
                   report.conservation.conserved() ? "yes" : "NO"});
  }
  std::fputs(table.render("feed replay scaling (max rate)").c_str(), stdout);
  std::printf("diagnoses at 1 and 4 threads: %s\n",
              deterministic ? "byte-identical" : "DIVERGED");

  // The gated run: truth coverage + batch verdict diff, archived as JSON.
  apps::FeedReplayer replayer(world.rca_net, base);
  apps::ReplayReport report =
      replayer.replay(study.records, apps::bgp::build_graph(), &study.truth,
                      apps::bgp::canonical_cause);
  std::fputs(apps::render_text(report).c_str(), stdout);
  {
    std::ofstream out(out_file);
    out << apps::render_json(report);
    std::printf("report written to %s\n", out_file.c_str());
  }
  bench::write_metrics_if_requested(argc, argv);
  return (deterministic && conserved && report.passed()) ? 0 : 1;
}
