// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Sharded-diagnosis scaling gate: imports the GEANT topology, generates a
// diagnosis-heavy BGP study corpus over it, persists the extracted store,
// then runs the `grca shard` coordinator (fork mode, in-binary workers) at
// 1/2/4/8 workers against the single-process reference. Fails unless
//  (a) every sharded run's merged diagnosis vector is byte-identical
//      (field-for-field fingerprints) to the single-process run — the
//      correctness gate, enforced on every machine, and
//  (b) on hardware with >= 8 cores, the 8-worker diagnose phase (max
//      per-worker diagnosis wall — the part sharding parallelizes) beats
//      the 1-worker diagnose phase by at least kRequiredSpeedup. The
//      per-worker corpus load (TSV parse + routing replay, needed for the
//      LocationMapper regardless of slice size) is reported separately:
//      it is constant per process, so overall wall follows Amdahl on it.
//      On smaller machines the speedups are recorded but not enforced
//      (workers time-slice a core and measure scheduling, not scaling).
// Reports JSON (default BENCH_shard.json) for the CI artifact trail;
// tools/bench_diff.py gates on `identical` and the speedup/balance keys.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/bgp_flap_app.h"
#include "apps/pipeline.h"
#include "shard/coordinator.h"
#include "simulation/archive.h"
#include "simulation/workloads.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "topology/config.h"
#include "topology/import.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace grca;

constexpr double kRequiredSpeedup = 5.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Pointer-free rendering of everything the result browser surfaces, so
/// single-process and merged cross-process diagnoses compare exactly.
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

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_shard.json";
  std::string topo_file = "bench/topologies/Geant.graph";
  int symptoms = 4000;
  int days = 10;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out_file = argv[i + 1];
    if (arg.rfind("--out=", 0) == 0) out_file = arg.substr(6);
    if (arg == "--topology" && i + 1 < argc) topo_file = argv[i + 1];
    if (arg.rfind("--topology=", 0) == 0) topo_file = arg.substr(11);
    if (arg == "--symptoms" && i + 1 < argc) symptoms = std::stoi(argv[i + 1]);
    if (arg.rfind("--symptoms=", 0) == 0) symptoms = std::stoi(arg.substr(11));
    if (arg == "--days" && i + 1 < argc) days = std::stoi(argv[i + 1]);
    if (arg.rfind("--days=", 0) == 0) days = std::stoi(arg.substr(7));
  }

  // World: the imported GEANT backbone with synthetic PE/customer fan-out,
  // and the config-derived RCA twin the pipeline diagnoses against.
  topology::ImportOptions import_options;
  import_options.pers_per_pop = 2;
  import_options.customers_per_per = 4;
  topology::ImportStats stats;
  topology::Network sim_net =
      topology::import_repetita_file(topo_file, import_options, &stats);
  std::printf("imported %s: %d nodes, %d edges -> %d backbone links\n",
              topo_file.c_str(), stats.graph_nodes, stats.graph_edges,
              stats.backbone_links);
  topology::Network rca_net = topology::build_network_from_configs(
      topology::render_all_configs(sim_net),
      topology::render_layer1_inventory(sim_net));

  sim::BgpStudyParams params;
  params.days = days;
  params.target_symptoms = symptoms;
  params.noise = 1.0;
  params.seed = 23;
  sim::StudyOutput study = sim::run_bgp_study(sim_net, params);

  namespace fs = std::filesystem;
  fs::path work = fs::temp_directory_path() / "grca-bench-shard";
  fs::remove_all(work);
  fs::path data_dir = work / "data";
  fs::path store_dir = work / "store";
  sim::write_corpus(data_dir, sim_net, study.records, study.truth);
  {
    apps::Pipeline fresh(rca_net, study.records);
    util::TimeSec watermark = 0;
    for (const std::string& name : fresh.store().event_names()) {
      for (const core::EventInstance& e : fresh.store().all(name)) {
        watermark = std::max(watermark, e.when.start + 1);
      }
    }
    storage::write_sealed_store(store_dir, fresh.store(), watermark);
  }

  // Single-process reference over the same persisted store: what `grca
  // diagnose --store` runs, and the byte-identity anchor for every merge.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::string> reference;
  {
    auto store = std::make_shared<storage::PersistentEventStore>(
        storage::PersistentEventStore::open(store_dir));
    apps::Pipeline pipeline(rca_net, study.records, store);
    reference =
        fingerprints(pipeline.diagnose_all(apps::bgp::build_graph(), 1));
  }
  const double single_s = seconds_since(t0);
  std::printf("single-process: %zu symptoms diagnosed in %.3fs\n",
              reference.size(), single_s);

  const unsigned cores = std::thread::hardware_concurrency();
  const std::vector<std::uint32_t> worker_counts = {1, 2, 4, 8};
  std::vector<double> walls;
  std::vector<double> diagnose_max;
  bool identical = true;
  double skew = 0.0;
  std::uint64_t boundary = 0, locations = 0;
  for (std::uint32_t w : worker_counts) {
    shard::ShardOptions options;
    options.study = "bgp";
    options.data_dir = data_dir;
    options.store_dir = store_dir;
    options.workers = w;
    options.fork_workers = true;  // this binary is not `grca`
    t0 = std::chrono::steady_clock::now();
    shard::ShardReport report = shard::run_sharded(options);
    walls.push_back(seconds_since(t0));
    if (!report.ok) {
      std::fprintf(stderr, "FAIL: sharded run (%u workers) failed\n%s", w,
                   report.render_status().c_str());
      return 1;
    }
    identical &= fingerprints(report.diagnoses) == reference;
    double dmax = 0.0;
    for (const shard::WorkerStatus& ws : report.workers) {
      dmax = std::max(dmax, ws.diagnose_seconds);
    }
    diagnose_max.push_back(dmax);
    if (w == 8) {
      skew = report.partition_skew;
      boundary = report.boundary_locations;
      locations = report.location_count;
    }
  }

  const double speedup_8 = walls.back() > 0 ? walls.front() / walls.back()
                                            : 0.0;
  const double speedup_vs_single =
      walls.back() > 0 ? single_s / walls.back() : 0.0;
  // Pure diagnosis-phase scaling (max worker diagnose wall, excludes the
  // per-process corpus/store load): what extra cores actually buy.
  const double diagnose_speedup_8 =
      diagnose_max.back() > 0 ? diagnose_max.front() / diagnose_max.back()
                              : 0.0;
  const bool enforce_speedup = cores >= 8;
  const bool fast_enough =
      !enforce_speedup || diagnose_speedup_8 >= kRequiredSpeedup;

  util::TextTable table({"Workers", "Wall (s)", "Diagnose max (s)",
                         "Speedup vs 1"});
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    table.add_row({std::to_string(worker_counts[i]),
                   util::format_double(walls[i], 3),
                   util::format_double(diagnose_max[i], 3),
                   util::format_double(walls[i] > 0 ? walls.front() / walls[i]
                                                    : 0.0,
                                       2) +
                       "x"});
  }
  std::fputs(table
                 .render("sharded diagnosis scaling (" +
                         std::to_string(reference.size()) + " symptoms, " +
                         std::to_string(cores) + " cores)")
                 .c_str(),
             stdout);
  std::printf("merged vs single-process: %s\n",
              identical ? "byte-identical" : "DIVERGED");
  std::printf("speedup at 8 workers: %.2fx wall, %.2fx diagnose phase "
              "(gate: >= %.1fx, %s on %u cores)\n",
              speedup_8, diagnose_speedup_8, kRequiredSpeedup,
              enforce_speedup ? "enforced" : "not enforced", cores);
  std::printf("partition: %llu locations, %llu replicated, skew %.3f\n",
              static_cast<unsigned long long>(locations),
              static_cast<unsigned long long>(boundary), skew);

  {
    std::ofstream out(out_file);
    out << "{\n"
        << "  \"symptoms\": " << reference.size() << ",\n"
        << "  \"cores\": " << cores << ",\n"
        << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"single_seconds\": " << single_s << ",\n"
        << "  \"wall_1_seconds\": " << walls[0] << ",\n"
        << "  \"wall_2_seconds\": " << walls[1] << ",\n"
        << "  \"wall_4_seconds\": " << walls[2] << ",\n"
        << "  \"wall_8_seconds\": " << walls[3] << ",\n"
        << "  \"speedup_8_workers\": " << speedup_8 << ",\n"
        << "  \"diagnose_phase_speedup_8\": " << diagnose_speedup_8 << ",\n"
        << "  \"speedup_vs_single_process\": " << speedup_vs_single << ",\n"
        << "  \"speedup_gate_enforced\": "
        << (enforce_speedup ? "true" : "false") << ",\n"
        << "  \"partition_locations\": " << locations << ",\n"
        << "  \"partition_replicated\": " << boundary << ",\n"
        << "  \"partition_balance_ratio\": " << (skew > 0 ? 1.0 / skew : 0.0)
        << "\n}\n";
  }
  std::printf("report written to %s\n", out_file.c_str());

  fs::remove_all(work);
  if (!identical) {
    std::fprintf(stderr, "FAIL: sharded merge diverged from single-process "
                         "diagnosis\n");
    return 1;
  }
  if (!fast_enough) {
    std::fprintf(stderr,
                 "FAIL: 8-worker diagnose-phase speedup %.2fx below "
                 "required %.1fx\n",
                 diagnose_speedup_8, kRequiredSpeedup);
    return 1;
  }
  return 0;
}
