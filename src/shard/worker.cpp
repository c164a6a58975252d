// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "shard/worker.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <numeric>
#include <vector>

#include "apps/bgp_flap_app.h"
#include "apps/cdn_app.h"
#include "apps/innet_app.h"
#include "apps/pim_app.h"
#include "apps/pipeline.h"
#include "core/rule_dsl.h"
#include "shard/wire.h"
#include "simulation/archive.h"
#include "storage/persistent_store.h"
#include "util/error.h"

namespace grca::shard {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

core::DiagnosisGraph study_graph(const std::string& study) {
  if (study == "bgp") return apps::bgp::build_graph();
  if (study == "cdn") return apps::cdn::build_graph();
  if (study == "pim") return apps::pim::build_graph();
  if (study == "innet") return apps::innet::build_graph();
  throw ConfigError("shard: unknown study '" + study + "'");
}

int run_worker(int in_fd, int out_fd) {
  Handshake h;
  try {
    FrameBuffer buffer;
    std::optional<Frame> frame = read_frame(in_fd, buffer);
    if (!frame) throw StorageError("shard worker: EOF before handshake");
    h = decode_handshake(frame->payload);
  } catch (const std::exception& e) {
    // No handshake, no worker index to report under; stderr is all we have.
    std::fprintf(stderr, "shard worker: %s\n", e.what());
    return 1;
  }
  try {
    auto t0 = std::chrono::steady_clock::now();
    sim::ReplayCorpus corpus = sim::read_corpus(h.data_dir);
    auto store = std::make_shared<storage::PersistentEventStore>(
        storage::PersistentEventStore::open(h.store_dir));
    const std::uint64_t store_events = store->total_instances();
    apps::Pipeline pipeline(corpus.network, corpus.records, store);

    core::DiagnosisGraph graph = study_graph(h.study);
    if (!h.extra_dsl.empty()) {
      core::load_dsl(h.extra_dsl, graph);
      graph.validate();
    }

    // Assigned symptoms. The worker's store holds exactly its shard's root
    // instances, in global-seq order (the slice writer copies them
    // ascending and the store's stable sort keeps ties put), so local index
    // i IS assignment i.
    std::size_t local = pipeline.events().all(graph.root()).size();
    if (local != h.symptom_seqs.size()) {
      throw StateError(
          "shard worker: slice holds " + std::to_string(local) + " '" +
          graph.root() + "' symptoms but the coordinator assigned " +
          std::to_string(h.symptom_seqs.size()) +
          " (slice/partition mismatch)");
    }
    std::vector<std::uint32_t> indices(local);
    std::iota(indices.begin(), indices.end(), 0u);
    const double load_seconds = seconds_since(t0);

    auto t1 = std::chrono::steady_clock::now();
    std::vector<core::Diagnosis> diagnoses = pipeline.diagnose_selected(
        std::move(graph), indices, h.threads == 0 ? 1 : h.threads);
    const double diagnose_seconds = seconds_since(t1);

    for (std::size_t i = 0; i < diagnoses.size(); ++i) {
      if (h.fail_after_results != kNoValue && h.attempt == 0 &&
          i == h.fail_after_results) {
        // Failure-injection hook: die abruptly mid-stream, exactly like a
        // crashed worker (no error frame, no status, torn pipe is fine).
        _exit(42);
      }
      write_frame(out_fd, encode_result(h.symptom_seqs[i], diagnoses[i]));
    }
    WorkerReport report;
    report.worker_index = h.worker_index;
    report.symptoms = diagnoses.size();
    report.store_events = store_events;
    report.load_seconds = load_seconds;
    report.diagnose_seconds = diagnose_seconds;
    write_frame(out_fd, encode_status(report));
    return 0;
  } catch (const std::exception& e) {
    try {
      write_frame(out_fd, encode_error(h.worker_index, e.what()));
    } catch (...) {
      // The pipe may already be gone; the exit code still reports failure.
    }
    std::fprintf(stderr, "shard worker %u: %s\n", h.worker_index, e.what());
    return 1;
  }
}

}  // namespace grca::shard
