// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The three benchmark workloads. Each drives the program's public layer
// functions itself — read, normalize, index, routing replay, extract or
// store open, warm, diagnose, render; or StreamingRca ingest/advance/drain
// — and times them from outside. See README.md for why each was chosen.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"

namespace perfbench {

enum class Kind { kBatchBgp, kStorePim, kStreamBgp };

std::optional<Kind> parse_kind(std::string_view name);
std::string_view name_of(Kind kind);
/// The study whose corpus a workload reads ("bgp" or "pim").
std::string_view study_of(Kind kind);
/// The study's own default seed (BgpStudyParams 7, PimStudyParams 13).
std::uint64_t default_seed(Kind kind);

/// Writes a corpus in the layout `grca diagnose --data` reads: configs/,
/// inventory.txt, records.tsv, truth.tsv. Paper-scale topology and the
/// `grca simulate` study defaults; `smoke` shrinks both for the
/// benchmark's own tests. Also writes reference-<workload>.txt for each
/// workload of the study: the verdicts of the production apps::Pipeline on
/// the rebuilt network, which every pass is checked against. Computing them
/// here keeps the reference out of the measuring process and its
/// peak_rss_mb.
void generate_corpus(std::string_view study, std::uint64_t seed, bool smoke,
                     const std::filesystem::path& out);

struct Config {
  Kind kind = Kind::kBatchBgp;
  std::uint64_t seed = 7;
  std::filesystem::path corpus;  // generated corpus directory
  std::filesystem::path work;    // scratch directory (the sealed store)
  /// Test hook: flips one verdict of the first pass before it is checked,
  /// so the checks can be shown to fire.
  bool corrupt_verdict = false;
};

/// Outcome of checking one pass's verdicts.
struct Check {
  std::size_t attempted = 0;   // symptoms in the reference
  std::size_t failed = 0;      // no verdict, wrong vs truth, or != reference
  std::size_t truth_wrong = 0; // verdicts whose cause differs from truth
  std::size_t mismatched = 0;  // verdicts differing from the reference
  std::string fingerprint;     // FNV-1a over sorted "where@start -> primary"
  std::string problem;         // first failed check, empty when all pass
};

/// What one timed pass of the records -> verdicts path produced.
struct Pass {
  double wall_s = 0.0;
  double setup_s = 0.0;             // set-up done per pass, before its timer
  std::size_t records = 0;          // records read
  /// Per-symptom diagnosis wall time; batch: the fastest of the pass's
  /// call and the repeat rounds after it.
  std::vector<double> symptom_us;
  std::vector<double> tick_ms;      // stream: wall time of each advance()
  std::map<std::string, double> counts;  // per-layer counters
  double peak_rss_mb = 0.0;         // process peak RSS when the path ended
  Check check;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One program set-up (the caller times it and repeats it). The state of
  /// the last call is what the passes run against.
  virtual void setup() = 0;
  /// Untimed: loads the reference verdicts and truth labels, and builds the
  /// (stream) arrival schedule, that the checks and passes need. Call after
  /// setup().
  virtual void prepare() = 0;
  /// One timed pass; spans go to `tracer` when it is enabled.
  virtual Pass run(Tracer& tracer) = 0;
  /// Per-layer facts measured during set-up (storage.seal.*).
  virtual std::map<std::string, double> setup_counts() const { return {}; }
};

std::unique_ptr<Workload> make_workload(const Config& config);

/// Peak resident memory of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
