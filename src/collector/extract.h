// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The retrieval processes (paper §II-A): turn normalized records into event
// instances. "A type of event can be extracted from raw input data through a
// parsing script, a database query, or some more sophisticated processing" —
// here: syslog message parsers, SNMP threshold queries, down/up flap
// pairing, OSPF cost-in/out inference, and BGP egress-change detection via
// decision-process emulation.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "collector/normalized.h"
#include "core/event_store.h"
#include "routing/bgp.h"
#include "topology/network.h"

namespace grca::collector {

/// Thresholds for the query-style retrieval processes. Applications may
/// redefine them ("the event 'link congestion alarm' ... can be easily
/// redefined as >= 90% link utilization when needed", §II-A).
struct ExtractOptions {
  double cpu_avg_threshold = 80.0;      // % (Table I: CPU high average)
  double util_threshold = 80.0;         // % (Table I: link congestion alarm)
  double corrupt_threshold = 100.0;     // packets (Table I: link loss alarm)
  double rtt_threshold = 100.0;         // ms (CDN RTT increase)
  double tput_threshold = 100.0;        // Mb/s (CDN throughput drop: below)
  double delay_threshold = 50.0;        // ms (in-network delay increase)
  double loss_threshold = 1.0;          // % (in-network loss increase)
  double innet_tput_threshold = 500.0;  // Mb/s (in-network throughput drop)
  double server_load_threshold = 0.9;   // CDN server issue
  util::TimeSec flap_pair_window = 3600;   // max down->up gap for flaps
  util::TimeSec router_cost_window = 30;   // grouping window, router cost in/out
  /// bgp-prefix-flood retrieval: an eBGP session announcing at least
  /// `prefix_flood_count` prefixes within `prefix_flood_window` seconds is a
  /// route-leak signature (normal reflector traffic never bursts that hard).
  int prefix_flood_count = 15;
  util::TimeSec prefix_flood_window = 120;

  /// Baseline-relative anomaly detection for performance metrics (perf
  /// probes + CDN measurements) — the Table I "anomaly detection program"
  /// retrieval style. When enabled it replaces the static thresholds for
  /// those sources: each (location, metric) keeps a rolling baseline and a
  /// reading is an event when it deviates by more than `anomaly_k` robust
  /// standard deviations (MAD-based). This is the principled version of the
  /// paper's observation that fixed thresholds depend on the network
  /// segment (backbone vs access, §II-A).
  bool anomaly_detection = false;
  double anomaly_k = 5.0;
  std::size_t anomaly_min_history = 12;   // samples before detection starts
  std::size_t anomaly_window = 48;        // rolling baseline length
};

/// The retrieval processes as one incremental state machine. Records are
/// fed once each, in any order no older than the last cut; advance(cut)
/// finalizes everything before the cut and releases the instances that
/// start before it. Per-key state that spans records — unpaired downs,
/// previous OSPF metrics, cost changes awaiting their router grouping,
/// announce bursts, anomaly baselines — is carried between calls and
/// pruned once it can no longer produce an instance, so the open state is
/// bounded by the activity inside the pairing/grouping windows, not by the
/// stream's length. Batch extract() is feed-everything plus a final
/// advance on a fresh extractor, so batch and streaming share one
/// implementation.
class EventExtractor {
 public:
  explicit EventExtractor(const topology::Network& net,
                          ExtractOptions options = {});
  ~EventExtractor();

  /// Runs every retrieval process over `records`, adding instances to
  /// `store` (per event name in start order; equal starts in record
  /// order, or key order for the keyed processes).
  void extract(std::span<const NormalizedRecord> records,
               core::EventStore& store) const;

  /// Parses one record into the open state; its body is read here and
  /// never again. Throws StateError for a record older than the last
  /// advance() cut — that region is final.
  void feed(const NormalizedRecord& record);

  /// Commits every fed record before `cut` and appends to `out`, ordered by
  /// (start, name, batch tie order), each instance starting in
  /// [floor, cut), where floor is the previous cut or discard_before(),
  /// whichever is later; instances starting before it were already
  /// released (or are masked) and are dropped. An instance that starts
  /// before `cut` but depends on records at or after it (a down whose up
  /// came later, a burst or cost group still open at the cut) is resolved
  /// by a read-only lookahead over what has been fed, treating the last
  /// fed record as the end of data — exactly what a batch run over the
  /// fed records would produce. The lookahead touches only keys with open
  /// state and commits nothing. `cut` must not decrease.
  void advance(util::TimeSec cut, std::vector<core::EventInstance>& out);

  /// Masks every instance starting before `floor` from later releases
  /// (a resumed stream's already-persisted region).
  void discard_before(util::TimeSec floor);

  /// Entries held by the open state: keys, fed-but-uncommitted
  /// observations and finalized instances awaiting their release cut.
  /// (Anomaly baselines are excluded: one bounded window per metric
  /// series.)
  std::size_t open_state() const noexcept;

  /// Detects bgp-egress-change events: for each BGP update, emulates the
  /// decision process at every observer router and emits an event when the
  /// best egress for the touched prefix changes (§II-B utility 1).
  void extract_egress_changes(std::span<const NormalizedRecord> records,
                              const routing::BgpSim& bgp,
                              const std::vector<topology::RouterId>& observers,
                              core::EventStore& store) const;

  const ExtractOptions& options() const noexcept { return options_; }

 private:
  struct State;  // the retrieval processes' open state (extract.cpp)

  const topology::Network& net_;
  ExtractOptions options_;
  std::unique_ptr<State> state_;
};

}  // namespace grca::collector
