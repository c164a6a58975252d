// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The ingest normalizer. It owns the per-source quirks:
//  - syslog: UPPERCASE router names -> canonical; device-local time -> UTC
//    using the router's PoP timezone (learned from configs);
//  - SNMP: "<router>.net.example" FQDNs -> canonical; already UTC;
//  - layer-1 logs: transport-device names resolved against the inventory;
//    device-local time -> UTC via the device's PoP;
//  - TACACS / monitors / workflow: canonical names, already UTC.
// Records that reference devices unknown to the inventory are dropped and
// counted (real collectors do the same; the count is an ingest health
// metric).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "collector/normalized.h"
#include "obs/feed_health.h"
#include "topology/network.h"
#include "util/strings.h"

namespace grca::collector {

class Normalizer {
 public:
  /// When `feed_health` is supplied, every normalized record is reported to
  /// it (per-source counts + arrival lag against the running high-water
  /// mark) and every unknown-device rejection is counted per source.
  explicit Normalizer(const topology::Network& net,
                      obs::FeedHealthMonitor* feed_health = nullptr);

  /// Normalizes one raw record; returns false (and counts it) when the
  /// record references an unknown device. The inventory is read when the
  /// Normalizer is built: layer-1 devices and routers added to `net` later
  /// are not known to it (a record naming such a router throws StateError).
  bool normalize(const telemetry::RawRecord& raw, NormalizedRecord& out) const;

  /// Normalizes a stream, dropping unknown-device records. The result is in
  /// record order: by utc, then by every other field, attrs last — a total
  /// order over content, so arrival order never shows through.
  std::vector<NormalizedRecord> normalize_stream(
      const telemetry::RecordStream& stream) const;

  std::size_t dropped() const noexcept { return dropped_; }

 private:
  /// Decides whether `raw` is kept and, if so, its UTC instant and router
  /// rank (0 when the record names no router). Copies nothing.
  bool resolve(const telemetry::RawRecord& raw, util::TimeSec& utc,
               std::uint32_t& router_rank) const;
  /// Builds the normalized record of a resolved raw record into a
  /// default-constructed `out`.
  void build(const telemetry::RawRecord& raw, util::TimeSec utc,
             std::uint32_t router_rank, NormalizedRecord& out) const;
  /// Feed-health and drop accounting for one resolved record.
  bool report(telemetry::SourceType source, util::TimeSec utc, bool kept) const;

  const topology::Network& net_;
  util::StringMap<topology::Layer1DeviceId> l1_by_name_;
  /// RouterId -> 1 + rank of the router's name among all router names, so
  /// comparing ranks orders routers exactly as comparing names does.
  std::vector<std::uint32_t> router_rank_;
  /// Rank - 1 -> the router's canonical name.
  std::vector<std::string> router_by_rank_;
  obs::FeedHealthMonitor* feed_health_ = nullptr;
  mutable std::size_t dropped_ = 0;
  /// Highest UTC seen so far: the arrival-time proxy for feed lag (records
  /// are reported in arrival order, so the stream's high-water mark is when
  /// "now" was when the record landed).
  mutable util::TimeSec arrival_high_ = std::numeric_limits<util::TimeSec>::min();
};

}  // namespace grca::collector
