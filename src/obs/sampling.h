// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Registry sampling: gauges (freeze lag, feed gaps) are instantaneous —
// an end-of-run report that reads them once sees only the final value,
// which for a drained pipeline is always zero. RegistrySampler snapshots
// the registry at a caller-chosen cadence (each replay tick, each poll
// interval) and keeps the peak per gauge plus the delta per counter since
// construction, turning the live registry into high-water marks a report
// can cite ("freeze lag never exceeded 3900 s").
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"

namespace grca::obs {

class RegistrySampler {
 public:
  /// Captures the counter baseline from `registry` (nullptr = no-op
  /// sampler; every query returns zero).
  explicit RegistrySampler(MetricsRegistry* registry = registry_ptr());

  /// Takes one snapshot: refreshes every gauge peak and the latest counter
  /// values. Safe to call concurrently with metric writers (reads are
  /// relaxed-atomic); cheap enough for tick loops, too heavy for
  /// per-record hot paths.
  void sample();

  /// Peak value of `gauge` across all sample() calls (0 when never seen).
  double gauge_peak(const std::string& gauge) const;

  /// Increase of `counter` between construction and the last sample().
  std::uint64_t counter_delta(const std::string& counter) const;

  /// Every gauge peak observed, by registry name.
  const std::map<std::string, double>& gauge_peaks() const noexcept {
    return peaks_;
  }

  std::size_t samples() const noexcept { return samples_; }

 private:
  MetricsRegistry* registry_;
  std::map<std::string, std::uint64_t> baseline_;
  std::map<std::string, std::uint64_t> latest_;
  std::map<std::string, double> peaks_;
  std::size_t samples_ = 0;
};

}  // namespace grca::obs
