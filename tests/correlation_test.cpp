// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the NICE-style Correlation Tester: series construction, the
// circular-permutation significance test (checked exactly against a naive
// reference kernel), autocorrelation robustness, and candidate screening.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "core/correlation.h"

namespace grca::core {
namespace {

EventInstance instant(const std::string& name, util::TimeSec t) {
  return EventInstance{name, {t, t}, Location::router("r1"), {}};
}

// ---- make_series -------------------------------------------------------

TEST(Series, BinsOccupancy) {
  std::vector<EventInstance> events = {instant("e", 100), instant("e", 350),
                                       instant("e", 360)};
  EventSeries s = make_series(events, 0, 1000, 100);
  ASSERT_EQ(s.values.size(), 10u);
  EXPECT_EQ(s.values[1], 1.0);
  EXPECT_EQ(s.values[3], 1.0);
  EXPECT_EQ(s.values[0], 0.0);
  EXPECT_EQ(s.values[5], 0.0);
}

TEST(Series, LongEventSpansBins) {
  std::vector<EventInstance> events = {
      EventInstance{"e", {150, 450}, Location::router("r1"), {}}};
  EventSeries s = make_series(events, 0, 1000, 100);
  EXPECT_EQ(s.values[0], 0.0);
  EXPECT_EQ(s.values[1], 1.0);
  EXPECT_EQ(s.values[2], 1.0);
  EXPECT_EQ(s.values[3], 1.0);
  EXPECT_EQ(s.values[4], 1.0);
  EXPECT_EQ(s.values[5], 0.0);
}

TEST(Series, EventsOutsideWindowIgnored) {
  std::vector<EventInstance> events = {instant("e", -50), instant("e", 2000)};
  EventSeries s = make_series(events, 0, 1000, 100);
  for (double v : s.values) EXPECT_EQ(v, 0.0);
}

TEST(Series, PredicateFiltering) {
  std::vector<EventInstance> events = {instant("e", 100)};
  events.push_back(
      EventInstance{"e", {300, 300}, Location::router("r2"), {}});
  EventSeries s = make_series(events, 0, 1000, 100,
                              [](const EventInstance& e) {
                                return e.where.a == "r2";
                              });
  EXPECT_EQ(s.values[1], 0.0);
  EXPECT_EQ(s.values[3], 1.0);
}

TEST(Series, RejectsDegenerateBinning) {
  std::vector<EventInstance> events;
  EXPECT_THROW(make_series(events, 0, 1000, 0), ConfigError);
  EXPECT_THROW(make_series(events, 1000, 0, 100), ConfigError);
}

// ---- nice_test --------------------------------------------------------------

/// Series pair with the given co-occurrence structure.
struct SeriesPair {
  EventSeries a, b;
};

SeriesPair correlated_pair(util::Rng& rng, int n, double rate,
                           double follow_prob) {
  SeriesPair p;
  p.a.bin = p.b.bin = 300;
  p.a.values.assign(n, 0.0);
  p.b.values.assign(n, 0.0);
  for (int i = 0; i < n; ++i) {
    if (rng.chance(rate)) {
      p.a.values[i] = 1.0;
      if (rng.chance(follow_prob)) p.b.values[i] = 1.0;
    } else if (rng.chance(rate)) {
      p.b.values[i] = 1.0;  // independent b-only events
    }
  }
  return p;
}

TEST(Nice, DetectsStrongCorrelation) {
  util::Rng rng(1);
  SeriesPair p = correlated_pair(rng, 2000, 0.05, 0.9);
  util::Rng test_rng(2);
  CorrelationResult r = nice_test(p.a, p.b, NiceParams{}, test_rng);
  EXPECT_TRUE(r.significant) << "score=" << r.score << " p=" << r.p_value;
  EXPECT_GT(r.score, 0.5);
}

TEST(Nice, RejectsIndependentSeries) {
  util::Rng rng(3);
  SeriesPair p = correlated_pair(rng, 2000, 0.05, 0.0);
  // Make b fully independent of a.
  for (auto& v : p.b.values) v = 0.0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.chance(0.05)) p.b.values[i] = 1.0;
  }
  util::Rng test_rng(4);
  CorrelationResult r = nice_test(p.a, p.b, NiceParams{}, test_rng);
  EXPECT_FALSE(r.significant) << "score=" << r.score << " p=" << r.p_value;
}

TEST(Nice, ConstantSeriesNeverSignificant) {
  EventSeries a, b;
  a.bin = b.bin = 300;
  a.values.assign(500, 1.0);
  b.values.assign(500, 1.0);
  util::Rng rng(5);
  CorrelationResult r = nice_test(a, b, NiceParams{}, rng);
  EXPECT_FALSE(r.significant);
}

TEST(Nice, AutocorrelatedBurstsNotFooled) {
  // Two bursty series whose bursts are independent: a naive count-based test
  // would see many coincidences, but circular permutation preserves the
  // burst structure under the null and rejects.
  util::Rng rng(6);
  EventSeries a, b;
  a.bin = b.bin = 300;
  const int n = 3000;
  a.values.assign(n, 0.0);
  b.values.assign(n, 0.0);
  auto add_bursts = [&](EventSeries& s, util::Rng& r) {
    for (int burst = 0; burst < 20; ++burst) {
      int at = static_cast<int>(r.below(n - 40));
      for (int i = 0; i < 30; ++i) s.values[at + i] = 1.0;
    }
  };
  add_bursts(a, rng);
  add_bursts(b, rng);
  util::Rng test_rng(7);
  NiceParams params;
  params.permutations = 400;
  CorrelationResult r = nice_test(a, b, params, test_rng);
  EXPECT_FALSE(r.significant) << "score=" << r.score << " p=" << r.p_value;
}

TEST(Nice, LagSlackCatchesShiftedCause) {
  // Effect follows cause one bin later.
  util::Rng rng(8);
  EventSeries a, b;
  a.bin = b.bin = 300;
  const int n = 2000;
  a.values.assign(n, 0.0);
  b.values.assign(n, 0.0);
  for (int i = 0; i + 1 < n; ++i) {
    if (rng.chance(0.04)) {
      a.values[i] = 1.0;
      b.values[i + 1] = 1.0;
    }
  }
  util::Rng test_rng(9);
  NiceParams with_lag;
  with_lag.lag_slack = 1;
  EXPECT_TRUE(nice_test(a, b, with_lag, test_rng).significant);
  NiceParams no_lag;
  no_lag.lag_slack = 0;
  EXPECT_FALSE(nice_test(a, b, no_lag, test_rng).significant);
}

TEST(Nice, MismatchedSeriesRejected) {
  EventSeries a, b;
  a.bin = b.bin = 300;
  a.values.assign(100, 0.0);
  b.values.assign(50, 0.0);
  util::Rng rng(10);
  EXPECT_THROW(nice_test(a, b, NiceParams{}, rng), ConfigError);
}

// Property sweep: significance is (statistically) monotone in the follow
// probability.
class NiceStrengthSweep : public ::testing::TestWithParam<double> {};

TEST_P(NiceStrengthSweep, ScoreGrowsWithCoupling) {
  util::Rng rng(42);
  SeriesPair weak = correlated_pair(rng, 2000, 0.05, 0.1);
  SeriesPair strong = correlated_pair(rng, 2000, 0.05, GetParam());
  util::Rng t1(43), t2(44);
  double weak_score = nice_test(weak.a, weak.b, NiceParams{}, t1).score;
  double strong_score = nice_test(strong.a, strong.b, NiceParams{}, t2).score;
  EXPECT_GT(strong_score, weak_score);
}

INSTANTIATE_TEST_SUITE_P(Couplings, NiceStrengthSweep,
                         ::testing::Values(0.7, 0.8, 0.9, 1.0));

// ---- reference kernel -------------------------------------------------
// The naive circular Pearson: lag normalization and the modulo recomputed
// for every element. The shipped kernel hoists both into a constant offset
// plus an increment-with-wrap; it must give bit-identical scores and
// p-values, because it sums the same terms in the same order.

double circular_pearson_reference(std::span<const double> a,
                                  std::span<const double> b,
                                  std::size_t shift, int lag) {
  const std::size_t n = a.size();
  double sa = 0, sb = 0;
  for (double v : a) sa += v;
  for (double v : b) sb += v;
  double ma = sa / n, mb = sb / n;
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j =
        (i + shift + n +
         static_cast<std::size_t>(lag % static_cast<int>(n) + n)) % n;
    double da = a[i] - ma;
    double db = b[j] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

double best_lag_score_reference(std::span<const double> a,
                                std::span<const double> b, std::size_t shift,
                                int lag_slack) {
  double best = -2.0;
  for (int lag = -lag_slack; lag <= lag_slack; ++lag) {
    best = std::max(best, circular_pearson_reference(a, b, shift, lag));
  }
  return best;
}

/// The permutation test exactly as nice_test runs it, on the naive kernel.
CorrelationResult nice_test_reference(const EventSeries& a,
                                      const EventSeries& b,
                                      const NiceParams& params,
                                      util::Rng& rng) {
  const std::size_t n = a.values.size();
  CorrelationResult result;
  if (n < 4) return result;
  result.score =
      best_lag_score_reference(a.values, b.values, 0, params.lag_slack);
  if (result.score <= 0.0) {
    result.p_value = 1.0;
    return result;
  }
  int at_least = 0;
  for (int p = 0; p < params.permutations; ++p) {
    std::size_t shift =
        1 + params.lag_slack +
        rng.below(n - 2 * (1 + static_cast<std::size_t>(params.lag_slack)));
    double s = best_lag_score_reference(a.values, b.values, shift,
                                        params.lag_slack);
    if (s >= result.score) ++at_least;
  }
  result.p_value = (at_least + 1.0) / (params.permutations + 1.0);
  result.significant =
      result.p_value < params.alpha && result.score >= params.min_score;
  return result;
}

TEST(Nice, MatchesReferenceKernelExactly) {
  util::Rng rng(30);
  for (int n : {16, 500, 3000}) {
    for (int lag_slack : {0, 1, 3}) {
      for (double follow : {0.0, 0.6, 1.0}) {
        SeriesPair p = correlated_pair(rng, n, 0.1, follow);
        NiceParams params;
        params.lag_slack = lag_slack;
        params.permutations = 40;
        util::Rng ours_rng(31), ref_rng(31);
        CorrelationResult ours = nice_test(p.a, p.b, params, ours_rng);
        CorrelationResult ref = nice_test_reference(p.a, p.b, params, ref_rng);
        SCOPED_TRACE("n=" + std::to_string(n) + " lag_slack=" +
                     std::to_string(lag_slack) + " follow=" +
                     std::to_string(follow));
        EXPECT_EQ(ours.score, ref.score);
        EXPECT_EQ(ours.p_value, ref.p_value);
        EXPECT_EQ(ours.significant, ref.significant);
      }
    }
  }
}

// ---- miner edge cases -------------------------------------------------

TEST(Nice, AllZeroSeriesNeverSignificant) {
  // A candidate that never fires is constant: correlation is undefined and
  // must never screen in, whatever the symptom series looks like.
  EventSeries symptom, silent;
  symptom.bin = silent.bin = 300;
  symptom.values.assign(500, 0.0);
  silent.values.assign(500, 0.0);
  for (int i = 0; i < 500; i += 7) symptom.values[i] = 1.0;
  util::Rng rng(20);
  CorrelationResult r = nice_test(symptom, silent, NiceParams{}, rng);
  EXPECT_FALSE(r.significant);
  EXPECT_EQ(r.score, 0.0);
  EXPECT_EQ(r.p_value, 1.0);
}

TEST(Nice, MinScoreFloorGatesSignificance) {
  // A long weakly-coupled pair: the permutation test has the power to call
  // it significant, but the effect size sits below an aggressive min_score
  // floor. Same inputs, same RNG seed — only the floor differs.
  util::Rng rng(21);
  SeriesPair p = correlated_pair(rng, 4000, 0.08, 0.35);
  util::Rng t1(22);
  NiceParams open;
  open.min_score = 0.0;
  CorrelationResult loose = nice_test(p.a, p.b, open, t1);
  ASSERT_TRUE(loose.significant) << "score=" << loose.score;
  ASSERT_LT(loose.score, 0.9);
  util::Rng t2(22);
  NiceParams floored = open;
  floored.min_score = loose.score + 1e-9;  // just above the observed score
  CorrelationResult gated = nice_test(p.a, p.b, floored, t2);
  EXPECT_FALSE(gated.significant);
  EXPECT_EQ(gated.score, loose.score);  // floor gates the verdict, not the score
  util::Rng t3(22);
  NiceParams at_floor = open;
  at_floor.min_score = loose.score;  // boundary: score >= min_score passes
  EXPECT_TRUE(nice_test(p.a, p.b, at_floor, t3).significant);
}

TEST(Pearson, LagSlackIsAsymmetric) {
  // b leads a by exactly one bin, so pairing a[i] with b[i + lag] is perfect
  // at lag -1 and junk at lag +1. Guards against a sign flip in the lag
  // convention silently surviving inside the symmetric slack window.
  std::vector<double> a(200, 0.0), b(200, 0.0);
  for (int i = 10; i < 190; i += 9) {
    a[i] = 1.0;
    b[i - 1] = 1.0;
  }
  double lead = circular_pearson(a, b, 0, -1);
  double trail = circular_pearson(a, b, 0, 1);
  double none = circular_pearson(a, b, 0, 0);
  EXPECT_NEAR(lead, 1.0, 1e-12);
  EXPECT_LT(trail, 0.5);
  EXPECT_LT(none, 0.5);
  EXPECT_GT(lead, trail);
}

TEST(Pearson, DegenerateInputsScoreZero) {
  std::vector<double> constant(100, 1.0), varying(100, 0.0);
  varying[3] = varying[50] = 1.0;
  EXPECT_EQ(circular_pearson(constant, varying, 0, 0), 0.0);
  EXPECT_EQ(circular_pearson(varying, constant, 5, 1), 0.0);
}

TEST(Screen, RanksSignificantCandidates) {
  util::Rng rng(11);
  SeriesPair strong = correlated_pair(rng, 2000, 0.05, 0.95);
  SeriesPair weak = correlated_pair(rng, 2000, 0.05, 0.5);
  // Candidate 0: independent; 1: weak; 2: strong (share symptom series a of
  // `strong`).
  EventSeries indep;
  indep.bin = 300;
  indep.values.assign(2000, 0.0);
  for (int i = 0; i < 2000; ++i) {
    if (rng.chance(0.05)) indep.values[i] = 1.0;
  }
  // Rebuild weak/strong to share the same symptom series.
  EventSeries symptom = strong.a;
  EventSeries weak_cand;
  weak_cand.bin = 300;
  weak_cand.values.assign(2000, 0.0);
  for (int i = 0; i < 2000; ++i) {
    if (symptom.values[i] > 0 && rng.chance(0.4)) weak_cand.values[i] = 1.0;
    else if (rng.chance(0.03)) weak_cand.values[i] = 1.0;
  }
  std::vector<EventSeries> candidates = {indep, weak_cand, strong.b};
  util::Rng test_rng(12);
  auto ranked = screen_candidates(symptom, candidates, NiceParams{}, test_rng);
  ASSERT_GE(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].index, 2u);  // the strong candidate ranks first
  for (const auto& r : ranked) EXPECT_NE(r.index, 0u);  // indep filtered out
}

}  // namespace
}  // namespace grca::core
