// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Correlation Tester cost: one NICE test is O(permutations x lag_window x
// series length). The §IV-B screening run tests thousands of candidates
// against months of 5-minute bins, so per-test cost bounds how "blindly" an
// operator can screen.

#include <benchmark/benchmark.h>

#include "core/correlation.h"
#include "util/rng.h"

namespace {

using namespace grca;

core::EventSeries random_series(std::size_t n, double rate, util::Rng& rng) {
  core::EventSeries s;
  s.bin = 300;
  s.values.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(rate)) s.values[i] = 1.0;
  }
  return s;
}

void BM_NiceTest(benchmark::State& state) {
  util::Rng rng(5);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  core::EventSeries a = random_series(n, 0.05, rng);
  core::EventSeries b = random_series(n, 0.05, rng);
  core::NiceParams params;
  params.permutations = static_cast<int>(state.range(1));
  util::Rng test_rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::nice_test(a, b, params, test_rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NiceTest)
    ->Args({1000, 100})
    ->Args({10000, 100})
    ->Args({30000, 100})
    ->Args({10000, 200})
    ->Args({10000, 500})
    ->Unit(benchmark::kMillisecond);

void BM_MakeSeries(benchmark::State& state) {
  util::Rng rng(8);
  std::vector<core::EventInstance> events;
  util::TimeSec start = 0, end = 90 * util::kDay;
  for (int i = 0; i < state.range(0); ++i) {
    util::TimeSec t = rng.range(start, end - 100);
    events.push_back(core::EventInstance{
        "e", {t, t + rng.range(0, 60)}, core::Location::router("r"), {}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::make_series(events, start, end, 300));
  }
}
BENCHMARK(BM_MakeSeries)->Arg(1000)->Arg(100000)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
