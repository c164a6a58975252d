// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The benchmark's own span recorder. Spans wrap calls into the program's
// layers from outside (nothing inside src/ is instrumented): each carries a
// name, start, end, parent span and the id of the workload iteration it
// belongs to. Spans stay in memory and are written out once, at the end, as
// JSONL lines of the `{"span","start_us","dur_us"}` shape `grca spans`
// converts to a Chrome trace. A disabled tracer records nothing and reads
// no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Starts a new workload iteration: spans opened from now on carry `id`.
  void begin_run(std::uint32_t id) noexcept { run_ = id; }

  /// RAII span. `name` must have static storage duration (a literal).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  /// Per-name totals over the spans of iteration `run`: wall time (`busy`)
  /// and self time (wall minus the part covered by child spans).
  struct Totals {
    std::map<std::string, double> busy_s;
    std::map<std::string, double> self_s;
  };
  Totals totals(std::uint32_t run) const;

  /// Writes every recorded span as one JSONL line; false on I/O failure.
  bool write_jsonl(const std::filesystem::path& file) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t run = 0;
  };

  std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_ = false;
  std::uint32_t run_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices
};

}  // namespace perfbench
