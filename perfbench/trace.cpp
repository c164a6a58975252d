// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer_.spans_.size());
  Span span;
  span.name = name;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.run = tracer_.run_;
  span.start_ns = tracer_.now_ns();
  tracer_.spans_.push_back(span);
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

Tracer::Totals Tracer::totals(std::uint32_t run) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.run == run && s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  Totals out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.run != run) continue;
    double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    out.busy_s[s.name] += dur;
    out.self_s[s.name] += dur - static_cast<double>(child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_jsonl(const std::filesystem::path& file) const {
  std::ofstream out(file);
  if (!out) return false;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"span\":\"%s\",\"start_us\":%lld,\"dur_us\":%lld,"
                  "\"dur_ns\":%lld,\"id\":%zu,\"parent\":%d,\"run\":%u}\n",
                  s.name, static_cast<long long>(s.start_ns / 1000),
                  static_cast<long long>((s.end_ns - s.start_ns) / 1000),
                  static_cast<long long>(s.end_ns - s.start_ns), i, s.parent,
                  s.run);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
