// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "core/event_store.h"

#include <algorithm>

#include "obs/export.h"

namespace grca::core {

void EventStore::add(EventInstance instance) {
  if (finalized_) {
    throw ConfigError("EventStore: add(" + instance.name +
                      ") after finalize()");
  }
  if (!instance.when.valid()) {
    throw ConfigError("EventStore: invalid interval for " + instance.name);
  }
  // An incoming instance may carry an id issued by another store's table
  // (e.g. copied out of a store it was first loaded into); ids never
  // transfer across tables.
  instance.where_id = kInvalidLocId;
  Bucket& b = buckets_[instance.name];
  if (metrics_ && !b.counter) {
    b.counter = &metrics_->counter(
        obs::prometheus_label("grca_events_total", "event", instance.name));
  }
  if (b.counter) b.counter->inc();
  b.max_duration = std::max(b.max_duration, instance.when.duration());
  b.items.push_back(std::move(instance));
  ++total_;
}

void EventStore::ensure_sorted(const Bucket& bucket) const {
  if (bucket.sorted == bucket.items.size()) return;
  Bucket& b = const_cast<Bucket&>(bucket);
  auto by_start = [](const EventInstance& x, const EventInstance& y) {
    return x.when.start < y.when.start;
  };
  const auto mid = b.items.begin() + static_cast<std::ptrdiff_t>(b.sorted);
  std::stable_sort(mid, b.items.end(), by_start);
  if (mid != b.items.begin() && by_start(*mid, *std::prev(mid))) {
    // The tail interleaves with the prefix. Instances before the first one
    // the tail precedes stay put; the merge moves the rest, so the
    // interned range shrinks to the untouched part. inplace_merge is
    // stable, so equal starts keep insertion order, exactly as one
    // stable_sort over the whole bucket would leave them.
    const auto first_moved = std::upper_bound(b.items.begin(), mid, *mid,
                                              by_start);
    b.interned = std::min(
        b.interned, static_cast<std::size_t>(first_moved - b.items.begin()));
    std::inplace_merge(first_moved, mid, b.items.end(), by_start);
  }
  b.sorted = b.items.size();
}

void EventStore::warm() const {
  for (const auto& [name, bucket] : buckets_) {
    ensure_sorted(bucket);
    if (bucket.interned == bucket.items.size()) continue;
    // After a merge [interned, size) mixes old (already interned — one
    // integer compare each) and new instances.
    Bucket& b = const_cast<Bucket&>(bucket);
    for (auto e = b.items.begin() + static_cast<std::ptrdiff_t>(b.interned);
         e != b.items.end(); ++e) {
      if (e->where_id == kInvalidLocId) {
        e->where_id = locations_->intern(e->where);
      }
    }
    b.interned = b.items.size();
  }
}

void EventStore::finalize() {
  warm();
  finalized_ = true;
}

std::size_t EventStore::query_into(
    const std::string& name, util::TimeSec from, util::TimeSec to,
    std::vector<const EventInstance*>& out) const {
  out.clear();
  auto it = buckets_.find(name);
  if (it == buckets_.end()) return 0;
  const Bucket& b = it->second;
  ensure_sorted(b);
  util::TimeSec lo = from - b.max_duration;
  auto first = std::lower_bound(
      b.items.begin(), b.items.end(), lo,
      [](const EventInstance& e, util::TimeSec v) { return e.when.start < v; });
  auto last = std::upper_bound(
      first, b.items.end(), to,
      [](util::TimeSec v, const EventInstance& e) { return v < e.when.start; });
  // [first, last) is the candidate range; the end-time filter below only
  // shrinks it, so its size is the natural reserve bound.
  out.reserve(static_cast<std::size_t>(last - first));
  for (auto i = first; i != last; ++i) {
    if (i->when.end >= from) out.push_back(&*i);
  }
  return out.size();
}

std::span<const EventInstance> EventStore::all(const std::string& name) const {
  auto it = buckets_.find(name);
  if (it == buckets_.end()) return {};
  ensure_sorted(it->second);
  return it->second.items;
}

std::vector<std::string> EventStore::event_names() const {
  std::vector<std::string> out;
  out.reserve(buckets_.size());
  for (const auto& [name, bucket] : buckets_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace grca::core
