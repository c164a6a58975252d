// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "apps/streaming.h"

#include <algorithm>
#include <chrono>

#include "obs/span.h"
#include "storage/event_log.h"

namespace grca::apps {

using collector::NormalizedRecord;
using util::TimeSec;

StreamingRca::StreamingRca(const topology::Network& net,
                           core::DiagnosisGraph graph,
                           StreamingOptions options)
    : net_(net),
      options_(options),
      normalizer_(net, &feed_health_),
      extractor_(net, options.extract),
      routing_(net),
      mapper_(net, routing_.ospf(), routing_.bgp()) {
  if (options_.extract.flap_pair_window + 120 > options_.freeze_horizon) {
    throw ConfigError(
        "StreamingRca: freeze_horizon must exceed the flap pairing window "
        "(+2 min slack), or flaps spanning the horizon would be lost");
  }
  // Resume before metrics enable so reloaded events are not double-counted
  // as fresh extractions, and before the engine exists so the store is
  // settled when diagnosis state initializes.
  if (!options_.persist_dir.empty()) {
    storage::SealedLoad sealed =
        storage::load_sealed_events(options_.persist_dir);
    // The crash-torn WAL is discarded: everything past the last seal is
    // re-derived from the re-fed stream.
    persist_ = std::make_unique<storage::EventLogWriter>(
        options_.persist_dir, /*discard_wal=*/true);
    if (sealed.watermark) {
      for (core::EventInstance& e : sealed.events) store_.add(std::move(e));
      store_.warm();
      // Re-extracted twins of the sealed events must not re-enter the
      // store (or the log): the extractor masks them at release.
      extractor_.discard_before(*sealed.watermark);
      last_seal_cut_ = *sealed.watermark;
      resumed_from_ = sealed.watermark;
    }
  }
  store_.enable_metrics(obs::registry_ptr());
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    freeze_lag_gauge_ = &reg->gauge("grca_streaming_freeze_lag_seconds");
    batch_seconds_ = &reg->histogram("grca_streaming_batch_seconds");
    batch_size_ = &reg->histogram(
        "grca_streaming_batch_size",
        {0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  }
  engine_ = std::make_unique<core::RcaEngine>(std::move(graph), store_,
                                              mapper_);
  if (resumed_from_) {
    // Position the diagnosis cursor exactly where the killed incarnation
    // left off: at seal time (watermark W) every symptom starting before
    // W - settle had been diagnosed — the seal runs after diagnose_ready
    // within the same advance().
    auto symptoms = store_.all(engine_->graph().root());
    TimeSec ready = *resumed_from_ - options_.settle;
    while (diagnose_cursor_ < symptoms.size() &&
           symptoms[diagnose_cursor_].when.start < ready) {
      ++diagnose_cursor_;
    }
  }
  const unsigned threads = options_.threads == 0
                              ? util::ThreadPool::default_threads()
                              : options_.threads;
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

StreamingRca::~StreamingRca() = default;

void StreamingRca::ingest(const telemetry::RawRecord& raw) {
  NormalizedRecord record;
  if (!normalizer_.normalize(raw, record)) return;  // unknown device
  constexpr TimeSec kNever = std::numeric_limits<TimeSec>::min();
  if ((frozen_cut_ != kNever && record.utc <= frozen_cut_) ||
      (high_water_ != kNever &&
       record.utc < high_water_ - options_.max_skew)) {
    ++dropped_late_;  // arrived after its region was finalized
    feed_health_.on_late_drop(record.source);
    return;
  }
  high_water_ = std::max(high_water_, record.utc);
  extractor_.feed(record);
  ++stored_;
  // Routing replays monitor records only, in utc order at freeze time.
  if (record.source != telemetry::SourceType::kOspfMon &&
      record.source != telemetry::SourceType::kBgpMon) {
    return;
  }
  // Most records arrive nearly in order, so the insertion point is near
  // the back.
  auto pos = std::upper_bound(
      routing_buffer_.begin() + static_cast<std::ptrdiff_t>(routing_head_),
      routing_buffer_.end(), record.utc,
      [](TimeSec t, const NormalizedRecord& r) { return t < r.utc; });
  routing_buffer_.insert(pos, std::move(record));
}

void StreamingRca::freeze_until(TimeSec new_cut) {
  if (new_cut <= frozen_cut_) return;
  // The extractor commits what was fed before the cut and releases the
  // events starting before it (each at most once, none below a resumed
  // engine's sealed watermark).
  released_.clear();
  extractor_.advance(new_cut, released_);
  for (core::EventInstance& e : released_) {
    if (persist_) persist_->append(e);
    store_.add(std::move(e));
  }
  // Routing follows the freeze cut: monitor records in the frozen region are
  // final and strictly ordered. Because every replayed change time is >= the
  // previous cut — and all diagnosed symptoms are older than that cut —
  // replay only appends routing epochs: epoch_at(t) for already-diagnosed
  // times never renumbers, so the engine's join cache stays valid across
  // batches without invalidation.
  const auto first =
      routing_buffer_.begin() + static_cast<std::ptrdiff_t>(routing_head_);
  const auto last = std::lower_bound(
      first, routing_buffer_.end(), new_cut,
      [](const NormalizedRecord& r, TimeSec t) { return r.utc < t; });
  if (first < last) {
    routing_.replay(std::span<const NormalizedRecord>(
        &*first, static_cast<std::size_t>(last - first)));
  }
  // Replayed records are done; drop them once they are the larger half, so
  // trimming stays amortized O(1) per record.
  routing_head_ = static_cast<std::size_t>(last - routing_buffer_.begin());
  if (2 * routing_head_ >= routing_buffer_.size()) {
    routing_buffer_.erase(routing_buffer_.begin(), last);
    routing_head_ = 0;
  }
  frozen_cut_ = new_cut;
}

std::vector<core::Diagnosis> StreamingRca::diagnose_ready(TimeSec ready_cut) {
  auto t0 = std::chrono::steady_clock::now();
  auto symptoms = store_.all(engine_->graph().root());
  std::size_t first = diagnose_cursor_;
  while (diagnose_cursor_ < symptoms.size() &&
         symptoms[diagnose_cursor_].when.start < ready_cut) {
    ++diagnose_cursor_;
  }
  const std::size_t count = diagnose_cursor_ - first;
  diagnosed_count_ += count;
  if (batch_size_) batch_size_->observe(static_cast<double>(count));
  std::vector<core::Diagnosis> out = engine_->diagnose_each(
      symptoms.subspan(first, count), pool_.get());
  if (batch_seconds_) {
    batch_seconds_->observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
  }
  return out;
}

std::vector<core::Diagnosis> StreamingRca::advance(TimeSec now) {
  if (now < last_now_) {
    throw StateError("StreamingRca::advance: clock moved backwards (" +
                     std::to_string(now) + " after " +
                     std::to_string(last_now_) + ")");
  }
  last_now_ = now;
  {
    obs::ScopedSpan span("stream-freeze");
    freeze_until(now - options_.freeze_horizon);
  }
  update_freeze_lag();
  feed_health_.observe_clock(now);
  std::vector<core::Diagnosis> out;
  {
    obs::ScopedSpan span("stream-diagnose");
    out = diagnose_ready(frozen_cut_ - options_.settle);
  }
  // Seal only after the diagnosis pass: the resume logic depends on every
  // symptom older than watermark - settle having been diagnosed by the
  // time the watermark hits disk.
  maybe_seal(/*force=*/false);
  return out;
}

void StreamingRca::inject(core::EventInstance instance) {
  if (instance.name == engine_->graph().root()) {
    throw ConfigError(
        "StreamingRca::inject: cannot inject instances of the symptom "
        "root '" +
        instance.name + "' (the diagnosis cursor owns that bucket)");
  }
  store_.add(std::move(instance));
  ++injected_;
}

std::vector<core::Diagnosis> StreamingRca::drain() {
  if (high_water_ == std::numeric_limits<TimeSec>::min()) return {};
  {
    obs::ScopedSpan span("stream-freeze");
    freeze_until(high_water_ + 1);
  }
  update_freeze_lag();
  std::vector<core::Diagnosis> out;
  {
    obs::ScopedSpan span("stream-diagnose");
    out = diagnose_ready(std::numeric_limits<TimeSec>::max());
  }
  maybe_seal(/*force=*/true);
  return out;
}

void StreamingRca::maybe_seal(bool force) {
  constexpr TimeSec kNever = std::numeric_limits<TimeSec>::min();
  if (!persist_ || frozen_cut_ == kNever) return;
  if (!force) {
    // Establish the cadence baseline on the first freeze instead of
    // writing an empty segment at stream start.
    if (last_seal_cut_ == kNever) {
      last_seal_cut_ = frozen_cut_;
      return;
    }
    if (frozen_cut_ - last_seal_cut_ < options_.persist_seal_every) return;
  }
  // Nothing new and no watermark progress: a seal would only add an empty
  // segment carrying information already on disk (keeps drain idempotent).
  if (persist_->pending() == 0 && last_seal_cut_ == frozen_cut_) return;
  persist_->seal(frozen_cut_);
  last_seal_cut_ = frozen_cut_;
}

void StreamingRca::update_freeze_lag() {
  constexpr TimeSec kNever = std::numeric_limits<TimeSec>::min();
  if (freeze_lag_gauge_ && high_water_ != kNever && frozen_cut_ != kNever) {
    freeze_lag_gauge_->set(
        static_cast<double>(std::max<TimeSec>(0, high_water_ - frozen_cut_)));
  }
}

}  // namespace grca::apps
