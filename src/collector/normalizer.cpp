// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "collector/normalizer.h"

#include <algorithm>
#include <compare>
#include <string_view>
#include <optional>
#include <tuple>

#include "util/error.h"
#include "util/strings.h"

namespace grca::collector {

using telemetry::RawRecord;
using telemetry::SourceType;

std::string render(const NormalizedRecord& record) {
  std::string out = util::format_utc(record.utc);
  out += " [";
  out += telemetry::to_string(record.source);
  out += "] ";
  if (!record.router.empty()) {
    out += record.router;
    out += " ";
  } else if (!record.device.empty()) {
    out += record.device;
    out += " ";
  }
  if (!record.interface.empty()) {
    out += record.interface;
    out += " ";
  }
  if (!record.field.empty()) {
    out += record.field;
    out += "=";
    out += util::format_double(record.value, 1);
    out += " ";
  }
  out += record.body;
  for (const auto& [k, v] : record.attrs) {
    out += " ";
    out += k;
    out += "=";
    out += v;
  }
  return out;
}

Normalizer::Normalizer(const topology::Network& net,
                       obs::FeedHealthMonitor* feed_health)
    : net_(net), feed_health_(feed_health) {
  for (const topology::Layer1Device& d : net.layer1_devices()) {
    l1_by_name_.emplace(d.name, d.id);
  }
  for (const topology::Router& r : net.routers()) {
    router_by_rank_.push_back(r.name);
  }
  std::sort(router_by_rank_.begin(), router_by_rank_.end());
  router_rank_.resize(net.routers().size());
  for (std::uint32_t rank = 0; rank < router_by_rank_.size(); ++rank) {
    router_rank_[net.find_router(router_by_rank_[rank])->value()] = rank + 1;
  }
}

bool Normalizer::normalize(const RawRecord& raw, NormalizedRecord& out) const {
  out = NormalizedRecord{};
  util::TimeSec utc = 0;
  std::uint32_t router_rank = 0;
  const bool kept = resolve(raw, utc, router_rank);
  if (!report(raw.source, utc, kept)) return false;
  build(raw, utc, router_rank, out);
  return true;
}

bool Normalizer::report(SourceType source, util::TimeSec utc,
                        bool kept) const {
  if (!kept) {
    ++dropped_;
    if (feed_health_) feed_health_->on_rejected(source);
    return false;
  }
  if (feed_health_) {
    arrival_high_ = std::max(arrival_high_, utc);
    feed_health_->on_record(source, utc, arrival_high_);
  }
  return true;
}

namespace {

/// The interface a record is scoped to: SNMP and OSPFMon carry it as an
/// attr, no other source has one.
std::string_view interface_of(const RawRecord& raw) {
  if (raw.source != SourceType::kSnmp && raw.source != SourceType::kOspfMon) {
    return {};
  }
  auto it = raw.attrs.find("interface");
  return it == raw.attrs.end() ? std::string_view() : it->second;
}

/// The layer-1 device a record is scoped to (layer-1 logs only).
std::string_view device_of(const RawRecord& raw) {
  return raw.source == SourceType::kLayer1Log ? std::string_view(raw.device)
                                              : std::string_view();
}

}  // namespace

bool Normalizer::resolve(const RawRecord& raw, util::TimeSec& utc,
                         std::uint32_t& router_rank) const {
  auto find_router = [&](std::string_view name) {
    std::optional<topology::RouterId> id = net_.find_router(name);
    if (id) {
      if (id->value() >= router_rank_.size()) {
        throw StateError("Normalizer: router '" + std::string(name) +
                         "' was added after the normalizer was built");
      }
      router_rank = router_rank_[id->value()];
    }
    return id;
  };
  switch (raw.source) {
    case SourceType::kSyslog: {
      auto router = find_router(util::to_lower(raw.device));
      if (!router) return false;
      const topology::Router& r = net_.router(*router);
      utc = net_.pop(r.pop).timezone.to_utc(raw.timestamp);
      return true;
    }
    case SourceType::kSnmp: {
      // Strip the poller's FQDN suffix; the poller stamps UTC.
      std::string_view name = raw.device;
      utc = raw.timestamp;
      return find_router(name.substr(0, name.find('.'))).has_value();
    }
    case SourceType::kLayer1Log: {
      auto it = l1_by_name_.find(raw.device);
      if (it == l1_by_name_.end()) return false;
      const topology::Layer1Device& d = net_.layer1_device(it->second);
      utc = net_.pop(d.pop).timezone.to_utc(raw.timestamp);
      return true;
    }
    case SourceType::kTacacs:
    case SourceType::kWorkflowLog:
      utc = raw.timestamp;
      return find_router(raw.device).has_value();
    case SourceType::kOspfMon: {
      auto rit = raw.attrs.find("router");
      utc = raw.timestamp;
      return rit != raw.attrs.end() && raw.attrs.count("interface") &&
             find_router(rit->second);
    }
    case SourceType::kBgpMon:
    case SourceType::kPerfMon:
    case SourceType::kCdnMon:
    case SourceType::kServerLog:
      utc = raw.timestamp;
      return true;
  }
  return false;
}

void Normalizer::build(const RawRecord& raw, util::TimeSec utc,
                       std::uint32_t router_rank, NormalizedRecord& out) const {
  out.source = raw.source;
  out.utc = utc;
  if (router_rank) out.router = router_by_rank_[router_rank - 1];
  out.device = device_of(raw);
  out.interface = interface_of(raw);
  out.field = raw.field;
  out.body = raw.body;
  out.value = raw.value;
  out.attrs = raw.attrs;
}

namespace {

/// Compact sort key of one kept raw record: (utc, source, router rank)
/// settle almost every comparison without touching the record.
struct OrderKey {
  util::TimeSec utc;
  std::uint32_t source;
  std::uint32_t router_rank;
  const RawRecord* raw;
};

/// Record order past (utc, source, router), on what build() would copy:
/// device, interface, field, body, value, attrs last. The order is total
/// over content — two records tie only when their normalized records are
/// equal — so any sort yields the same sequence.
bool tail_less(const RawRecord& a, const RawRecord& b) {
  if (auto c = std::tuple(device_of(a), interface_of(a),
                          std::string_view(a.field), std::string_view(a.body)) <=>
               std::tuple(device_of(b), interface_of(b),
                          std::string_view(b.field), std::string_view(b.body));
      c != 0) {
    return c < 0;
  }
  if (auto c = std::strong_order(a.value, b.value); c != 0) return c < 0;
  return a.attrs < b.attrs;
}

}  // namespace

std::vector<NormalizedRecord> Normalizer::normalize_stream(
    const telemetry::RecordStream& stream) const {
  // Resolve every record (in arrival order, for feed health), order the
  // kept ones by key, then build each normalized record once, in place.
  std::vector<OrderKey> keys;
  keys.reserve(stream.size());
  for (const RawRecord& raw : stream) {
    OrderKey key{0, static_cast<std::uint32_t>(raw.source), 0, &raw};
    const bool kept = resolve(raw, key.utc, key.router_rank);
    if (report(raw.source, key.utc, kept)) keys.push_back(key);
  }

  auto less = [](const OrderKey& a, const OrderKey& b) {
    if (a.utc != b.utc) return a.utc < b.utc;
    if (a.source != b.source) return a.source < b.source;
    if (a.router_rank != b.router_rank) return a.router_rank < b.router_rank;
    return tail_less(*a.raw, *b.raw);
  };
  if (std::is_sorted(keys.begin(), keys.end(),
                     [](const OrderKey& a, const OrderKey& b) {
                       return a.utc < b.utc;
                     })) {
    // Archives are in emission order, so usually only the records sharing
    // a second need ordering.
    for (auto first = keys.begin(); first != keys.end();) {
      auto last = std::find_if(first + 1, keys.end(), [&](const OrderKey& k) {
        return k.utc != first->utc;
      });
      std::sort(first, last, less);
      first = last;
    }
  } else {
    std::sort(keys.begin(), keys.end(), less);
  }

  std::vector<NormalizedRecord> out;
  out.reserve(keys.size());
  for (const OrderKey& key : keys) {
    build(*key.raw, key.utc, key.router_rank, out.emplace_back());
  }
  return out;
}

}  // namespace grca::collector
