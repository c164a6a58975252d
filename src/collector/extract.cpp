// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "collector/extract.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace grca::collector {

using core::EventInstance;
using core::EventStore;
using core::Location;
using telemetry::SourceType;
using util::TimeSec;

namespace {

constexpr TimeSec kNone = std::numeric_limits<TimeSec>::min();

/// "%LINK-3-UPDOWN: Interface so-0/0/0, changed state to down" -> (iface, up)
bool parse_updown(const std::string& body, const std::string& marker,
                  std::string& iface, bool& up) {
  if (!util::contains(body, marker)) return false;
  std::size_t pos = body.find("Interface ");
  if (pos == std::string::npos) return false;
  pos += 10;
  std::size_t comma = body.find(',', pos);
  if (comma == std::string::npos) return false;
  iface = body.substr(pos, comma - pos);
  up = util::ends_with(body, "to up");
  return true;
}

/// Extracts the token after `marker`.
bool token_after(const std::string& body, const std::string& marker,
                 std::string& out) {
  std::size_t pos = body.find(marker);
  if (pos == std::string::npos) return false;
  pos += marker.size();
  std::size_t end = body.find_first_of(" ,:", pos);
  out = body.substr(pos, end == std::string::npos ? std::string::npos
                                                  : end - pos);
  return !out.empty();
}

/// A finalized instance waiting for its release cut. Among equal starts of
/// one event name, batch order is key order for the keyed processes (flap
/// pairing, prefix floods) and emission order otherwise, so both ride
/// along as tie-breaks. Held by pointer so heap and sort steps move one
/// word, not the instance.
struct Ready {
  EventInstance event;
  std::string key;
  std::uint64_t seq = 0;
};
using ReadyPtr = std::unique_ptr<Ready>;

/// A finalized instance with its start kept beside the pointer, so heap
/// and sort steps mostly compare without a dereference.
using Pending = std::pair<TimeSec, ReadyPtr>;

/// Release order: (start, name, key, seq). Only the order within one
/// (name, start) is observable — the store and the sealed log group by
/// name and sort by start stably.
bool release_before(const Pending& x, const Pending& y) {
  if (x.first != y.first) return x.first < y.first;
  if (int c = x.second->event.name.compare(y.second->event.name)) {
    return c < 0;
  }
  if (int c = x.second->key.compare(y.second->key)) return c < 0;
  return x.second->seq < y.second->seq;
}

/// Heap order for the pending pool: earliest start on top.
bool starts_later(const Pending& x, const Pending& y) {
  return x.first > y.first;
}

/// A scheduled look at one key, kept in a min-heap on time.
template <typename Key>
struct Wake {
  TimeSec time;
  Key* key;
  friend bool operator>(const Wake& x, const Wake& y) {
    return x.time > y.time;
  }
};

template <typename Key>
void push_wake(std::vector<Wake<Key>>& heap, TimeSec time, Key* key) {
  heap.push_back(Wake<Key>{time, key});
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  ++key->wakeups;
}

/// Pops the earliest wake-up due before `cut`, or returns null.
template <typename Key>
Key* pop_due(std::vector<Wake<Key>>& heap, TimeSec cut) {
  if (heap.empty() || heap.front().time >= cut) return nullptr;
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  Key* key = heap.back().key;
  heap.pop_back();
  --key->wakeups;
  return key;
}

/// A down or up observation waiting to be paired into a flap.
struct UpDown {
  TimeSec time;
  bool up;
};

/// Observation order: by time; at equal timestamps "down" sorts before
/// "up" (the physically sensible reading of a same-second flap).
bool observed_before(const UpDown& a, const UpDown& b) {
  return a.time < b.time || (a.time == b.time && !a.up && b.up);
}

/// One OSPFMon metric reading, committed in (time, feed order).
struct MetricReading {
  TimeSec time;
  std::uint64_t order;
  std::uint32_t link;
  int metric;
  friend bool operator>(const MetricReading& x, const MetricReading& y) {
    return x.time != y.time ? x.time > y.time : x.order > y.order;
  }
};

/// A link cost transition inferred from consecutive metric readings.
struct CostEvent {
  TimeSec time;
  topology::LogicalLinkId link;
  bool out;  // cost-out/down vs cost-in/up
  bool suppressed = false;
};

/// One perf/CDN reading for the anomaly process, committed in
/// (time, feed order) so every baseline sees its series in order.
struct MetricSample {
  TimeSec time;
  std::uint64_t order;
  std::string series;  // baseline key
  Location where;
  std::string event_name;
  double value;
  bool lower_is_bad;
  friend bool operator>(const MetricSample& x, const MetricSample& y) {
    return x.time != y.time ? x.time > y.time : x.order > y.order;
  }
};

bool is_out(int metric) { return metric == 0xFFFF || metric == -1; }

}  // namespace

struct EventExtractor::State {
  using Emit = std::function<void(EventInstance, const std::string& key)>;

  /// Down/up pairing for one family ("<base>-down", "<base>-up",
  /// "<base>-flap"), keyed by "<router>|<detail>".
  struct FlapKey {
    const std::string* key = nullptr;
    Location where;
    TimeSec pending = kNone;      // committed down not yet paired
    std::vector<UpDown> staged;   // fed, not committed; observation order
    std::uint32_t wakeups = 0;
  };
  struct FlapFamily {
    std::string base;
    Location (*locate)(const std::vector<std::string>& parts);
    std::unordered_map<std::string, FlapKey> keys;
    std::vector<Wake<FlapKey>> wake;
    std::set<std::pair<TimeSec, FlapKey*>> pending;  // by down time
  };

  /// Announce times of one eBGP session, keyed "<egress>|<nexthop>".
  struct FloodKey {
    const std::string* key = nullptr;
    Location where;
    std::deque<TimeSec> times;  // sorted; decided prefixes are dropped
    std::uint32_t wakeups = 0;
  };

  State(const topology::Network& net, const ExtractOptions& options);

  void emit(EventInstance event, const std::string& key = {}) {
    const TimeSec start = event.when.start;
    fresh.emplace_back(start, std::make_unique<Ready>(
                                  Ready{std::move(event), key, next_seq++}));
  }

  void feed(const NormalizedRecord& r);
  void commit(TimeSec until);
  void lookahead(TimeSec until, const Emit& emit) const;

  void stage(FlapFamily& family, const std::string& key, UpDown obs);
  void commit_flaps(FlapFamily& family, TimeSec until);
  void set_pending(FlapFamily& family, FlapKey& k, TimeSec down);
  void maybe_erase(FlapFamily& family, FlapKey& k);

  void stage_announce(const std::string& key, TimeSec time);
  void commit_floods(TimeSec until);
  /// Emits every burst decided by `cut` (everything known is before it)
  /// and drops the announces that can no longer start one.
  void resolve_floods(FloodKey& k, TimeSec until);
  /// Batch burst detection over `times`, emitting bursts starting before
  /// `until`.
  void scan_bursts(const FloodKey& k, TimeSec until, const Emit& emit) const;

  void apply_reading(const MetricReading& m, std::deque<CostEvent>& costs,
                     std::unordered_set<std::uint32_t>& out_links) const;
  /// Decides the cost event at costs[i] as a seed: a router-wide
  /// cost-in/out if (nearly) every backbone link of an endpoint router
  /// changed with it, else a link event of its own.
  void resolve_seed(std::deque<CostEvent>& costs, std::size_t i,
                    const Emit& emit) const;

  void sample(MetricSample m);

  const topology::Network& net;
  const ExtractOptions& options;
  std::uint64_t fed = 0;       // records fed (feed order)
  std::uint64_t next_seq = 0;  // instances emitted (emission order)
  TimeSec cut = kNone;         // everything before this is committed
  TimeSec floor = kNone;       // instances before this are not released

  std::vector<Pending> fresh;  // finalized since the last advance()
  std::vector<Pending> pool;   // finalized, unreleased; min-heap on start

  std::array<FlapFamily, 4> flaps;
  FlapFamily& link_updown = flaps[0];
  FlapFamily& proto_updown = flaps[1];
  FlapFamily& bgp_updown = flaps[2];
  FlapFamily& pim_updown = flaps[3];

  std::unordered_map<std::string, FloodKey> floods;
  std::vector<Wake<FloodKey>> flood_wake;
  std::unordered_set<FloodKey*> open_floods;  // known announces undecided

  std::vector<MetricReading> readings;  // staged; min-heap
  std::unordered_set<std::uint32_t> links_out;  // links whose last metric
                                                // was a cost-out
  std::deque<CostEvent> costs;  // committed transitions, seeds undecided

  std::vector<MetricSample> samples;  // staged; min-heap
  std::unordered_map<std::string, std::deque<double>> baselines;
};

EventExtractor::State::State(const topology::Network& n,
                             const ExtractOptions& o)
    : net(n), options(o) {
  auto interface = [](const std::vector<std::string>& p) {
    return Location::interface(p[0], p[1]);
  };
  link_updown.base = "interface";
  link_updown.locate = interface;
  proto_updown.base = "line-protocol";
  proto_updown.locate = interface;
  bgp_updown.base = "ebgp";
  bgp_updown.locate = [](const std::vector<std::string>& p) {
    return Location::router_neighbor(p[0], p[1]);
  };
  pim_updown.base = "pim-adjacency";
  pim_updown.locate = [](const std::vector<std::string>& p) {
    return Location::vpn_neighbor(p[0], p[1], p[2]);
  };
}

void EventExtractor::State::feed(const NormalizedRecord& r) {
  const std::uint64_t order = fed++;
  switch (r.source) {
    case SourceType::kSyslog: {
      const std::string& body = r.body;
      std::string iface, token;
      bool up = false;
      if (parse_updown(body, "%LINK-3-UPDOWN", iface, up)) {
        stage(link_updown, r.router + "|" + iface, UpDown{r.utc, up});
      } else if (parse_updown(body, "%LINEPROTO-5-UPDOWN", iface, up)) {
        stage(proto_updown, r.router + "|" + iface, UpDown{r.utc, up});
      } else if (util::contains(body, "%BGP-5-ADJCHANGE")) {
        if (!token_after(body, "neighbor ", token)) break;
        bool session_up = util::contains(body, " Up");
        stage(bgp_updown, r.router + "|" + token, UpDown{r.utc, session_up});
      } else if (util::contains(body, "%BGP-5-NOTIFICATION")) {
        if (!token_after(body, "neighbor ", token)) break;
        EventInstance inst;
        inst.when = {r.utc, r.utc};
        inst.where = Location::router_neighbor(r.router, token);
        if (util::contains(body, "hold time expired")) {
          inst.name = "ebgp-hte";
        } else if (util::contains(body, "administrative reset")) {
          inst.name = "customer-reset-session";
        } else {
          inst.name = "bgp-notification";
        }
        emit(std::move(inst));
      } else if (util::contains(body, "%SYS-5-RESTART")) {
        emit(EventInstance{"router-reboot", {r.utc, r.utc},
                           Location::router(r.router), {}});
      } else if (util::contains(body, "%SYS-1-CPURISINGTHRESHOLD")) {
        emit(EventInstance{"cpu-high-spike", {r.utc, r.utc},
                           Location::router(r.router), {}});
      } else if (util::contains(body, "%PIM-5-NBRCHG")) {
        // "%PIM-5-NBRCHG: VRF <vpn>: neighbor <ip> DOWN|UP"
        std::string vpn, nbr;
        if (!token_after(body, "VRF ", vpn) ||
            !token_after(body, "neighbor ", nbr)) {
          break;
        }
        bool adj_up = util::ends_with(body, " UP");
        if (vpn == "default") {
          if (!adj_up) {
            EventInstance inst;
            inst.name = "uplink-pim-adjacency-change";
            inst.when = {r.utc, r.utc};
            inst.where = Location::router(r.router);
            inst.attrs["neighbor"] = nbr;
            emit(std::move(inst));
          }
        } else {
          stage(pim_updown, r.router + "|" + nbr + "|" + vpn,
                UpDown{r.utc, adj_up});
        }
      } else if (util::contains(body, "%MCE-2-CRASH")) {
        std::string slot;
        if (token_after(body, "slot ", slot)) {
          emit(EventInstance{
              "linecard-crash",
              {r.utc, r.utc},
              Location::line_card(r.router, std::stoi(slot)),
              {}});
        }
      }
      break;
    }
    case SourceType::kSnmp: {
      if (r.field == "cpu5min" && r.value >= options.cpu_avg_threshold) {
        emit(EventInstance{"cpu-high-avg", {r.utc - 300, r.utc},
                           Location::router(r.router), {}});
      } else if (r.field == "ifutil" && r.value >= options.util_threshold) {
        emit(EventInstance{"link-congestion", {r.utc - 300, r.utc},
                           Location::interface(r.router, r.interface), {}});
      } else if (r.field == "ifcorrupt" &&
                 r.value >= options.corrupt_threshold) {
        emit(EventInstance{"link-loss", {r.utc - 300, r.utc},
                           Location::interface(r.router, r.interface), {}});
      }
      break;
    }
    case SourceType::kLayer1Log: {
      std::string name;
      if (util::contains(r.body, "APS")) {
        name = "sonet-restoration";
      } else if (util::contains(r.body, "restoration fast")) {
        name = "optical-restoration-fast";
      } else if (util::contains(r.body, "restoration regular")) {
        name = "optical-restoration-regular";
      } else {
        break;
      }
      EventInstance inst;
      inst.name = std::move(name);
      inst.when = {r.utc, r.utc};
      inst.where = Location::layer1(r.device);
      std::string ckt;
      if (token_after(r.body, "circuit ", ckt)) inst.attrs["circuit"] = ckt;
      emit(std::move(inst));
      break;
    }
    case SourceType::kTacacs: {
      const std::string& body = r.body;
      std::string iface, vpn;
      if (util::contains(body, "max-metric router-lsa")) {
        // Router-wide cost-out (or cost-in when prefixed with "no").
        bool cost_in = util::contains(body, "no max-metric");
        auto router = net.find_router(r.router);
        if (!router) break;
        for (topology::InterfaceId i : net.router(*router).interfaces) {
          const topology::Interface& ifc = net.interface(i);
          if (ifc.kind != topology::InterfaceKind::kBackbone) continue;
          emit(EventInstance{cost_in ? "cmd-cost-in" : "cmd-cost-out",
                             {r.utc, r.utc},
                             Location::interface(r.router, ifc.name),
                             {}});
        }
      } else if (util::contains(body, "set ospf metric") &&
                 token_after(body, "interface ", iface)) {
        bool cost_out = util::contains(body, "metric 65535");
        emit(EventInstance{cost_out ? "cmd-cost-out" : "cmd-cost-in",
                           {r.utc, r.utc},
                           Location::interface(r.router, iface),
                           {}});
      } else if (util::contains(body, "mvpn") &&
                 token_after(body, "vrf ", vpn)) {
        EventInstance inst;
        inst.name = "pim-config-change";
        inst.when = {r.utc, r.utc};
        inst.where = Location::router(r.router);
        inst.attrs["vpn"] = vpn;
        emit(std::move(inst));
      }
      break;
    }
    case SourceType::kWorkflowLog: {
      emit(EventInstance{"workflow-" + r.field,  // e.g. workflow-provisioning
                         {r.utc, r.utc},
                         Location::router(r.router),
                         {}});
      break;
    }
    case SourceType::kOspfMon: {
      auto router = net.find_router(r.router);
      if (!router) break;
      auto iface = net.find_interface(*router, r.interface);
      if (!iface || !net.interface(*iface).link.valid()) break;
      emit(EventInstance{"ospf-reconvergence", {r.utc, r.utc},
                         Location::interface(r.router, r.interface), {}});
      readings.push_back(MetricReading{r.utc, order,
                                       net.interface(*iface).link.value(),
                                       static_cast<int>(r.value)});
      std::push_heap(readings.begin(), readings.end(), std::greater<>{});
      break;
    }
    case SourceType::kPerfMon: {
      auto in = r.attrs.find("ingress");
      auto out = r.attrs.find("egress");
      if (in == r.attrs.end() || out == r.attrs.end()) break;
      std::string name;
      if (options.anomaly_detection) {
        if (r.field == "delay") name = "innet-delay-increase";
        else if (r.field == "loss") name = "innet-loss-increase";
        else if (r.field == "tput") name = "innet-tput-drop";
        else break;
        Location where = Location::pop_pair(in->second, out->second);
        std::string series = where.key() + "|" + r.field;
        sample(MetricSample{r.utc, order, std::move(series),
                            std::move(where), std::move(name), r.value,
                            r.field == "tput"});
        break;
      }
      if (r.field == "delay" && r.value >= options.delay_threshold) {
        name = "innet-delay-increase";
      } else if (r.field == "loss" && r.value >= options.loss_threshold) {
        name = "innet-loss-increase";
      } else if (r.field == "tput" &&
                 r.value <= options.innet_tput_threshold) {
        name = "innet-tput-drop";
      } else {
        break;
      }
      emit(EventInstance{std::move(name), {r.utc, r.utc},
                         Location::pop_pair(in->second, out->second), {}});
      break;
    }
    case SourceType::kCdnMon: {
      auto node = r.attrs.find("node");
      auto client = r.attrs.find("client");
      if (node == r.attrs.end() || client == r.attrs.end()) break;
      std::string name;
      if (options.anomaly_detection) {
        if (r.field == "rtt") name = "cdn-rtt-increase";
        else if (r.field == "tput") name = "cdn-tput-drop";
        else break;
        // Per-client series are too sparse, so CDN baselines key on the
        // node and metric only.
        sample(MetricSample{r.utc, order,
                            "cdn|" + node->second + "|" + r.field,
                            Location::cdn_client(node->second,
                                                 client->second),
                            std::move(name), r.value, r.field == "tput"});
        break;
      }
      if (r.field == "rtt" && r.value >= options.rtt_threshold) {
        name = "cdn-rtt-increase";
      } else if (r.field == "tput" && r.value <= options.tput_threshold) {
        name = "cdn-tput-drop";
      } else {
        break;
      }
      emit(EventInstance{std::move(name), {r.utc, r.utc},
                         Location::cdn_client(node->second, client->second),
                         {}});
      break;
    }
    case SourceType::kServerLog: {
      auto node = r.attrs.find("node");
      if (node == r.attrs.end()) break;
      if (r.field == "policy-change") {
        emit(EventInstance{"cdn-policy-change", {r.utc, r.utc},
                           Location::cdn_node(node->second), {}});
      } else if (r.field == "load" &&
                 r.value >= options.server_load_threshold) {
        emit(EventInstance{"cdn-server-issue", {r.utc, r.utc},
                           Location::cdn_node(node->second), {}});
      }
      break;
    }
    case SourceType::kBgpMon: {
      // Egress changes are handled by extract_egress_changes; here the
      // feed is watched for announce bursts (the route-leak signature).
      if (r.body != "announce") break;
      auto egress = r.attrs.find("egress");
      auto nexthop = r.attrs.find("nexthop");
      if (egress == r.attrs.end() || nexthop == r.attrs.end()) break;
      stage_announce(egress->second + "|" + nexthop->second, r.utc);
      break;
    }
  }
}

// ---- Flap pairing ---------------------------------------------------------
// Each observation emits "<base>-down"/"<base>-up"; an up within the
// window of the latest unpaired down also emits "<base>-flap" spanning
// both. Unpaired downs produce no flap (the condition persisted).

void EventExtractor::State::stage(FlapFamily& family, const std::string& key,
                                  UpDown obs) {
  auto [it, fresh] = family.keys.try_emplace(key);
  FlapKey& k = it->second;
  if (fresh) {
    k.key = &it->first;
    k.where = family.locate(util::split(key, '|'));
  }
  k.staged.insert(std::upper_bound(k.staged.begin(), k.staged.end(), obs,
                                   observed_before),
                  obs);
  push_wake(family.wake, obs.time, &k);
}

void EventExtractor::State::set_pending(FlapFamily& family, FlapKey& k,
                                        TimeSec down) {
  if (k.pending != kNone) family.pending.erase({k.pending, &k});
  k.pending = down;
  if (down != kNone) family.pending.insert({down, &k});
}

void EventExtractor::State::maybe_erase(FlapFamily& family, FlapKey& k) {
  if (k.staged.empty() && k.wakeups == 0 && k.pending == kNone) {
    family.keys.erase(family.keys.find(*k.key));
  }
}

void EventExtractor::State::commit_flaps(FlapFamily& family, TimeSec until) {
  const TimeSec window = options.flap_pair_window;
  while (FlapKey* k = pop_due(family.wake, until)) {
    auto last = std::partition_point(
        k->staged.begin(), k->staged.end(),
        [until](const UpDown& o) { return o.time < until; });
    for (auto o = k->staged.begin(); o != last; ++o) {
      emit(EventInstance{family.base + (o->up ? "-up" : "-down"),
                         {o->time, o->time}, k->where, {}},
           *k->key);
      if (!o->up) {
        set_pending(family, *k, o->time);
      } else if (k->pending != kNone && o->time - k->pending <= window) {
        emit(EventInstance{family.base + "-flap", {k->pending, o->time},
                           k->where, {}},
             *k->key);
        set_pending(family, *k, kNone);
      }
    }
    k->staged.erase(k->staged.begin(), last);
    maybe_erase(family, *k);
  }
  // A down older than the window pairs with nothing still to come.
  while (!family.pending.empty() &&
         family.pending.begin()->first + window < until) {
    FlapKey& k = *family.pending.begin()->second;
    set_pending(family, k, kNone);
    maybe_erase(family, k);
  }
}

// ---- BGP prefix-flood detection (Table-I-style database query) ------------
// A session announcing >= prefix_flood_count prefixes inside the sliding
// window is flooding; the event spans the whole burst (consecutive
// announces no further than one window apart), so one leak yields one
// instance, not a train of overlapping ones.

void EventExtractor::State::stage_announce(const std::string& key,
                                           TimeSec time) {
  auto [it, fresh] = floods.try_emplace(key);
  FloodKey& k = it->second;
  if (fresh) {
    k.key = &it->first;
    auto parts = util::split(key, '|');
    k.where = Location::router_neighbor(parts[0], parts[1]);
  }
  k.times.insert(std::upper_bound(k.times.begin(), k.times.end(), time),
                 time);
  push_wake(flood_wake, time, &k);
}

void EventExtractor::State::resolve_floods(FloodKey& k, TimeSec until) {
  const TimeSec window = options.prefix_flood_window;
  const std::size_t need =
      static_cast<std::size_t>(std::max(options.prefix_flood_count, 1));
  auto& t = k.times;
  // Announces before `until` are all known; any later one is >= until.
  TimeSec wake = kNone;
  while (!t.empty() && t.front() < until) {
    const std::size_t known = static_cast<std::size_t>(
        std::lower_bound(t.begin(), t.end(), until) - t.begin());
    const std::size_t in_window = static_cast<std::size_t>(
        std::upper_bound(t.begin(), t.begin() + known, t.front() + window) -
        t.begin());
    if (in_window < need) {
      if (t.front() + window < until) {  // too few, and no more can come
        t.erase(t.begin());
        continue;
      }
      wake = t.front() + window;
      break;
    }
    std::size_t j = need - 1;
    while (j + 1 < known && t[j + 1] - t[j] <= window) ++j;
    if (t[j] + window >= until) {  // a later announce could extend it
      wake = t[j] + window;
      break;
    }
    emit(EventInstance{"bgp-prefix-flood", {t.front(), t[j]}, k.where, {}},
         *k.key);
    t.erase(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(j + 1));
  }
  if (wake != kNone) {
    push_wake(flood_wake, wake, &k);
    open_floods.insert(&k);
  } else {
    open_floods.erase(&k);
  }
  if (t.empty() && k.wakeups == 0) floods.erase(floods.find(*k.key));
}

void EventExtractor::State::commit_floods(TimeSec until) {
  while (FloodKey* k = pop_due(flood_wake, until)) resolve_floods(*k, until);
}

void EventExtractor::State::scan_bursts(const FloodKey& k, TimeSec until,
                                        const Emit& out) const {
  const std::size_t need =
      static_cast<std::size_t>(std::max(options.prefix_flood_count, 1));
  const auto& t = k.times;
  std::size_t i = 0;
  while (i + need <= t.size() && t[i] < until) {
    if (t[i + need - 1] - t[i] > options.prefix_flood_window) {
      ++i;
      continue;
    }
    std::size_t j = i + need - 1;
    while (j + 1 < t.size() &&
           t[j + 1] - t[j] <= options.prefix_flood_window) {
      ++j;
    }
    out(EventInstance{"bgp-prefix-flood", {t[i], t[j]}, k.where, {}}, *k.key);
    i = j + 1;
  }
}

// ---- Router vs link cost-in/out inference ---------------------------------
// A router is "costed out/in" when every backbone link it terminates
// changes cost state within a short window; the constituent link events
// are then attributed to the router, not to the links (Table VIII counts
// them separately).

void EventExtractor::State::apply_reading(
    const MetricReading& m, std::deque<CostEvent>& out_costs,
    std::unordered_set<std::uint32_t>& out_links) const {
  bool was_out = out_links.count(m.link) > 0;
  bool now_out = is_out(m.metric);
  if (now_out == was_out) return;
  if (now_out) {
    out_links.insert(m.link);
  } else {
    out_links.erase(m.link);
  }
  out_costs.push_back(CostEvent{m.time, topology::LogicalLinkId(m.link),
                                now_out});
}

void EventExtractor::State::resolve_seed(std::deque<CostEvent>& ev,
                                         std::size_t i,
                                         const Emit& out) const {
  if (ev[i].suppressed) return;
  // Candidate routers: both endpoints of this link.
  const topology::LogicalLink& l = net.link(ev[i].link);
  for (topology::RouterId router :
       {net.interface(l.side_a).router, net.interface(l.side_b).router}) {
    auto router_links = net.links_of_router(router);
    if (router_links.size() < 2) continue;
    std::set<std::uint32_t> seen;
    std::vector<std::size_t> members;
    for (std::size_t j = i; j < ev.size() &&
                            ev[j].time - ev[i].time <=
                                options.router_cost_window;
         ++j) {
      if (ev[j].suppressed || ev[j].out != ev[i].out) continue;
      if (std::find(router_links.begin(), router_links.end(), ev[j].link) ==
          router_links.end()) {
        continue;
      }
      if (seen.insert(ev[j].link.value()).second) members.push_back(j);
    }
    // A router-wide cost change: (nearly) every link the router terminates
    // changed state together. Links already in the target state produce no
    // transition, so tolerate a small shortfall (>= 80%, at least 2).
    if (seen.size() >= 2 && 10 * seen.size() >= 8 * router_links.size()) {
      EventInstance inst;
      inst.name = "router-cost-inout";
      inst.when = {ev[i].time, ev[i].time};
      inst.where = Location::router(net.router(router).name);
      inst.attrs["direction"] = ev[i].out ? "out" : "in";
      out(std::move(inst), {});
      for (std::size_t j : members) ev[j].suppressed = true;
      return;
    }
  }
  const topology::Interface& a = net.interface(l.side_a);
  out(EventInstance{ev[i].out ? "link-cost-outdown" : "link-cost-inup",
                    {ev[i].time, ev[i].time},
                    Location::interface(net.router(a.router).name, a.name),
                    {}},
      {});
}

// ---- Baseline-relative anomaly detection ----------------------------------
// Rolling robust baseline per series: median + MAD over the last
// `anomaly_window` non-anomalous readings. "Lower is bad" metrics
// (throughput) alarm below the baseline, everything else above it.

void EventExtractor::State::sample(MetricSample m) {
  samples.push_back(std::move(m));
  std::push_heap(samples.begin(), samples.end(), std::greater<>{});
}

namespace {

double median_of(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(
                                              v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

}  // namespace

void EventExtractor::State::commit(TimeSec until) {
  for (FlapFamily& family : flaps) commit_flaps(family, until);
  commit_floods(until);

  while (!readings.empty() && readings.front().time < until) {
    std::pop_heap(readings.begin(), readings.end(), std::greater<>{});
    apply_reading(readings.back(), costs, links_out);
    readings.pop_back();
  }
  // A seed is decided once every transition within its window is known.
  const Emit to_pool = [this](EventInstance e, const std::string& key) {
    emit(std::move(e), key);
  };
  while (!costs.empty() &&
         costs.front().time + options.router_cost_window < until) {
    resolve_seed(costs, 0, to_pool);
    costs.pop_front();
  }

  while (!samples.empty() && samples.front().time < until) {
    std::pop_heap(samples.begin(), samples.end(), std::greater<>{});
    MetricSample m = std::move(samples.back());
    samples.pop_back();
    std::deque<double>& window = baselines[m.series];
    bool anomalous = false;
    if (window.size() >= options.anomaly_min_history) {
      std::vector<double> values(window.begin(), window.end());
      double median = median_of(values);
      std::vector<double> deviations;
      deviations.reserve(values.size());
      for (double v : values) deviations.push_back(std::abs(v - median));
      double sigma = std::max(1.4826 * median_of(deviations), 1e-3);
      double z = (m.value - median) / sigma;
      anomalous = m.lower_is_bad ? z < -options.anomaly_k
                                 : z > options.anomaly_k;
    }
    if (anomalous) {
      EventInstance inst;
      inst.name = std::move(m.event_name);
      inst.when = {m.time, m.time};
      inst.where = std::move(m.where);
      inst.attrs["value"] = util::format_double(m.value, 2);
      emit(std::move(inst));
    } else {
      window.push_back(m.value);
      if (window.size() > options.anomaly_window) window.pop_front();
    }
  }
  cut = std::max(cut, until);
}

void EventExtractor::State::lookahead(TimeSec until, const Emit& out) const {
  // Flaps: a committed down pairs with its key's next observation if that
  // is an up within the window.
  for (const FlapFamily& family : flaps) {
    for (const auto& [down, k] : family.pending) {
      if (k->staged.empty()) continue;
      const UpDown& next = k->staged.front();
      if (next.up && next.time - down <= options.flap_pair_window) {
        out(EventInstance{family.base + "-flap", {down, next.time},
                          k->where, {}},
            *k->key);
      }
    }
  }
  for (const FloodKey* k : open_floods) scan_bursts(*k, until, out);
  if (!costs.empty()) {
    // Seeds still open at the cut: add the transitions the staged readings
    // imply (on copies) and decide them as a batch run ending here would.
    std::deque<CostEvent> ev = costs;
    std::unordered_set<std::uint32_t> out_links = links_out;
    std::vector<MetricReading> staged;
    const TimeSec horizon = costs.back().time + options.router_cost_window;
    for (const MetricReading& m : readings) {
      if (m.time <= horizon) staged.push_back(m);
    }
    std::sort(staged.begin(), staged.end(),
              [](const MetricReading& x, const MetricReading& y) {
                return y > x;
              });
    for (const MetricReading& m : staged) apply_reading(m, ev, out_links);
    for (std::size_t i = 0; i < ev.size() && ev[i].time < until; ++i) {
      resolve_seed(ev, i, out);
    }
  }
}

// ---- EventExtractor ---------------------------------------------------------

EventExtractor::EventExtractor(const topology::Network& net,
                               ExtractOptions options)
    : net_(net),
      options_(options),
      state_(std::make_unique<State>(net_, options_)) {}

EventExtractor::~EventExtractor() = default;

void EventExtractor::feed(const NormalizedRecord& record) {
  if (state_->cut != kNone && record.utc < state_->cut) {
    throw StateError("EventExtractor::feed: record at " +
                     std::to_string(record.utc) + " is before the cut " +
                     std::to_string(state_->cut));
  }
  state_->feed(record);
}

void EventExtractor::advance(TimeSec cut, std::vector<EventInstance>& out) {
  State& s = *state_;
  if (s.cut != kNone && cut < s.cut) {
    throw StateError("EventExtractor::advance: cut moved backwards");
  }
  s.commit(cut);
  std::vector<Pending> batch;
  auto release = [&](Pending&& p) {
    if (p.first >= s.floor) batch.push_back(std::move(p));
  };
  // New instances due now skip the heap; the rest wait in it.
  for (Pending& p : s.fresh) {
    if (p.first < cut) {
      release(std::move(p));
    } else {
      s.pool.push_back(std::move(p));
      std::push_heap(s.pool.begin(), s.pool.end(), starts_later);
    }
  }
  s.fresh.clear();
  while (!s.pool.empty() && s.pool.front().first < cut) {
    std::pop_heap(s.pool.begin(), s.pool.end(), starts_later);
    release(std::move(s.pool.back()));
    s.pool.pop_back();
  }
  s.lookahead(cut, [&](EventInstance e, const std::string& key) {
    if (e.when.start < cut) {
      const TimeSec start = e.when.start;
      release(Pending(start, std::make_unique<Ready>(
                                 Ready{std::move(e), key, s.next_seq++})));
    }
  });
  std::sort(batch.begin(), batch.end(), release_before);
  out.reserve(out.size() + batch.size());
  for (Pending& p : batch) out.push_back(std::move(p.second->event));
  s.floor = std::max(s.floor, cut);
}

void EventExtractor::discard_before(TimeSec floor) {
  state_->floor = std::max(state_->floor, floor);
}

std::size_t EventExtractor::open_state() const noexcept {
  const State& s = *state_;
  std::size_t n = s.fresh.size() + s.pool.size() + s.floods.size() + s.flood_wake.size() +
                  s.readings.size() + s.links_out.size() + s.costs.size() +
                  s.samples.size();
  for (const State::FlapFamily& family : s.flaps) {
    n += family.keys.size() + family.wake.size();
  }
  return n;
}

void EventExtractor::extract(std::span<const NormalizedRecord> records,
                             EventStore& store) const {
  EventExtractor run(net_, options_);
  for (const NormalizedRecord& r : records) run.feed(r);
  std::vector<EventInstance> events;
  run.advance(std::numeric_limits<TimeSec>::max(), events);
  for (EventInstance& e : events) store.add(std::move(e));
}

void EventExtractor::extract_egress_changes(
    std::span<const NormalizedRecord> records, const routing::BgpSim& bgp,
    const std::vector<topology::RouterId>& observers,
    EventStore& store) const {
  for (const NormalizedRecord& r : records) {
    if (r.source != SourceType::kBgpMon) continue;
    auto prefix_it = r.attrs.find("prefix");
    if (prefix_it == r.attrs.end()) continue;
    util::Ipv4Prefix prefix = util::Ipv4Prefix::parse(prefix_it->second);
    // A representative destination inside the prefix.
    util::Ipv4Addr rep(prefix.address().value() +
                       (prefix.length() < 32 ? 1u : 0u));
    for (topology::RouterId observer : observers) {
      auto before = bgp.best_egress(observer, rep, r.utc - 1);
      auto after = bgp.best_egress(observer, rep, r.utc + 1);
      if (before == after) continue;
      EventInstance inst;
      inst.name = "bgp-egress-change";
      inst.when = {r.utc, r.utc};
      inst.where = Location::ingress_destination(
          net_.router(observer).name, rep.to_string());
      if (before) inst.attrs["from"] = net_.router(*before).name;
      if (after) inst.attrs["to"] = net_.router(*after).name;
      store.add(std::move(inst));
    }
  }
}

}  // namespace grca::collector
