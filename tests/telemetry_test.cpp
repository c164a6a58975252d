// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the telemetry layer: syslog message vocabulary, the emitter's
// per-source conventions, stream ordering, and TSV persistence.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <utility>

#include "simulation/emitter.h"
#include "telemetry/records_io.h"
#include "topology/topo_gen.h"
#include "util/rng.h"
#include "util/strings.h"

namespace grca::telemetry {
namespace {

namespace t = topology;

// ---- message vocabulary -----------------------------------------------

TEST(Messages, CiscoStyleBodies) {
  EXPECT_EQ(msg::link_updown("so-0/0/0", false),
            "%LINK-3-UPDOWN: Interface so-0/0/0, changed state to down");
  EXPECT_EQ(msg::lineproto_updown("ge-1/0/2", true),
            "%LINEPROTO-5-UPDOWN: Line protocol on Interface ge-1/0/2, "
            "changed state to up");
  EXPECT_EQ(msg::bgp_adjchange("10.0.0.2", false, "Interface flap"),
            "%BGP-5-ADJCHANGE: neighbor 10.0.0.2 Down Interface flap");
  EXPECT_EQ(msg::bgp_notification("10.0.0.2", true, "4/0", "hold time expired"),
            "%BGP-5-NOTIFICATION: sent to neighbor 10.0.0.2 4/0 (hold time "
            "expired)");
  EXPECT_EQ(msg::pim_nbrchg("10.255.0.9", "mvpn-1", false),
            "%PIM-5-NBRCHG: VRF mvpn-1: neighbor 10.255.0.9 DOWN");
  EXPECT_NE(msg::linecard_crash(3).find("slot 3"), std::string::npos);
  EXPECT_NE(msg::cpu_threshold(95).find("95%"), std::string::npos);
}

// ---- emitter conventions -------------------------------------------------

TEST(Emitter, SourceConventions) {
  t::TopoParams tp;
  tp.pops = 2;
  tp.pers_per_pop = 1;
  tp.customers_per_per = 1;
  t::Network net = t::generate_isp(tp);
  sim::TelemetryEmitter emitter(net);
  const t::Router& r = net.routers()[0];
  util::TimeSec utc = util::make_utc(2010, 6, 1, 12, 0, 0);
  emitter.syslog(r.id, utc, "test");
  emitter.snmp_router(r.id, utc, "cpu5min", 50);
  emitter.tacacs(r.id, utc, "ops", "show version");
  auto stream = emitter.take();
  ASSERT_EQ(stream.size(), 3u);
  // Syslog: uppercase name, local timestamp.
  const RawRecord* syslog = &stream[0];
  for (const RawRecord& rec : stream) {
    if (rec.source == SourceType::kSyslog) syslog = &rec;
  }
  EXPECT_NE(syslog->device, r.name);
  EXPECT_EQ(util::to_lower(syslog->device), r.name);
  EXPECT_NE(syslog->timestamp, utc);  // the router is not in UTC
  for (const RawRecord& rec : stream) {
    if (rec.source == SourceType::kSnmp) {
      EXPECT_NE(rec.device.find(".net.example"), std::string::npos);
      EXPECT_EQ(rec.timestamp, utc);  // poller stamps UTC
    }
    if (rec.source == SourceType::kTacacs) {
      EXPECT_EQ(rec.device, r.name);  // canonical lowercase
    }
  }
}

TEST(Emitter, TakeSortsByTrueUtc) {
  t::Network net = t::generate_isp(t::TopoParams{});
  sim::TelemetryEmitter emitter(net);
  emitter.syslog(net.routers()[0].id, 5000, "b");
  emitter.syslog(net.routers()[0].id, 1000, "a");
  emitter.workflow(net.routers()[0].id, 3000, "x");
  auto stream = emitter.take();
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_LE(stream[0].true_utc, stream[1].true_utc);
  EXPECT_LE(stream[1].true_utc, stream[2].true_utc);
}

// ---- TSV persistence ---------------------------------------------------------

RawRecord sample_record() {
  RawRecord r;
  r.source = SourceType::kBgpMon;
  r.timestamp = 1262349000;
  r.device = "nyc-per1";
  r.field = "f";
  r.body = "announce with\ttab and\nnewline";
  r.value = 3.25;
  r.true_utc = 1262349001;
  r.attrs["prefix"] = "96.0.0.0/24";
  r.attrs["odd"] = "semi;colon=eq";
  return r;
}

TEST(RecordsIo, RoundTripSingle) {
  RawRecord r = sample_record();
  RawRecord back = from_tsv(to_tsv(r));
  EXPECT_EQ(back.source, r.source);
  EXPECT_EQ(back.timestamp, r.timestamp);
  EXPECT_EQ(back.device, r.device);
  EXPECT_EQ(back.body, r.body);
  EXPECT_EQ(back.value, r.value);
  EXPECT_EQ(back.true_utc, r.true_utc);
  EXPECT_EQ(back.attrs, r.attrs);  // "odd" holds both separators
}

TEST(RecordsIo, RoundTripStream) {
  t::Network net = t::generate_isp(t::TopoParams{});
  sim::TelemetryEmitter emitter(net);
  emitter.syslog(net.routers()[0].id, 1000,
                 msg::link_updown("so-0/0/0", false));
  emitter.snmp_interface(net.links()[0].side_a, 1200, "ifutil", 91.5);
  emitter.ospfmon(net.links()[0].id, 1300, 20);
  RecordStream original = emitter.take();
  std::stringstream ss;
  write_stream(ss, original);
  RecordStream back = read_stream(ss);
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].source, original[i].source);
    EXPECT_EQ(back[i].timestamp, original[i].timestamp);
    EXPECT_EQ(back[i].device, original[i].device);
    EXPECT_EQ(back[i].body, original[i].body);
    EXPECT_EQ(back[i].attrs, original[i].attrs);
  }
}

TEST(RecordsIo, RejectsMalformedLines) {
  EXPECT_THROW(from_tsv("only three\tfields\there"), ParseError);
  EXPECT_THROW(from_tsv("nosuchsource\t1\td\tf\tb\t0\t1\t"), ParseError);
  EXPECT_THROW(
      from_tsv("syslog\t1\td\tf\tb\t0\t1\tbadattr-without-equals"),
      ParseError);
  EXPECT_THROW(from_tsv("syslog\t1\td\tf\tb\t0\t1\ta=1;"), ParseError);
  // Numeric fields must be numbers from end to end; the error names the
  // field.
  const std::pair<std::string, std::string> bad_numbers[] = {
      {"syslog\t12abc\td\tf\tb\t0\t1\t", "timestamp"},
      {"syslog\t\td\tf\tb\t0\t1\t", "timestamp"},
      {"syslog\t 12\td\tf\tb\t0\t1\t", "timestamp"},
      {"syslog\t1.5\td\tf\tb\t0\t1\t", "timestamp"},
      {"syslog\t99999999999999999999\td\tf\tb\t0\t1\t", "timestamp"},
      {"syslog\t1\td\tf\tb\t1.5xyz\t1\t", "value"},
      {"syslog\t1\td\tf\tb\tabc\t1\t", "value"},
      {"syslog\t1\td\tf\tb\t\t1\t", "value"},
      {"syslog\t1\td\tf\tb\t0\t7x\t", "true_utc"},
  };
  for (const auto& [line, field] : bad_numbers) {
    try {
      from_tsv(line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(RecordsIo, ReadStreamNamesTheBadLine) {
  std::stringstream ss("# header\n"
                       "syslog\t1\td\tf\tb\t0\t1\t\n"
                       "syslog\t1\td\tf\tb\t0\t1x\t\n");
  try {
    read_stream(ss);
    ADD_FAILURE() << "accepted a bad true_utc";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(RecordsIo, AttrSeparatorsRoundTrip) {
  RawRecord r;
  r.attrs["a;b"] = "x=y";
  r.attrs["k=v"] = "a;b";
  r.attrs["plain"] = "1";
  r.attrs[""] = "";
  RawRecord back = from_tsv(to_tsv(r));
  EXPECT_EQ(back.attrs, r.attrs);
  // Attrs without separators are written exactly as before.
  RawRecord plain;
  plain.attrs["interface"] = "so-0/0/0";
  plain.attrs["user"] = "ops";
  EXPECT_EQ(to_tsv(plain),
            "syslog\t0\t\t\t\t0\t0\tinterface=so-0/0/0;user=ops");
}

/// A random string over the bytes the TSV format must escape, plus ordinary
/// ones.
std::string random_text(util::Rng& rng) {
  static constexpr char kAlphabet[] = {'\t', '\n', '\\', ';', '=', '#',
                                       ' ',  'a',  'Z',   '0', 't', 'n'};
  std::string out(rng.below(8), ' ');
  for (char& c : out) c = kAlphabet[rng.below(sizeof(kAlphabet))];
  return out;
}

/// A value that to_tsv's six significant digits print exactly: either a
/// special or a decimal with at most six digits in any exponent form.
double random_value(util::Rng& rng) {
  static constexpr double kSpecial[] = {
      0.0, -1.0, 3.25, 1e+20, -2.5e-07, 1e-300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  if (rng.chance(0.3)) return kSpecial[rng.below(std::size(kSpecial))];
  return std::stod(std::to_string(rng.range(-999999, 999999)) + "e" +
                   std::to_string(rng.range(-40, 40)));
}

TEST(RecordsIo, SeededRoundTripProperty) {
  util::Rng rng(20260517);
  RecordStream original;
  for (int i = 0; i < 500; ++i) {
    RawRecord r;
    r.source = static_cast<SourceType>(
        rng.below(static_cast<int>(SourceType::kWorkflowLog) + 1));
    r.timestamp = rng.chance(0.1) ? std::numeric_limits<util::TimeSec>::min()
                                  : rng.range(-4'000'000'000, 4'000'000'000);
    r.device = random_text(rng);
    r.field = random_text(rng);
    r.body = random_text(rng);
    r.value = random_value(rng);
    r.true_utc = rng.chance(0.1) ? std::numeric_limits<util::TimeSec>::max()
                                 : rng.range(-4'000'000'000, 4'000'000'000);
    for (std::uint64_t n = rng.below(4); n > 0; --n) {
      r.attrs[random_text(rng)] = random_text(rng);
    }
    original.push_back(std::move(r));
  }
  auto expect_same = [](const RawRecord& a, const RawRecord& b) {
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.timestamp, b.timestamp);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.field, b.field);
    EXPECT_EQ(a.body, b.body);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.true_utc, b.true_utc);
    EXPECT_EQ(a.attrs, b.attrs);
  };
  for (const RawRecord& r : original) expect_same(from_tsv(to_tsv(r)), r);
  std::stringstream ss;
  write_stream(ss, original);
  RecordStream back = read_stream(ss);
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < back.size(); ++i) expect_same(back[i], original[i]);
}

TEST(RecordsIo, SourceNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(SourceType::kWorkflowLog); ++i) {
    auto type = static_cast<SourceType>(i);
    EXPECT_EQ(parse_source(source_name(type)), type);
  }
  EXPECT_THROW(parse_source("carrier-pigeon"), ParseError);
}

}  // namespace
}  // namespace grca::telemetry
