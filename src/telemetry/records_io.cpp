// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "telemetry/records_io.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <system_error>

#include "util/error.h"

namespace grca::telemetry {

namespace {

/// Escapes the bytes that would end a field (tab, newline) and the escape
/// byte itself; attr keys and values also escape their separators.
std::string escape(const std::string& text, bool attr) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\\': out += "\\\\"; break;
      case ';':
      case '=':
        if (attr) out += '\\';
        out += c;
        break;
      default: out += c;
    }
  }
  return out;
}

/// Inverse of escape(): "\t" and "\n" decode to their control bytes, any
/// other escaped byte to itself. A trailing lone backslash is kept.
std::string unescape(std::string_view text) {
  if (text.find('\\') == std::string_view::npos) return std::string(text);
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out += text[i];
      continue;
    }
    switch (text[++i]) {
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default: out += text[i];
    }
  }
  return out;
}

/// Position of the first `sep` in `text` not preceded by an escaping
/// backslash, or npos.
std::size_t find_unescaped(std::string_view text, char sep) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
    } else if (text[i] == sep) {
      return i;
    }
  }
  return std::string_view::npos;
}

[[noreturn]] void bad_field(const char* name, std::string_view text) {
  throw ParseError(std::string("telemetry TSV: bad ") + name + " '" +
                   std::string(text) + "'");
}

/// Parses the whole of `text` as a number; anything left over, an empty
/// field or an out-of-range value is a ParseError naming the field.
template <typename T>
T parse_number(std::string_view text, const char* name) {
  T value{};
  const char* last = text.data() + text.size();
  auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) bad_field(name, text);
  return value;
}

void parse_attrs(std::string_view text,
                 std::map<std::string, std::string>& attrs) {
  if (text.empty()) return;
  for (;;) {
    const std::size_t semi = find_unescaped(text, ';');
    const std::string_view pair = text.substr(0, semi);
    const std::size_t eq = find_unescaped(pair, '=');
    if (eq == std::string_view::npos) bad_field("attr", pair);
    // to_tsv writes attrs in key order, so each lands at the end; a repeated
    // key keeps its last value.
    auto it = attrs.try_emplace(attrs.end(), unescape(pair.substr(0, eq)));
    it->second = unescape(pair.substr(eq + 1));
    if (semi == std::string_view::npos) break;
    text.remove_prefix(semi + 1);
  }
}

/// The one line parser: splits on tabs as views, parses numbers in place
/// and copies each text field once, into `r` (a default-constructed record).
void parse_line(std::string_view line, RawRecord& r) {
  constexpr std::size_t kFields = 8;
  std::string_view f[kFields];
  std::size_t n = 0;
  for (;;) {
    const std::size_t tab = line.find('\t');
    if (n < kFields) f[n] = line.substr(0, tab);
    ++n;
    if (tab == std::string_view::npos) break;
    line.remove_prefix(tab + 1);
  }
  if (n != kFields) {
    throw ParseError("telemetry TSV: expected 8 fields, got " +
                     std::to_string(n));
  }
  r.source = parse_source(f[0]);
  r.timestamp = parse_number<util::TimeSec>(f[1], "timestamp");
  r.device = unescape(f[2]);
  r.field = unescape(f[3]);
  r.body = unescape(f[4]);
  r.value = parse_number<double>(f[5], "value");
  r.true_utc = parse_number<util::TimeSec>(f[6], "true_utc");
  parse_attrs(f[7], r.attrs);
}

}  // namespace

std::string_view source_name(SourceType type) noexcept {
  return to_string(type);
}

SourceType parse_source(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(SourceType::kWorkflowLog); ++i) {
    auto type = static_cast<SourceType>(i);
    if (to_string(type) == name) return type;
  }
  throw ParseError("unknown telemetry source '" + std::string(name) + "'");
}

std::string to_tsv(const RawRecord& r) {
  std::ostringstream out;
  out << to_string(r.source) << '\t' << r.timestamp << '\t'
      << escape(r.device, false) << '\t' << escape(r.field, false) << '\t'
      << escape(r.body, false) << '\t' << r.value << '\t' << r.true_utc
      << '\t';
  bool first = true;
  for (const auto& [k, v] : r.attrs) {
    if (!first) out << ';';
    first = false;
    out << escape(k, true) << '=' << escape(v, true);
  }
  return out.str();
}

RawRecord from_tsv(const std::string& line) {
  RawRecord r;
  parse_line(line, r);
  return r;
}

void write_stream(std::ostream& out, const RecordStream& stream) {
  out << "# grca telemetry v1: source\ttimestamp\tdevice\tfield\tbody\tvalue"
         "\ttrue_utc\tattrs\n";
  for (const RawRecord& r : stream) out << to_tsv(r) << '\n';
}

RecordStream read_stream(std::istream& in) {
  // One read of the whole stream; lines are parsed as views into it and the
  // buffer is gone when this returns.
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string_view text = buffer.view();
  RecordStream stream;
  stream.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1));
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    try {
      parse_line(line, stream.emplace_back());
    } catch (const ParseError& e) {
      throw ParseError("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  return stream;
}

}  // namespace grca::telemetry
