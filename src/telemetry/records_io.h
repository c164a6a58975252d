// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Flat-file persistence for raw telemetry: tab-separated, one record per
// line, mirroring how real feeds are archived and replayed. Used by the
// grca CLI to decouple telemetry generation from analysis runs.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/records.h"

namespace grca::telemetry {

/// Writes one record as a single TSV line (no trailing newline handling —
/// the stream writer adds it). Tabs, newlines and backslashes inside fields
/// are escaped; attr keys and values also escape ';' and '='.
std::string to_tsv(const RawRecord& record);

/// Parses a line written by to_tsv. Numeric fields must be numbers from end
/// to end. Throws grca::ParseError, naming the bad field, on malformed input.
RawRecord from_tsv(const std::string& line);

/// Writes a stream with a header comment.
void write_stream(std::ostream& out, const RecordStream& stream);

/// Reads a stream (skips empty lines and comment lines starting with '#')
/// with from_tsv's parser; a ParseError names the line.
RecordStream read_stream(std::istream& in);

std::string_view source_name(SourceType type) noexcept;
SourceType parse_source(std::string_view name);

}  // namespace grca::telemetry
