// Small string utilities shared by the AFG DSL parser and report printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"

namespace vdce::common {

/// Split on a delimiter; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view text, char delim);

/// Split on any run of whitespace; no empty tokens are produced.
std::vector<std::string> split_ws(std::string_view text);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

/// Case-sensitive prefix/suffix tests.
bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

std::string to_lower(std::string_view text);

/// Strict numeric parsing (whole string must convert).
Expected<double> parse_double(std::string_view text);
Expected<std::int64_t> parse_int(std::string_view text);
Expected<std::uint64_t> parse_uint(std::string_view text);

/// Join pieces with a separator: join({"a","b"}, ", ") -> "a, b".
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// Fixed-width human formatting used by report tables.
std::string format_double(double value, int precision = 3);
std::string format_bytes(double bytes);

}  // namespace vdce::common
