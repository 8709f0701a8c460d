// Shared harness for the experiment benches.
//
// Each bench binary reproduces one figure/table/claim from DESIGN.md's
// per-experiment index: it builds the workload, sweeps the parameter the
// experiment varies, and records every result once, as a row of one
// bench::Run.  From those rows Run renders both outputs: the console table
// of a series (Run::table) and the BENCH_*.json document, so the two can
// never disagree.  EXPERIMENTS.md records the measured output next to the
// paper's qualitative claim.  Every document shares one schema:
//
//   {"bench": "<name>", "mode": "smoke" | "full",
//    "metrics": [{"series": "<series>", "<key>": <value>, ...}, ...],
//    "checks":  [{"name": "<gate>", "ok": true | false, "detail": "..."}]}
//
// Every metrics entry is one flat object; a nested quantity takes a dotted
// key ("grid.sites", "by_class.crash.recall").  Numbers are written in
// their shortest round-trip form, non-finite values as null.  Run accepts
// exactly two flags, in any order:
//
//   --smoke   the small configuration (the per-commit CI signal)
//   --check   finish() returns 1 when any recorded check failed
//
// Anything else prints a usage line and exits 2, so a typo cannot skip a
// gate.  Checks are always evaluated and recorded in the JSON; --check only
// decides whether a failed one fails the process.  ctest registers every
// bench as `bench_<name>_smoke` (label `bench`; bench/CMakeLists.txt).
#pragma once

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace vdce::bench {

/// Round-trippable JSON number: the shortest decimal form that parses back
/// to the identical double (std::to_chars with no precision argument), so
/// equal doubles always serialize to equal bytes on every toolchain.  JSON
/// has no syntax for NaN or infinities; they emit null, never a number that
/// could read as a perfect result.
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "null";
  return std::string(buf, end);
}

/// A JSON string literal: quotes, backslashes and control characters escaped.
inline std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// printf into a std::string (check details, notes).
[[gnu::format(printf, 1, 2)]] inline std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

/// Steady-clock milliseconds, for the wall-clock columns.
inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One bench invocation: its flags, metrics rows and checks, and the one
/// writer for both its console tables and its BENCH_*.json.
class Run {
  using Value =
      std::variant<double, std::int64_t, std::uint64_t, bool, std::string>;

  /// One metrics entry: its series and its keys and values in the order
  /// they were recorded.
  struct Entry {
    std::string series;
    std::vector<std::pair<std::string, Value>> fields;
  };

 public:
  /// Handle on one entry.  Each setter appends a key and returns *this, so
  /// `run.row("sweep").num("k", 4).flag("ok", true)` builds a whole row.
  class Row {
   public:
    Row& num(std::string_view key, double v) { return put(key, v); }
    template <std::integral T>
      requires(!std::same_as<T, bool>)
    Row& num(std::string_view key, T v) {
      if constexpr (std::is_signed_v<T>) {
        return put(key, static_cast<std::int64_t>(v));
      } else {
        return put(key, static_cast<std::uint64_t>(v));
      }
    }
    Row& flag(std::string_view key, bool v) { return put(key, v); }
    Row& str(std::string_view key, std::string_view v) {
      return put(key, std::string(v));
    }

   private:
    friend class Run;
    explicit Row(Entry& entry) : entry_(&entry) {}
    Row& put(std::string_view key, Value value) {
      entry_->fields.emplace_back(std::string(key), std::move(value));
      return *this;
    }
    Entry* entry_;
  };

  /// Parses argv; an unknown argument prints usage and exits 2.
  Run(int argc, char** argv, std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--smoke") {
        smoke_ = true;
      } else if (arg == "--check") {
        check_ = true;
      } else {
        std::fprintf(stderr,
                     "%s: unknown argument '%s'\nusage: %s [--smoke] "
                     "[--check]\n",
                     argv[0], argv[i], argv[0]);
        std::exit(2);
      }
    }
  }

  [[nodiscard]] bool smoke() const { return smoke_; }

  /// Starts a new metrics entry tagged with `series`.
  Row row(std::string_view series) {
    rows_.push_back(Entry{std::string(series), {}});
    return Row(rows_.back());
  }

  /// Records one gate.  `detail` says what was measured against what.
  void check(std::string name, bool ok, std::string detail = {}) {
    checks_.push_back({std::move(name), ok, std::move(detail)});
  }

  /// The rows of `series` as an aligned table: one column per key, in the
  /// order the keys were first recorded, and a blank cell where a row lacks
  /// a key.
  [[nodiscard]] std::string table_text(std::string_view series) const {
    std::vector<std::string> keys;
    std::vector<const Entry*> entries;
    for (const Entry& e : rows_) {
      if (e.series != series) continue;
      entries.push_back(&e);
      for (const auto& field : e.fields) {
        if (std::find(keys.begin(), keys.end(), field.first) == keys.end()) {
          keys.push_back(field.first);
        }
      }
    }
    std::vector<std::vector<std::string>> lines{keys};
    for (const Entry* e : entries) {
      std::vector<std::string>& line = lines.emplace_back(keys.size());
      for (const auto& [key, value] : e->fields) {
        const auto at = std::find(keys.begin(), keys.end(), key);
        line[static_cast<std::size_t>(at - keys.begin())] = cell(value);
      }
    }
    std::vector<std::size_t> width(keys.size(), 0);
    for (const auto& line : lines) {
      for (std::size_t c = 0; c < line.size(); ++c) {
        width[c] = std::max(width[c], line[c].size());
      }
    }
    std::string out;
    for (std::size_t l = 0; l < lines.size(); ++l) {
      std::string text;
      for (std::size_t c = 0; c < keys.size(); ++c) {
        text += "  " + lines[l][c];
        text.append(width[c] - lines[l][c].size(), ' ');
      }
      const std::size_t rule = text.size();
      out += text.erase(text.find_last_not_of(' ') + 1) + '\n';
      if (l == 0) out += std::string(rule, '-') + '\n';
    }
    return out;
  }

  /// Prints table_text(series) to stdout.
  void table(std::string_view series) const {
    std::fputs(table_text(series).c_str(), stdout);
  }

  /// The whole document, one line.
  [[nodiscard]] std::string json() const {
    std::string out = "{\"bench\":" + json_str(bench_) + ",\"mode\":" +
                      json_str(smoke_ ? "smoke" : "full") + ",\"metrics\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += (i ? ",{\"series\":" : "{\"series\":") + json_str(rows_[i].series);
      for (const auto& [key, value] : rows_[i].fields) {
        out += ',' + json_str(key) + ':' + json_value(value);
      }
      out += '}';
    }
    out += "],\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      const Check& c = checks_[i];
      out += (i ? ",{\"name\":" : "{\"name\":") + json_str(c.name) +
             ",\"ok\":" + (c.ok ? "true" : "false") +
             ",\"detail\":" + json_str(c.detail) + "}";
    }
    return out + "]}";
  }

  /// Prints the JSON line, writes the file, prints one `check:` line per
  /// check.  Returns 1 if the file could not be written, or if --check was
  /// given and a check failed; 0 otherwise.
  [[nodiscard]] int finish() const {
    const std::string doc = json();
    std::printf("\n%s\n", doc.c_str());
    bool written = false;
    if (FILE* f = std::fopen(path_.c_str(), "w")) {
      const bool put = std::fprintf(f, "%s\n", doc.c_str()) >= 0;
      written = std::fclose(f) == 0 && put;
    }
    if (!written) {
      std::fprintf(stderr, "error: could not write %s: %s\n", path_.c_str(),
                   std::strerror(errno));
    }
    bool all_ok = true;
    for (const Check& c : checks_) {
      all_ok = all_ok && c.ok;
      std::printf("check: %s %s%s%s%s\n", c.name.c_str(),
                  c.ok ? "ok" : "FAILED", c.detail.empty() ? "" : " (",
                  c.detail.c_str(), c.detail.empty() ? "" : ")");
    }
    std::fflush(stdout);
    return !written || (check_ && !all_ok) ? 1 : 0;
  }

 private:
  /// A value as a JSON token.
  [[nodiscard]] static std::string json_value(const Value& v) {
    if (const double* d = std::get_if<double>(&v)) return json_num(*d);
    if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
      return std::to_string(*i);
    }
    if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v)) {
      return std::to_string(*u);
    }
    if (const bool* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
    return json_str(std::get<std::string>(v));
  }

  /// A value as a table cell: every double in one format (six significant
  /// digits), integers, booleans and strings as they are.
  [[nodiscard]] static std::string cell(const Value& v) {
    if (const double* d = std::get_if<double>(&v)) return strf("%.6g", *d);
    if (const std::string* s = std::get_if<std::string>(&v)) return *s;
    return json_value(v);
  }

  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };

  std::string bench_;
  std::string path_;
  bool smoke_ = false;
  bool check_ = false;
  std::deque<Entry> rows_;  ///< stable addresses for live Row handles
  std::vector<Check> checks_;
};

inline void print_title(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void print_note(const std::string& note) {
  std::printf("%s\n", note.c_str());
}

}  // namespace vdce::bench
