// Shared harness for the experiment benches.
//
// Each bench binary reproduces one figure/table/claim from DESIGN.md's
// per-experiment index: it builds the workload, sweeps the parameter the
// experiment varies, and prints an aligned Table of the series the paper's
// evaluation would report.  EXPERIMENTS.md records the measured output next
// to the paper's qualitative claim.
//
// Benches that also emit machine-readable results do so through one
// bench::Run, so every BENCH_*.json shares one schema:
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
// decides whether a failed one fails the process.  ctest registers each
// JSON bench as `bench_<name>_smoke` (label `bench`; bench/CMakeLists.txt).
#pragma once

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"

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
/// writer for its BENCH_*.json.
class Run {
 public:
  /// One metrics entry.  Each setter appends a key and returns *this, so
  /// `run.row("sweep").num("k", 4).flag("ok", true)` builds a whole row.
  class Row {
   public:
    explicit Row(std::string& out) : out_(&out) {}
    Row& num(std::string_view key, double v) { return put(key, json_num(v)); }
    template <std::integral T>
      requires(!std::same_as<T, bool>)
    Row& num(std::string_view key, T v) {
      return put(key, std::to_string(v));
    }
    Row& flag(std::string_view key, bool v) {
      return put(key, v ? "true" : "false");
    }
    Row& str(std::string_view key, std::string_view v) {
      return put(key, json_str(v));
    }

   private:
    Row& put(std::string_view key, std::string_view value) {
      *out_ += ',';
      *out_ += json_str(key);
      *out_ += ':';
      *out_ += value;
      return *this;
    }
    std::string* out_;
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
    rows_.push_back("\"series\":" + json_str(series));
    return Row(rows_.back());
  }

  /// Records one gate.  `detail` says what was measured against what.
  void check(std::string name, bool ok, std::string detail = {}) {
    checks_.push_back({std::move(name), ok, std::move(detail)});
  }

  /// The whole document, one line.
  [[nodiscard]] std::string json() const {
    std::string out = "{\"bench\":" + json_str(bench_) + ",\"mode\":" +
                      json_str(smoke_ ? "smoke" : "full") + ",\"metrics\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += (i ? ",{" : "{") + rows_[i] + "}";
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
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };

  std::string bench_;
  std::string path_;
  bool smoke_ = false;
  bool check_ = false;
  std::deque<std::string> rows_;  ///< stable addresses for live Row handles
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

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Convenience: format doubles with the given precision.
  static std::string num(double v, int precision = 3) {
    return common::format_double(v, precision);
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf("%s%-*s", c == 0 ? "  " : "  ",
                    static_cast<int>(width[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::string rule;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      rule += std::string(width[c] + 2, '-');
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vdce::bench
