#include "obs/trace.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

namespace vdce::obs {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_args_object(std::string& out, const std::vector<TraceArg>& args) {
  out += '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(args[i].key);
    out += "\":";
    if (args[i].is_number) {
      out += args[i].value;
    } else {
      out += '"';
      out += json_escape(args[i].value);
      out += '"';
    }
  }
  out += '}';
}

void append_causal_fields(std::string& out, const Causal& causal) {
  if (causal.app != kNoCausalId) {
    out += ",\"app\":";
    out += std::to_string(causal.app);
  }
  if (causal.task != kNoCausalId) {
    out += ",\"task\":";
    out += std::to_string(causal.task);
  }
  if (causal.src_task != kNoCausalId) {
    out += ",\"src_task\":";
    out += std::to_string(causal.src_task);
  }
  if (!causal.deps.empty()) {
    out += ",\"deps\":[";
    for (std::size_t i = 0; i < causal.deps.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(causal.deps[i]);
    }
    out += ']';
  }
}

}  // namespace

TraceArg arg(std::string key, std::string value) {
  return TraceArg{std::move(key), std::move(value), false};
}
TraceArg arg(std::string key, const char* value) {
  return TraceArg{std::move(key), value, false};
}
TraceArg arg(std::string key, double value) {
  return TraceArg{std::move(key), json_number(value), true};
}
TraceArg arg(std::string key, std::uint64_t value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}
TraceArg arg(std::string key, std::uint32_t value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}
TraceArg arg(std::string key, std::int64_t value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}
TraceArg arg(std::string key, int value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}
TraceArg arg(std::string key, bool value) {
  return TraceArg{std::move(key), value ? "true" : "false", true};
}

void TraceSink::push(TraceEvent event) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceSink::span(std::string category, std::string name,
                     common::SimTime start, common::SimTime end,
                     std::uint32_t track, std::vector<TraceArg> args,
                     Causal causal) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.phase = TracePhase::kSpan;
  ev.category = std::move(category);
  ev.name = std::move(name);
  ev.start = start;
  ev.duration = end - start;
  ev.track = track;
  ev.causal = std::move(causal);
  ev.args = std::move(args);
  push(std::move(ev));
}

void TraceSink::instant(std::string category, std::string name,
                        common::SimTime time, std::uint32_t track,
                        std::vector<TraceArg> args, Causal causal) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.phase = TracePhase::kInstant;
  ev.category = std::move(category);
  ev.name = std::move(name);
  ev.start = time;
  ev.track = track;
  ev.causal = std::move(causal);
  ev.args = std::move(args);
  push(std::move(ev));
}

void TraceSink::clear() {
  events_.clear();
  dropped_ = 0;
}

std::size_t TraceSink::count(std::string_view name_prefix) const {
  std::size_t n = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.name.size() >= name_prefix.size() &&
        std::string_view(ev.name).substr(0, name_prefix.size()) ==
            name_prefix) {
      ++n;
    }
  }
  return n;
}

std::string render_jsonl(const std::vector<TrackInfo>& tracks,
                         const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TrackInfo& t : tracks) {
    out += "{\"meta\":\"track\",\"track\":";
    out += std::to_string(t.track);
    out += ",\"site\":";
    out += std::to_string(t.site);
    out += ",\"name\":\"";
    out += json_escape(t.name);
    out += "\"}\n";
  }
  for (const TraceEvent& ev : events) {
    out += "{\"phase\":\"";
    out += to_string(ev.phase);
    out += "\",\"cat\":\"";
    out += json_escape(ev.category);
    out += "\",\"name\":\"";
    out += json_escape(ev.name);
    out += "\",\"t\":";
    out += json_number(ev.start);
    if (ev.phase == TracePhase::kSpan) {
      out += ",\"dur\":";
      out += json_number(ev.duration);
    }
    out += ",\"track\":";
    out += std::to_string(ev.track);
    append_causal_fields(out, ev.causal);
    if (!ev.args.empty()) {
      out += ",\"args\":";
      append_args_object(out, ev.args);
    }
    out += "}\n";
  }
  return out;
}

std::string TraceSink::to_jsonl() const {
  return render_jsonl(tracks_, events_);
}

std::string render_chrome_trace(const std::vector<TrackInfo>& tracks,
                                const std::vector<TraceEvent>& events) {
  // Timestamps are simulated seconds; Chrome expects microseconds.
  constexpr double kUsPerSecond = 1e6;
  // pid layout: 0 = control plane, site s = pid s + 1.  Hosts whose site is
  // unknown (no track metadata) fall back onto the control pid so bare
  // sinks still export a readable single-process trace.
  constexpr std::uint32_t kControlPid = 0;
  auto pid_of = [&](std::uint32_t track) -> std::uint32_t {
    if (track == kControlTrack) return kControlPid;
    for (const TrackInfo& t : tracks) {
      if (t.track == track && t.site != kNoCausalId) return t.site + 1;
    }
    return kControlPid;
  };
  auto name_of = [&](std::uint32_t track) -> std::string {
    if (track == kControlTrack) return "control";
    for (const TrackInfo& t : tracks) {
      if (t.track == track && !t.name.empty()) return t.name;
    }
    return "host " + std::to_string(track);
  };

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };

  // process_name metadata: one process per site plus the control plane.
  std::vector<std::uint32_t> pids_seen;
  auto emit_process = [&](std::uint32_t pid) {
    for (std::uint32_t p : pids_seen) {
      if (p == pid) return;
    }
    pids_seen.push_back(pid);
    comma();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    out += pid == kControlPid ? "control"
                              : "site " + std::to_string(pid - 1);
    out += "\"}}";
  };

  // thread_name metadata so tracks read "m3.site1.vdce" in the viewer.
  std::vector<std::uint32_t> tracks_seen;
  for (const TraceEvent& ev : events) {
    bool seen = false;
    for (std::uint32_t t : tracks_seen) {
      if (t == ev.track) {
        seen = true;
        break;
      }
    }
    if (!seen) tracks_seen.push_back(ev.track);
  }
  for (std::uint32_t track : tracks_seen) {
    emit_process(pid_of(track));
    comma();
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    out += std::to_string(pid_of(track));
    out += ",\"tid\":";
    out += std::to_string(track);
    out += ",\"args\":{\"name\":\"";
    out += json_escape(name_of(track));
    out += "\"}}";
  }

  for (const TraceEvent& ev : events) {
    comma();
    out += "{\"name\":\"";
    out += json_escape(ev.name);
    out += "\",\"cat\":\"";
    out += json_escape(ev.category);
    out += "\",\"ph\":\"";
    out += ev.phase == TracePhase::kSpan ? 'X' : 'i';
    out += "\",\"ts\":";
    out += json_number(ev.start * kUsPerSecond);
    if (ev.phase == TracePhase::kSpan) {
      out += ",\"dur\":";
      out += json_number(ev.duration * kUsPerSecond);
    } else {
      out += ",\"s\":\"t\"";  // instant scope: thread
    }
    out += ",\"pid\":";
    out += std::to_string(pid_of(ev.track));
    out += ",\"tid\":";
    out += std::to_string(ev.track);
    if (!ev.args.empty() || !ev.causal.empty()) {
      // Surface causal identity inside args so the viewer shows it on click.
      out += ",\"args\":{";
      bool first_arg = true;
      auto arg_comma = [&] {
        if (!first_arg) out += ',';
        first_arg = false;
      };
      if (ev.causal.app != kNoCausalId) {
        arg_comma();
        out += "\"causal_app\":" + std::to_string(ev.causal.app);
      }
      if (ev.causal.task != kNoCausalId) {
        arg_comma();
        out += "\"causal_task\":" + std::to_string(ev.causal.task);
      }
      if (ev.causal.src_task != kNoCausalId) {
        arg_comma();
        out += "\"causal_src_task\":" + std::to_string(ev.causal.src_task);
      }
      for (const TraceArg& a : ev.args) {
        arg_comma();
        out += '"';
        out += json_escape(a.key);
        out += "\":";
        if (a.is_number) {
          out += a.value;
        } else {
          out += '"';
          out += json_escape(a.value);
          out += '"';
        }
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string TraceSink::to_chrome_trace() const {
  return render_chrome_trace(tracks_, events_);
}

// ---- JSONL parse-back -------------------------------------------------------
//
// A deliberately small JSON-object-per-line parser for the exporter's own
// output.  It is lossless: number tokens are kept as raw text, so
// render_jsonl(parse_jsonl(x)) == x byte-for-byte.

namespace {

class LineParser {
 public:
  explicit LineParser(std::string_view line) : s_(line) {}

  /// Parse `{"key":value,...}` invoking `field(key, raw_or_unescaped)`.
  /// Returns false on malformed syntax.
  template <typename OnString, typename OnNumber, typename OnArray,
            typename OnObjectStart>
  bool parse_object(const OnString& on_string, const OnNumber& on_number,
                    const OnArray& on_array, const OnObjectStart& on_object);

  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos_ == s_.size();
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (peek() != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The exporter only emits \u00xx for control bytes.
          out += static_cast<char>(code & 0xFF);
          break;
        }
        default: return false;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  /// Raw number token (kept as text for lossless round-trips).
  bool parse_number_raw(std::string& out) {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    out.assign(s_.substr(start, pos_ - start));
    return true;
  }

  bool parse_literal(std::string_view word) {
    skip_ws();
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void advance() { ++pos_; }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// One parsed value in an exporter line: a string, a raw number token, a
/// boolean literal (from bool args), or an array of raw number tokens.
struct FieldValue {
  enum class Kind { kString, kNumber, kLiteral, kNumberArray, kArgs } kind;
  std::string text;                         ///< string (unescaped) / raw token
  std::vector<std::string> numbers;         ///< kNumberArray
  std::vector<TraceArg> args;               ///< kArgs
};

bool parse_value(LineParser& p, FieldValue& out);

bool parse_args_object(LineParser& p, std::vector<TraceArg>& out) {
  if (p.peek() != '{') return false;
  p.advance();
  if (p.peek() == '}') {
    p.advance();
    return true;
  }
  while (true) {
    TraceArg a;
    if (!p.parse_string(a.key)) return false;
    if (p.peek() != ':') return false;
    p.advance();
    char c = p.peek();
    if (c == '"') {
      if (!p.parse_string(a.value)) return false;
      a.is_number = false;
    } else if (c == 't') {
      if (!p.parse_literal("true")) return false;
      a.value = "true";
      a.is_number = true;
    } else if (c == 'f') {
      if (!p.parse_literal("false")) return false;
      a.value = "false";
      a.is_number = true;
    } else {
      if (!p.parse_number_raw(a.value)) return false;
      a.is_number = true;
    }
    out.push_back(std::move(a));
    if (p.peek() == ',') {
      p.advance();
      continue;
    }
    if (p.peek() == '}') {
      p.advance();
      return true;
    }
    return false;
  }
}

bool parse_value(LineParser& p, FieldValue& out) {
  char c = p.peek();
  if (c == '"') {
    out.kind = FieldValue::Kind::kString;
    return p.parse_string(out.text);
  }
  if (c == '[') {
    out.kind = FieldValue::Kind::kNumberArray;
    p.advance();
    if (p.peek() == ']') {
      p.advance();
      return true;
    }
    while (true) {
      std::string num;
      if (!p.parse_number_raw(num)) return false;
      out.numbers.push_back(std::move(num));
      if (p.peek() == ',') {
        p.advance();
        continue;
      }
      if (p.peek() == ']') {
        p.advance();
        return true;
      }
      return false;
    }
  }
  if (c == '{') {
    out.kind = FieldValue::Kind::kArgs;
    return parse_args_object(p, out.args);
  }
  if (c == 't' || c == 'f') {
    out.kind = FieldValue::Kind::kLiteral;
    if (p.parse_literal("true")) {
      out.text = "true";
      return true;
    }
    if (p.parse_literal("false")) {
      out.text = "false";
      return true;
    }
    return false;
  }
  out.kind = FieldValue::Kind::kNumber;
  return p.parse_number_raw(out.text);
}

common::Error parse_error(std::size_t line_no, const std::string& what) {
  return common::Error{common::ErrorCode::kParseError,
                       "trace JSONL line " + std::to_string(line_no) + ": " +
                           what};
}

bool to_u32(const std::string& raw, std::uint32_t& out) {
  if (raw.empty()) return false;
  std::uint64_t v = 0;
  for (char c : raw) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > 0xFFFFFFFFull) return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace

common::Expected<ParsedTrace> parse_jsonl(std::string_view text) {
  ParsedTrace parsed;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;

    LineParser p(line);
    if (p.peek() != '{') return parse_error(line_no, "expected '{'");
    p.advance();

    // Collect the line's fields generically, then interpret.
    bool is_meta = false;
    TrackInfo track_info;
    TraceEvent ev;
    bool has_dur = false;
    bool first_field = true;
    while (true) {
      if (p.peek() == '}') {
        p.advance();
        break;
      }
      if (!first_field) {
        if (p.peek() != ',') return parse_error(line_no, "expected ','");
        p.advance();
      }
      first_field = false;
      std::string key;
      if (!p.parse_string(key)) return parse_error(line_no, "bad key");
      if (p.peek() != ':') return parse_error(line_no, "expected ':'");
      p.advance();
      FieldValue value;
      if (!parse_value(p, value)) {
        return parse_error(line_no, "bad value for \"" + key + "\"");
      }

      if (key == "meta") {
        is_meta = true;
      } else if (key == "phase") {
        ev.phase = value.text == "span" ? TracePhase::kSpan
                                        : TracePhase::kInstant;
      } else if (key == "cat") {
        ev.category = std::move(value.text);
      } else if (key == "name") {
        if (is_meta) {
          track_info.name = std::move(value.text);
        } else {
          ev.name = std::move(value.text);
        }
      } else if (key == "t") {
        ev.start = std::strtod(value.text.c_str(), nullptr);
      } else if (key == "dur") {
        ev.duration = std::strtod(value.text.c_str(), nullptr);
        has_dur = true;
      } else if (key == "track") {
        std::uint32_t v = 0;
        if (!to_u32(value.text, v)) return parse_error(line_no, "bad track");
        if (is_meta) {
          track_info.track = v;
        } else {
          ev.track = v;
        }
      } else if (key == "site") {
        std::uint32_t v = 0;
        if (!to_u32(value.text, v)) return parse_error(line_no, "bad site");
        track_info.site = v;
      } else if (key == "app") {
        if (!to_u32(value.text, ev.causal.app)) {
          return parse_error(line_no, "bad app");
        }
      } else if (key == "task") {
        if (!to_u32(value.text, ev.causal.task)) {
          return parse_error(line_no, "bad task");
        }
      } else if (key == "src_task") {
        if (!to_u32(value.text, ev.causal.src_task)) {
          return parse_error(line_no, "bad src_task");
        }
      } else if (key == "deps") {
        for (const std::string& raw : value.numbers) {
          std::uint32_t v = 0;
          if (!to_u32(raw, v)) return parse_error(line_no, "bad dep");
          ev.causal.deps.push_back(v);
        }
      } else if (key == "args") {
        ev.args = std::move(value.args);
      } else {
        return parse_error(line_no, "unknown key \"" + key + "\"");
      }
    }
    if (!p.at_end()) return parse_error(line_no, "trailing characters");

    if (is_meta) {
      parsed.tracks.push_back(std::move(track_info));
    } else {
      if (ev.phase == TracePhase::kSpan && !has_dur) {
        return parse_error(line_no, "span without dur");
      }
      parsed.events.push_back(std::move(ev));
    }
  }
  return parsed;
}

namespace {

common::Status write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return common::Error{common::ErrorCode::kIoError,
                         "cannot open for writing: " + path};
  }
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) {
    return common::Error{common::ErrorCode::kIoError,
                         "short write to: " + path};
  }
  return common::Status::success();
}

}  // namespace

common::Status TraceSink::write_jsonl(const std::string& path) const {
  return write_file(path, to_jsonl());
}

common::Status TraceSink::write_chrome_trace(const std::string& path) const {
  return write_file(path, to_chrome_trace());
}

}  // namespace vdce::obs
