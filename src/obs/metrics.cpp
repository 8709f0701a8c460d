#include "obs/metrics.hpp"

#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace vdce::obs {

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

const common::Stats* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::reset() {
  // Values are reset in place so handles cached by instrumented components
  // remain valid (map nodes are never erased).
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.set(0.0);
  for (auto& [name, h] : histograms_) h = common::Stats{};
  for (auto& [name, g] : wall_gauges_) g.set(0.0);
}

std::string MetricsRegistry::to_jsonl() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += "{\"kind\":\"counter\",\"name\":\"" + json_escape(name) +
           "\",\"value\":" + std::to_string(c.value()) + "}\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += "{\"kind\":\"gauge\",\"name\":\"" + json_escape(name) +
           "\",\"value\":" + json_number(g.value()) + "}\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += "{\"kind\":\"histogram\",\"name\":\"" + json_escape(name) +
           "\",\"count\":" + std::to_string(h.count());
    if (!h.empty()) {
      out += ",\"mean\":" + json_number(h.mean()) +
             ",\"min\":" + json_number(h.min()) +
             ",\"p50\":" + json_number(h.percentile(50)) +
             ",\"p90\":" + json_number(h.percentile(90)) +
             ",\"p99\":" + json_number(h.percentile(99)) +
             ",\"p999\":" + json_number(h.percentile(99.9)) +
             ",\"max\":" + json_number(h.max());
    } else {
      // No samples: quantiles are undefined — export nulls, never the
      // NaN/Inf an unguarded percentile would produce.
      out += ",\"mean\":null,\"min\":null,\"p50\":null,\"p90\":null,"
             "\"p99\":null,\"p999\":null,\"max\":null";
    }
    out += "}\n";
  }
  return out;
}

std::string MetricsRegistry::to_openmetrics() const {
  std::string out;
  auto sanitize = [](const std::string& name) {
    std::string s = name;
    for (char& c : s) {
      if (c == '.' || c == '-') c = '_';
    }
    return s;
  };
  for (const auto& [name, c] : counters_) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " counter\n";
    out += n + "_total " + std::to_string(c.value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + json_number(g.value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " summary\n";
    if (!h.empty()) {
      out += n + "{quantile=\"0.5\"} " + json_number(h.percentile(50)) + "\n";
      out += n + "{quantile=\"0.9\"} " + json_number(h.percentile(90)) + "\n";
      out += n + "{quantile=\"0.99\"} " + json_number(h.percentile(99)) + "\n";
      out +=
          n + "{quantile=\"0.999\"} " + json_number(h.percentile(99.9)) + "\n";
    }
    out += n + "_sum " + json_number(h.sum()) + "\n";
    out += n + "_count " + std::to_string(h.count()) + "\n";
  }
  out += "# EOF\n";
  return out;
}

std::string MetricsRegistry::render() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += "  " + name + " = " + std::to_string(c.value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += "  " + name + " = " + common::format_double(g.value(), 3) + "\n";
  }
  for (const auto& [name, g] : wall_gauges_) {
    out += "  " + name + " = " + common::format_double(g.value(), 3) +
           " (wall clock)\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += "  " + name + ": " + h.summary() + "\n";
  }
  return out;
}

}  // namespace vdce::obs
