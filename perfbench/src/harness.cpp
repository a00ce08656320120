#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of nothing");
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

LatencySummary summarize(const std::vector<double>& latency_ms,
                         std::size_t parts) {
  LatencySummary s;
  s.samples = latency_ms.size();
  if (latency_ms.empty()) return s;
  s.p50_ms = percentile(latency_ms, 50.0);
  if (parts > 1 && latency_ms.size() / parts >= 100) {
    std::vector<double> part_p99;
    for (std::size_t p = 0; p < parts; ++p) {
      const auto begin = latency_ms.begin() + static_cast<std::ptrdiff_t>(
                                                  p * latency_ms.size() / parts);
      const auto end = latency_ms.begin() +
                       static_cast<std::ptrdiff_t>((p + 1) * latency_ms.size() /
                                                   parts);
      part_p99.push_back(percentile(std::vector<double>(begin, end), 99.0));
    }
    s.p99_ms = median(part_p99);
  } else {
    s.p99_ms = percentile(latency_ms, 99.0);
  }
  for (const double v : latency_ms) {
    if (v > s.p99_ms) ++s.beyond_p99;
  }
  return s;
}

// ---------------------------------------------------------------------------

Tracer::Tracer(bool recording)
    : recording_(recording), origin_(Clock::now()) {
  if (recording_) spans_.reserve(1 << 16);
}

std::int32_t Tracer::begin(const char* name, std::int64_t op,
                           std::int32_t parent) {
  if (!recording_) return -1;
  Span span;
  span.name = name;
  span.phase = phase_;
  span.parent = parent;
  span.op = op;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
}

namespace {

double duration_ms(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

}  // namespace

std::vector<double> Tracer::child_ms() const {
  std::vector<double> out(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.end_ns < 0 || s.parent < 0) continue;
    out[static_cast<std::size_t>(s.parent)] += duration_ms(s);
  }
  return out;
}

std::vector<double> Tracer::durations_ms(const std::string& phase,
                                         const std::string& name,
                                         bool self) const {
  const std::vector<double> children =
      self ? child_ms() : std::vector<double>(spans_.size(), 0.0);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0 || phase != s.phase || name != s.name) continue;
    out.push_back(duration_ms(s) - children[i]);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"phase\":\"" << s.phase
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(os.flush());
}

// ---------------------------------------------------------------------------

void Fingerprint::add(std::span<const std::int32_t> values) noexcept {
  add(static_cast<std::int64_t>(values.size()));
  for (const std::int32_t v : values) add(static_cast<std::int64_t>(v));
}

void Fingerprint::add(std::int64_t value) noexcept {
  auto u = static_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (u >> (8 * byte)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
}

// ---------------------------------------------------------------------------

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(' '));
        return value;
      }
    }
  }
  return "unknown";
}

long online_cpus() { return sysconf(_SC_NPROCESSORS_ONLN); }

const Metric* RunResult::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

std::string result_json(const RunResult& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) os << ", ";
    os << "\"" << json_escape(m.name) << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << json_escape(m.unit)
       << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string context_json(const RunResult& result) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < result.context.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << json_escape(result.context[i].first) << "\": \""
       << json_escape(result.context[i].second) << "\"";
  }
  os << "}";
  return os.str();
}

}  // namespace perfbench
