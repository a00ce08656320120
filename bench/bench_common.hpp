// Shared harness glue for the experiment benchmarks.
//
// Every bench binary first prints its paper-shaped report (the rows a figure
// or theorem in the paper corresponds to), then runs its google-benchmark
// microbenchmarks. EXPERIMENTS.md records the printed reports against the
// paper's claims. The report goes to stdout, or to stderr when
// --benchmark_format asks for JSON or CSV on stdout, so that stdout parses.
//
// Each binary also attaches the process-wide kstable metrics registry
// (proposals, cache hits, ladder rungs, ... — docs/OBSERVABILITY.md) to the
// google-benchmark context, so a `--benchmark_out=BENCH_X.json` run carries
// the library's own counters alongside the timing rows. The snapshot is taken
// after the report phase, i.e. it covers the report's solves; benchmark
// iterations run afterwards and can be diffed against it with a second
// export.
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "core/kstable.hpp"

namespace kstable::benchsupport {

/// CMAKE_BUILD_TYPE the binary was compiled under (stamped by
/// bench/CMakeLists.txt), or "unknown" for out-of-tree builds.
inline const char* build_type() {
#if defined(KSTABLE_BUILD_TYPE)
  return KSTABLE_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// True when the command line asks for a machine-readable result file.
inline bool wants_benchmark_out(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      return true;
    }
  }
  return false;
}

/// True when the last --benchmark_format flag names a machine-readable
/// format (json, csv) rather than the default console table.
inline bool wants_machine_stdout(int argc, char** argv) {
  constexpr std::string_view flag = "--benchmark_format=";
  bool machine = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind(flag, 0) == 0) machine = arg.substr(flag.size()) != "console";
  }
  return machine;
}

/// Runs the report with std::cout redirected to stderr when stdout carries
/// google-benchmark's machine-readable output.
template <typename Report>
void print_report(Report&& report, int argc, char** argv) {
  std::streambuf* const stdout_buf = std::cout.rdbuf();
  if (wants_machine_stdout(argc, argv)) std::cout.rdbuf(std::cerr.rdbuf());
  report();
  std::cout.rdbuf(stdout_buf);
}

/// BENCH_*.json files feed EXPERIMENTS.md and cross-run comparisons, so a
/// file produced by an unoptimized build is actively misleading. Refuse to
/// emit one unless the binary was compiled as Release.
inline bool refuse_non_release_export(int argc, char** argv) {
  if (!wants_benchmark_out(argc, argv)) return false;
  if (std::string_view(build_type()) == "Release") return false;
  std::cerr << "refusing --benchmark_out: this binary was built as '"
            << build_type()
            << "', not Release — its timings are not comparable.\n"
               "Reconfigure with -DCMAKE_BUILD_TYPE=Release (what "
               "scripts/reproduce.sh does) or drop --benchmark_out.\n";
  return true;
}

/// Which preference backend the binary's benchmarks exercise, stamped into
/// the JSON context as "kstable.pref_backend". Defaults to "explicit";
/// benchmarks over generator-backed instances (bench_e21_implicit) call
/// set_pref_backend() before KSTABLE_BENCH_MAIN's context attach runs.
/// scripts/compare_bench.py refuses to compare two files whose backends
/// differ — an explicit-tables baseline says nothing about implicit solves.
inline const char*& pref_backend_label() {
  static const char* label = "explicit";
  return label;
}

inline void set_pref_backend(const char* label) {
  pref_backend_label() = label;
}

/// The CPU model string from /proc/cpuinfo ("unknown" elsewhere), stamped
/// into the JSON context so a committed baseline names the machine its
/// timings came from.
inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// Adds every registered instrument as a "kstable.<name>" context entry
/// (counters/gauges as the value, histograms as "sum/count"), plus the
/// build type, CPU model and count, and preference backend any timing
/// comparison needs for context.
inline void attach_metrics_context() {
  benchmark::AddCustomContext("kstable.build_type", build_type());
  benchmark::AddCustomContext("kstable.pref_backend", pref_backend_label());
  benchmark::AddCustomContext(
      "kstable.cpu_count", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("kstable.cpu_model", cpu_model());
  for (const auto& s : kstable::obs::MetricsRegistry::global().snapshot()) {
    std::ostringstream value;
    if (s.kind == kstable::obs::MetricsRegistry::Sample::Kind::histogram) {
      value << s.value << '/' << s.count;
    } else {
      value << s.value;
    }
    benchmark::AddCustomContext("kstable." + s.name, value.str());
  }
}

}  // namespace kstable::benchsupport

/// Defines main(): print the report, then run registered benchmarks with the
/// metrics registry snapshot attached to the benchmark context/JSON output.
#define KSTABLE_BENCH_MAIN(report_fn)                                   \
  int main(int argc, char** argv) {                                     \
    if (::kstable::benchsupport::refuse_non_release_export(argc, argv)) \
      return 2;                                                         \
    ::kstable::benchsupport::print_report(report_fn, argc, argv);       \
    benchmark::Initialize(&argc, argv);                                 \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::kstable::benchsupport::attach_metrics_context();                  \
    benchmark::RunSpecifiedBenchmarks();                                \
    benchmark::Shutdown();                                              \
    return 0;                                                           \
  }
