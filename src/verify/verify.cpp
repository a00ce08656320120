#include "verify/verify.hpp"

#include <ostream>
#include <sstream>

#include "observability/metrics.hpp"
#include "observability/telemetry.hpp"
#include "prefs/io.hpp"
#include "util/timer.hpp"
#include "verify/cert_checker.hpp"
#include "verify/shrinker.hpp"

namespace kstable::verify {
namespace {

/// How many mismatches the summary itself retains (the report stream and the
/// counters see every one).
constexpr std::size_t kSummaryMismatchCap = 32;

std::string repro_path(const VerifyOptions& options, Shape shape,
                       std::uint64_t seed) {
  std::ostringstream os;
  os << options.repro_dir << "/kverify_repro_" << to_string(shape) << '_'
     << seed << ".kp";
  return os.str();
}

}  // namespace

VerifySummary run_verification(const VerifyOptions& options) {
  WallTimer timer;
  VerifySummary summary;

  DiffOptions diff;
  diff.sabotage = options.sabotage;
  diff.churn_steps = options.churn_steps;

  const auto& shapes = options.shapes;
  for (const Shape shape : shapes) {
    GenOptions gen = options.gen;
    gen.shape = shape;
    for (std::int64_t s = 0; s < options.seeds; ++s) {
      const std::uint64_t seed = options.base_seed + static_cast<std::uint64_t>(s);
      const GeneratedInstance drawn = generate(gen, seed);
      const BatteryResult battery = run_battery(drawn, diff);

      ++summary.seeds_run;
      summary.checks += battery.checks;
      KSTABLE_COUNTER_ADD("verify.seeds", 1);
      if (battery.clean()) continue;

      summary.mismatch_count +=
          static_cast<std::int64_t>(battery.mismatches.size());
      KSTABLE_COUNTER_ADD(
          "verify.mismatches",
          static_cast<std::int64_t>(battery.mismatches.size()));
      for (const Mismatch& m : battery.mismatches) {
        if (options.report != nullptr) {
          *options.report << m.to_json() << '\n';
        }
        if (summary.mismatches.size() < kSummaryMismatchCap) {
          summary.mismatches.push_back(m);
        }
      }

      if (static_cast<std::int64_t>(summary.repro_paths.size()) <
          options.max_repros) {
        // Delta-debug this seed down to a minimal instance that still
        // diverges, and persist it in the ordinary loadable format.
        const auto minimal = shrink(
            drawn.instance, [&](const KPartiteInstance& candidate) {
              return !run_battery(candidate, shape, diff, drawn.dist, seed)
                          .clean();
            });
        const std::string path = repro_path(options, shape, seed);
        io::save_file(minimal.instance, path);
        KSTABLE_COUNTER_ADD("verify.repros", 1);
        summary.repro_paths.push_back(path);
        if (options.report != nullptr) {
          *options.report << "{\"repro\":\"" << path << "\",\"seed\":" << seed
                          << ",\"shape\":\"" << to_string(shape)
                          << "\",\"k\":" << minimal.instance.genders()
                          << ",\"n\":" << minimal.instance.per_gender()
                          << ",\"reductions\":" << minimal.reductions << "}\n";
        }
      }
    }
  }

  summary.wall_ms = timer.millis();

  obs::SolveTelemetry& telemetry = summary.telemetry;
  telemetry.engine = "verify";
  telemetry.genders = 0;
  telemetry.size = static_cast<std::int32_t>(summary.seeds_run);
  telemetry.wall_ms = summary.wall_ms;
  telemetry.attempts = summary.checks;
  if (!summary.clean()) {
    // A failed sweep is data, not an abort: report it through the outcome
    // channel the exporters already understand (anything but "ok").
    telemetry.status.outcome = resilience::SolveOutcome::no_stable;
    std::ostringstream os;
    os << summary.mismatch_count << " differential mismatches";
    telemetry.status.detail = os.str();
  }
  obs::record(telemetry);
  return summary;
}

}  // namespace kstable::verify
