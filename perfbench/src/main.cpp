// perfbench: one run of one workload.
//
//   perfbench --workload <serve_rt|solve_mem|churn_rematch> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--sabotage 1]
//
// Prints the run context as one "# context {...}" line, then the result
// object as the last line of stdout. Exit status: 0 when every output check
// passed, 1 when one failed (the result still prints), 2 for a usage error
// or a build that is not Release.
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <serve_rt|solve_mem|"
               "churn_rematch> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--sabotage 1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to run a '" << PERFBENCH_BUILD_TYPE
              << "' build; its timings are not comparable. Configure with "
                 "-DCMAKE_BUILD_TYPE=Release.\n";
    return 2;
  }
  perfbench::Config config;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
      const std::string value = argv[++i];
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--trace-out") {
        config.trace_out = value;
      } else if (flag == "--sabotage") {
        config.sabotage = value == "1";
      } else {
        return usage("unknown flag " + std::string(flag));
      }
    }
  } catch (const std::exception&) {
    return usage("bad flag value");
  }
  if (!have_workload) return usage("--workload is required");
  if (config.seconds <= 0.0) return usage("--seconds must be positive");

  try {
    const perfbench::RunResult result = perfbench::run_workload(config);
    std::cout << "# context " << perfbench::context_json(result) << "\n"
              << perfbench::result_json(result) << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    return 1;
  }
}
