// Repository benchmark driver. Usage:
//   pacds_perfbench --workload <paper_sweep|city_churn|city_calm|serve_mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--tiny] [--corrupt-expected] [--out-dir <dir>]
//                   [--rev <revision>]
// Prints a human-readable report and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when
// every output check passed. perfbench/run.py builds and invokes it.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "pacds_perfbench: " << problem
            << "\nusage: pacds_perfbench --workload "
               "<paper_sweep|city_churn|city_calm|serve_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--corrupt-expected] "
               "[--out-dir <dir>] [--rev <revision>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = next();
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
        options.trace = v == "1";
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--corrupt-expected") {
        options.corrupt_expected = true;
      } else if (arg == "--out-dir") {
        options.out_dir = next();
      } else if (arg == "--rev") {
        options.rev = next();
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    std::filesystem::create_directories(options.out_dir);
    perfbench::Report report;
    if (options.workload == "paper_sweep") {
      report = perfbench::run_paper_sweep(options);
    } else if (options.workload == "city_churn") {
      report = perfbench::run_city(options, "city_churn", 0.95);
    } else if (options.workload == "city_calm") {
      report = perfbench::run_city(options, "city_calm", 0.999);
    } else if (options.workload == "serve_mix") {
      report = perfbench::run_serve_mix(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
    return perfbench::emit(report, options);
  } catch (const std::exception& e) {
    std::cerr << "pacds_perfbench: " << options.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }
}
