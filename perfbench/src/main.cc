// The benchmark program: runs one named workload and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs (--trace 1) the per-layer
// ones; the line before it is a report with the machine fingerprint,
// sample counts and check results. Exits non-zero when a check fails.
//
//   perfbench --workload uniform-offline|churn-net
//             --seed N --seconds S --trace 0|1 [--trace-dir DIR]

#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.trace_dir = ".bench_build/traces";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-dir") {
        config.trace_dir = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (config.workload.empty() || !have_trace || !(config.seconds > 0.0)) {
    return Usage("--workload, --seconds > 0 and --trace are required");
  }

  Outcome out;
  try {
    if (config.workload == "uniform-offline") {
      out = RunUniformOffline(config);
    } else if (config.workload == "churn-net") {
      out = RunChurnNet(config);
    } else {
      return Usage(("unknown workload " + config.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  if (out.tally.attempted == 0) out.Fail("no query attempted");
  Json checks;
  checks.Bool("correct", out.correct);
  for (std::size_t i = 0; i < out.check_failures.size(); ++i) {
    checks.Str("failure_" + std::to_string(i), out.check_failures[i]);
  }
  Json report;
  report.Str("workload", config.workload)
      .Bool("trace", config.trace)
      .Obj("fingerprint", Fingerprint(config))
      .Num("failed_share", out.tally.attempted == 0
                               ? 1.0
                               : out.tally.FailedShare())
      .Obj("checks", checks)
      .Obj("details", out.report);
  Json metrics;
  for (const Metric& m : out.metrics) {
    Json value;
    value.Num("value", m.value).Str("unit", m.unit);
    metrics.Obj(m.name, value);
  }
  Json result;
  result.Bool("correct", out.correct)
      .Int("attempted", out.tally.attempted)
      .Int("failed", out.tally.failed())
      .Obj("metrics", metrics);
  std::cout << Json().Obj("report", report).Dump() << "\n"
            << result.Dump() << std::endl;
  for (const std::string& why : out.check_failures) {
    std::cerr << "perfbench: check failed: " << why << "\n";
  }
  return out.correct ? 0 : 1;
}
