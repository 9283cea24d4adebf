// dsigbench_driver: runs one benchmark workload and prints its metrics.
//
//   dsigbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    [--scale=full|tiny] [--work-dir=DIR] [--falsify]
//
// Normally started through run.py, which builds it first. Output: the run
// environment ("DSIGBENCH_ENV {...}"), then the result line
//   {"correct": ..., "attempted": N, "failed": N,
//    "metrics": {name: {"value": v, "samples": n, "note": "..."}, ...}}
// with every metric the run measured; run.py keeps the mode's set and adds
// units from BENCHMARK.json. --trace 1 also runs the traced window and the
// layer timings and writes the recorded spans to
// <work-dir>/spans-<workload>-<seed>.jsonl.
// Exit status 1 on any oracle or durability mismatch.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "driver/common.h"
#include "driver/workloads.h"
#include "util/simd/simd.h"

namespace dsigbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "dsigbench_driver: %s\nusage: dsigbench_driver --workload NAME "
               "--seed N --seconds S --trace 0|1 [--scale full|tiny] "
               "[--work-dir DIR] [--falsify]\n",
               why);
  std::exit(2);
}

// Accepts "--flag value" and "--flag=value".
Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    auto next = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--falsify") {
      args.falsify = true;
    } else if (flag == "--workload") {
      args.workload = next();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(next().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = next() == "1";
    } else if (flag == "--scale") {
      const std::string scale = next();
      if (scale != "full" && scale != "tiny") Usage("bad --scale");
      args.tiny = scale == "tiny";
    } else if (flag == "--work-dir") {
      args.work_dir = next();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) Usage("--seed is required");
  if (!(args.seconds > 0 && args.seconds <= 120)) Usage("bad --seconds");
  if (args.workload != "paged_cold" && args.workload != "hot_labels" &&
      args.workload != "serve_mixed") {
    Usage("unknown --workload");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  RunOutcome out;
  SpanRecorder::Get().Enable(args.trace);

  if (args.workload == "serve_mixed") {
    RunServe(args, &out);
  } else {
    RunInproc(args, &out);
  }

  out.env["workload"] = args.workload;
  out.env["seed"] = std::to_string(args.seed);
  out.env["seconds"] = JsonNumber(args.seconds);
  out.env["scale"] = args.tiny ? "tiny" : "full";
  out.env["trace"] = args.trace ? "1" : "0";
  out.env["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out.env["cpu_features"] = dsig::simd::CpuFeatureString();
  out.env["simd_level"] =
      dsig::simd::SimdLevelName(dsig::simd::ActiveLevel());
  out.env["build_type"] = DSIGBENCH_BUILD_TYPE;
  out.env["oracle_checked"] = std::to_string(out.oracle_checked);
  out.env["oracle_mismatches"] = std::to_string(out.oracle_mismatches);
  std::string env = "{";
  for (const auto& [key, value] : out.env) {
    env += (env.size() > 1 ? ", " : "") + JsonString(key) + ": " +
           JsonString(value);
  }
  std::printf("DSIGBENCH_ENV %s}\n", env.c_str());

  if (args.trace) {
    const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    const size_t spans = SpanRecorder::Get().WriteJsonl(path);
    SpanRecorder::Get().PrintSummary(stderr);
    std::fprintf(stderr, "dsigbench: %zu spans written to %s\n", spans,
                 path.c_str());
  }

  const bool correct = out.oracle_mismatches == 0 && out.durability_ok;
  std::printf("%s\n",
              out.report.ResultJson(correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dsigbench

int main(int argc, char** argv) { return dsigbench::Main(argc, argv); }
