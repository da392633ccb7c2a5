// perfbench_harness: runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload <fullgraph-train|comm-16gpu|serve-open>
//                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Human-readable "# ..." lines come first; the last line of stdout is the
// JSON result. Exits 1 when a correctness check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) {
    return Usage("flags take one value each");
  }
  if (!(args.seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }

  perfbench::Tracer tracer(args.trace);
  perfbench::RunResult result;
  if (args.workload == "fullgraph-train") {
    result = perfbench::RunFullgraphTrain(args, tracer);
  } else if (args.workload == "comm-16gpu") {
    result = perfbench::RunComm16Gpu(args, tracer);
  } else if (args.workload == "serve-open") {
    result = perfbench::RunServeOpen(args, tracer);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  if (args.trace) {
    std::printf("# self times (spans from the benchmark's own calls)\n");
    std::printf("%s", tracer.SelfTimeTable().c_str());
    if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
      result.Check(false, "write trace " + args.trace_out);
    }
  }
  std::printf("%s\n", result.metrics.ResultLine(result.correct, result.attempted, result.failed)
                          .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
