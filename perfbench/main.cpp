// Benchmark harness for the post-OPC timing flow.  Normally started by
// perfbench/run.py, which builds it, prepares the cell library and passes
// the golden; see perfbench/BENCHMARK.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --lib <cells.lib> --work-root <dir> [--golden <ws>] [--short]
//
// The same binary re-executes itself for the timed set-up samples
// (--mode setup) and as the shard workers of the sharded workloads
// (--mode worker); --mode record prints a workload's golden worst slack and
// --mode prepare characterizes the cell library.
#include <cstdio>
#include <exception>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.mode == "prepare") {
      perfbench::library(args);
      return 0;
    }
    if (args.mode == "setup") return perfbench::setup_child_main(args);
    if (args.mode == "worker") return perfbench::worker_main(args);
    if (args.mode == "record") return perfbench::record_main(args);
    if (!args.mode.empty()) {
      std::fprintf(stderr, "unknown mode: %s\n", args.mode.c_str());
      return 2;
    }
    return perfbench::measure_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
