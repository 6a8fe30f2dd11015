// Shared pieces of the benchmark harness: command line, metric sink,
// failure tally, statistics and process bookkeeping.  See BENCHMARK.md for
// what the workloads and metrics are and why.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/flow.h"
#include "src/netlist/netlist.h"
#include "src/pnr/design.h"
#include "src/stdcell/library.h"

namespace perfbench {

struct Args {
  /// "" = measure, "setup" = one timed set-up (re-exec'd child),
  /// "worker" = one shard worker (re-exec'd child), "record" = print the
  /// worst-slack golden, "prepare" = characterize the cell library.
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;  ///< tiny designs, for the harness self-test
  std::string lib_path;     ///< benchmark-owned cell library file
  std::string work_root;    ///< run directories, primed cache, traces
  std::string golden;       ///< expected annotated worst slack, "%.9f"

  // Shard worker fields (mode "worker"), filled by the coordinator.
  std::string work_dir;
  std::uint32_t worker_id = 0;
  std::uint32_t workers = 0;
  std::string policy;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint32_t residue = 0;
  bool residue_set = false;
};

Args parse_args(int argc, char** argv);

/// Seed of the flow's ACLV noise stream, the input that moves the golden
/// worst slack.  Goldens are recorded for kGoldenSeeds input seeds; every
/// --seed maps onto one of them, while query mixes and probe samples use
/// the full seed.
inline constexpr std::uint64_t kGoldenSeeds = 64;
inline std::uint64_t input_seed(std::uint64_t seed) { return seed % kGoldenSeeds; }

/// splitmix64: a portable seeded stream for the query mix and samples.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform(double lo, double hi);

 private:
  std::uint64_t s_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Name -> value with unit, printed as the result's "metrics" object.
using Metrics = std::map<std::string, Metric>;

/// Operations attempted and failed, with the first few failure reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void attempt(std::uint64_t n = 1) { attempted += n; }
  void fail(const std::string& why, std::uint64_t n = 1);
};

// --- statistics -----------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p);
double sum(const std::vector<double>& v);

/// Median per-call seconds of fn(): `rounds` timed rounds of `calls` calls.
double seconds_per_call(const std::function<void()>& fn, std::size_t rounds,
                        std::size_t calls = 1);

// --- processes ------------------------------------------------------------

/// Makes this process the reaper of orphaned descendants, so a shard
/// worker's leftover children become visible to leaked_children().
void become_subreaper();
/// Kills and reaps every child still alive; returns how many there were.
std::size_t reap_leaked_children();
/// Resets the kernel's peak-RSS mark of this process (clear_refs).
void reset_peak_rss();
/// This process's peak RSS since the last reset, MiB.
double peak_rss_mb();
/// CPU seconds (user + system) of this process, and of its waited children.
double cpu_seconds_self();
double cpu_seconds_children();

/// Runs argv (argv[0] a path), waits, returns its stdout; throws on a
/// non-zero exit.
std::string run_child(const std::vector<std::string>& argv);

std::string format_ws(double ws);
std::string read_file(const std::string& path);

// --- workload inputs ------------------------------------------------------

bool is_sharded_workload(const std::string& workload);

poc::Netlist workload_netlist(const Args& args);
/// Flow options of the workload; `clock_period` <= 0 keeps the default.
poc::FlowOptions workload_options(const Args& args, double clock_period);

/// Cell library of a workload process: loaded from the benchmark-owned
/// file (characterized into it on first use).
const poc::StdCellLibrary& library(const Args& args);

}  // namespace perfbench
