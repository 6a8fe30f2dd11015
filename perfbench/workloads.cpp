#include "perfbench/workloads.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "perfbench/probes.h"
#include "perfbench/report.h"
#include "perfbench/trace.h"
#include "src/core/flow_shard.h"
#include "src/geom/polygon_ops.h"
#include "src/sta/paths.h"
#include "src/var/variation.h"

namespace fs = std::filesystem;

namespace perfbench {

const char* const kQueryNames[4] = {"retime", "whatif", "slack", "paths"};

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups per run (the parent's own plus fresh child processes): the
/// imaging memo is process-wide, so only a fresh process pays it again.
/// Cheap set-ups take more samples, up to a second of sampling.
constexpr std::size_t kSetupSamples = 9;
constexpr std::size_t kMaxSetupSamples = 49;
constexpr double kSetupSamplingS = 1.0;
constexpr std::uint32_t kShardWorkers = 2;
/// Clock of the tiled designs (the shard_worker example's) and the margin
/// the random-logic clock gets over its drawn-CD critical path.
constexpr double kTiledClockPs = 2200.0;
constexpr double kClockMargin = 1.12;
constexpr double kTagWindowFraction = 0.05;
/// Queries per sta_queries pass; each pass ends at a full-STA checkpoint.
constexpr std::size_t kQueriesPerPass = 200;
constexpr std::size_t kShortQueriesPerPass = 40;

poc::Rect instance_window(const poc::PlacedDesign& d, std::size_t i,
                          const poc::FlowOptions& o) {
  const poc::Instance& inst = d.layout.instance(i);
  return inst.transform.apply(d.layout.cell(inst.cell).boundary)
      .inflated(o.ambit_nm);
}

/// Builds the process-wide imaging memos (SOCS kernels, pupil tables) the
/// passes will use: one drawn-mask image per distinct window shape, through
/// the OPC model at both OPC qualities and through the silicon simulator.
double warm_imaging(const poc::PlacedDesign& d, const poc::StdCellLibrary& lib,
                    const poc::FlowOptions& o) {
  Span span("litho.kernel_build");
  const auto t0 = Clock::now();
  const poc::PostOpcFlow flow(d, lib, poc::LithoSimulator{}, o);
  poc::LithoSimulator model;
  model.set_imaging(o.imaging);
  std::set<std::pair<poc::DbUnit, poc::DbUnit>> shapes;
  for (std::size_t i = 0; i < d.layout.num_instances(); ++i) {
    const poc::Rect window = instance_window(d, i, o);
    if (!shapes.insert({window.width(), window.height()}).second) continue;
    std::vector<poc::Rect> rects;
    for (const poc::Polygon& p :
         d.layout.flatten_layer_polys(window, poc::Layer::kPoly)) {
      for (const poc::Rect& r : poc::decompose(p)) rects.push_back(r);
    }
    const std::vector<poc::Rect> mask = poc::disjoint_union(rects);
    model.latent(mask, window, poc::Exposure{}, o.opc.sim_quality);
    model.latent(mask, window, poc::Exposure{}, o.opc.final_quality);
    flow.silicon_sim().latent(mask, window,
                              flow.silicon_exposure(poc::Exposure{}),
                              o.extract_quality);
  }
  return since(t0);
}

std::string self_exe() {
  return fs::read_symlink("/proc/self/exe").string();
}

/// Identity of this binary, so a primed cache from another build is redone.
std::string binary_stamp() {
  struct stat st {};
  ::stat("/proc/self/exe", &st);
  return std::to_string(st.st_size) + ":" + std::to_string(st.st_mtime);
}

poc::ShardPolicy parse_policy(const std::string& name) {
  return name == "interleaved" ? poc::ShardPolicy::kInterleaved
                               : poc::ShardPolicy::kContiguous;
}

/// What one timed pass left behind for the metrics and the checks.
struct PassResult {
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  double cpu_util = 0.0;     ///< CPU s / (wall x threads) over the parallel part
  double coord_s = 0.0;      ///< pass time outside the workers / layer calls
  double worker_max_s = 0.0;
  double worker_min_s = 0.0;
  std::uint64_t records_appended = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t residual_windows = 0;
  poc::PostOpcFlow::FlowCacheCounters cache;
  std::uint64_t worker_mem_hits = 0;
  std::uint64_t worker_disk_hits = 0;
  std::uint64_t worker_misses = 0;
};

class Runner {
 public:
  Runner(const Args& args, Setup& setup, Tally& tally)
      : args_(args), setup_(setup), tally_(tally), lib_(library(args)),
        query_rng_(args.seed) {}

  /// One pass of the workload; `run` is the pass index (trace run id).
  PassResult pass(std::int64_t run) {
    if (args_.workload == "unique_socs") return pass_unique(run);
    if (args_.workload == "sta_queries") return pass_queries(run);
    return pass_sharded(run);
  }

  /// Windows of one pass (0 for the timing service, whose queries count
  /// themselves).
  std::uint64_t windows_per_pass() const {
    if (args_.workload == "sta_queries") return 0;
    return setup_.design->layout.num_instances();
  }

  std::size_t queries_per_pass() const {
    return args_.short_mode ? kShortQueriesPerPass : kQueriesPerPass;
  }

  /// tiled_warm: publishes the primed cache every pass starts from.
  void prime_cache_if_needed();

  const poc::PostOpcFlow* last_flow() const { return last_flow_.get(); }
  const std::vector<double>& query_latencies() const { return query_s_; }
  const std::vector<double>& query_kind_latencies(int kind) const {
    return kind_s_[kind];
  }
  const std::vector<double>& arrival_evals() const { return evals_; }
  const std::vector<double>& checkpoint_sta_s() const { return checkpoint_s_; }

 private:
  void check_ws(double ws, const char* what) {
    if (!args_.golden.empty() && format_ws(ws) != args_.golden) {
      tally_.fail(std::string(what) + " worst slack " + format_ws(ws) +
                  " != golden " + args_.golden);
    }
  }

  void check_leaks() {
    if (const std::size_t leaked = reap_leaked_children()) {
      tally_.fail(std::to_string(leaked) + " process(es) outlived the pass",
                  leaked);
    }
  }

  PassResult pass_unique(std::int64_t run);
  PassResult pass_queries(std::int64_t run);
  PassResult pass_sharded(std::int64_t run);
  poc::ShardFlowResult sharded_flow(const std::string& run_dir);

  std::string primed_dir() const {
    return args_.work_root + "/primed-" + args_.workload.substr(0, 5) +
           (args_.short_mode ? "-short" : "");
  }

  const Args& args_;
  Setup& setup_;
  Tally& tally_;
  const poc::StdCellLibrary& lib_;
  std::unique_ptr<poc::PostOpcFlow> last_flow_;
  std::vector<double> query_s_;
  std::vector<double> kind_s_[4];
  std::vector<double> evals_;
  std::vector<double> checkpoint_s_;
  Stream query_rng_;
};

PassResult Runner::pass_unique(std::int64_t run) {
  const poc::FlowOptions& o = setup_.options;
  PassResult r;
  last_flow_.reset();
  reset_peak_rss();
  const auto t0 = Clock::now();
  double layer_s = 0.0;
  {
    Span pass("pass");
    std::unique_ptr<poc::PostOpcFlow> flow;
    {
      Span s("core.construct");
      flow = std::make_unique<poc::PostOpcFlow>(*setup_.design, lib_,
                                                poc::LithoSimulator{}, o);
    }
    {
      Span s("core.tag");
      flow->tag_critical_gates(o.sta.clock_period * kTagWindowFraction);
    }
    {
      Span s("core.opc");
      const double cpu0 = cpu_seconds_self();
      const auto w0 = Clock::now();
      flow->run_opc(poc::OpcMode::kModelBased);
      const double wall = since(w0);
      r.cpu_util = (cpu_seconds_self() - cpu0) /
                   (wall * static_cast<double>(flow->threads()));
    }
    double ws = 0.0;
    if (!tracer().enabled()) {
      Span s("core.compare");
      ws = flow->compare_timing().annotated.worst_slack;
    } else {
      // compare_timing's steps as separate public calls, so the trace can
      // split extraction, back-annotation and STA.
      poc::StaReport drawn;
      {
        Span s("core.sta");
        drawn = flow->run_sta_incremental(nullptr);
      }
      std::vector<poc::GateExtraction> ext;
      {
        Span s("core.extract");
        ext = flow->extract(poc::Exposure{});
      }
      std::vector<poc::DelayAnnotation> ann;
      {
        Span s("core.annotate");
        poc::Rng rng(o.seed);
        ann = flow->annotate_with_aclv(
            ext, o.silicon.enabled ? o.silicon.aclv_sigma_nm : 0.0, rng);
      }
      Span s("core.sta");
      const poc::StaReport annotated = flow->run_sta_incremental(&ann);
      poc::compare_path_ranks(setup_.design->netlist, drawn.paths,
                              annotated.paths);
      ws = annotated.worst_slack;
    }
    check_ws(ws, "annotated");
    {
      Span s("core.scan");
      flow->scan_hotspots({poc::standard_corners().front()});
    }
    const poc::FlowHealth health = flow->health();
    if (health.degraded_windows > 0) {
      tally_.fail(std::to_string(health.degraded_windows) + " degraded windows",
                  health.degraded_windows);
    }
    r.cache = flow->cache_counters();
    last_flow_ = std::move(flow);
    for (const char* name : {"core.construct", "core.tag", "core.opc",
                             "core.compare", "core.sta", "core.extract",
                             "core.annotate", "core.scan"}) {
      layer_s += tracer().run_total(name, run);
    }
  }
  r.wall_s = since(t0);
  r.peak_rss_mb = peak_rss_mb();
  r.worker_max_s = r.worker_min_s = r.wall_s;
  r.coord_s = r.wall_s - layer_s;
  check_leaks();
  return r;
}

int timing_query_kind(Stream& rng) {
  const std::uint64_t u = rng.below(10);
  return u < 3 ? 0 : u < 6 ? 1 : u < 9 ? 2 : 3;
}

std::vector<poc::GateRetime> random_retime(const poc::Netlist& nl,
                                           Stream& rng) {
  std::vector<poc::GateRetime> out(1 + rng.below(8));
  for (poc::GateRetime& g : out) {
    g.gate = static_cast<poc::GateIdx>(rng.below(nl.num_gates()));
    g.annotation.rise_scale = rng.uniform(0.9, 1.1);
    g.annotation.fall_scale = rng.uniform(0.9, 1.1);
  }
  return out;
}

PassResult Runner::pass_queries(std::int64_t run) {
  poc::TimingService& service = *setup_.service;
  const poc::Netlist& nl = setup_.design->netlist;
  PassResult r;
  reset_peak_rss();
  double query_total = 0.0;
  const double cpu0 = cpu_seconds_self();
  const auto t0 = Clock::now();
  {
    Span pass("pass");
    for (std::size_t q = 0; q < queries_per_pass(); ++q) {
      double latency = 0.0;
      std::size_t evals = 0;
      const int kind =
          timing_query(service, nl, query_rng_, latency, evals, tally_);
      query_s_.push_back(latency);
      kind_s_[kind].push_back(latency);
      if (kind == 0) evals_.push_back(static_cast<double>(evals));
      query_total += latency;
    }
  }
  r.wall_s = since(t0);
  r.cpu_util = (cpu_seconds_self() - cpu0) / r.wall_s;
  r.peak_rss_mb = peak_rss_mb();
  r.worker_max_s = r.worker_min_s = r.wall_s;
  r.coord_s = r.wall_s - query_total;
  (void)run;

  // Checkpoint: the warm service agrees with a from-scratch STA over the
  // same full annotation set.
  const auto c0 = Clock::now();
  const double full =
      setup_.flow->run_sta(&service.graph().annotations()).worst_slack;
  checkpoint_s_.push_back(since(c0));
  tally_.attempt();
  if (format_ws(full) != format_ws(service.worst_slack())) {
    tally_.fail("service worst slack " + format_ws(service.worst_slack()) +
                " != full STA " + format_ws(full));
  }
  check_leaks();
  return r;
}

poc::ShardFlowResult Runner::sharded_flow(const std::string& run_dir) {
  poc::ShardFlowOptions so;
  so.workers = args_.short_mode ? 2 : kShardWorkers;
  so.work_dir = run_dir;
  so.opc_mode = poc::OpcMode::kModelBased;
  so.share_disk_cache = true;
  const std::string exe = self_exe();
  const Args& a = args_;
  const bool trace = tracer().enabled();
  so.worker_command = [exe, &a, run_dir, trace](const poc::ShardSpec& spec) {
    std::vector<std::string> argv = {
        exe, "--mode", "worker", "--workload", a.workload,
        "--seed", std::to_string(a.seed), "--lib", a.lib_path,
        "--work-dir", run_dir,
        "--worker-id", std::to_string(spec.worker),
        "--workers", std::to_string(spec.workers),
        "--policy", poc::shard_policy_name(spec.policy),
        "--lo", std::to_string(spec.lo), "--hi", std::to_string(spec.hi),
        "--trace", trace ? "1" : "0"};
    if (spec.residue != poc::kShardResidueSelf) {
      argv.push_back("--residue");
      argv.push_back(std::to_string(spec.residue));
    }
    if (a.short_mode) argv.push_back("--short");
    return argv;
  };
  return poc::run_sharded_flow(*setup_.design, lib_, poc::LithoSimulator{},
                               setup_.options, so);
}

void Runner::prime_cache_if_needed() {
  if (args_.workload != "tiled_warm") return;
  const std::string dir = primed_dir();
  const std::string stamp = binary_stamp() + " seed-independent";
  if (fs::exists(dir + "/cache") && read_file(dir + "/stamp") == stamp) return;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const poc::ShardFlowResult res = sharded_flow(dir + "/run");
  check_ws(res.comparison.annotated.worst_slack, "priming run");
  fs::rename(dir + "/run/cache", dir + "/cache");
  fs::remove_all(dir + "/run");
  std::ofstream(dir + "/stamp") << stamp;
  check_leaks();
}

PassResult Runner::pass_sharded(std::int64_t run) {
  const std::string run_dir = args_.work_root + "/runs/pass-" +
                              std::to_string(::getpid()) + "-" +
                              std::to_string(run);
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  if (args_.workload == "tiled_warm") {
    fs::copy(primed_dir() + "/cache", run_dir + "/cache",
             fs::copy_options::recursive);
  }
  PassResult r;
  reset_peak_rss();
  const double cpu0 = cpu_seconds_self() + cpu_seconds_children();
  const auto t0 = Clock::now();
  poc::ShardFlowResult res;
  {
    Span pass("pass");
    Span flow("run.sharded_flow");
    res = sharded_flow(run_dir);
    flow.close();
    // Worker processes hand their spans back through the run directory.
    if (tracer().enabled()) {
      for (const auto& e : fs::directory_iterator(run_dir)) {
        if (e.path().extension() == ".spans") {
          tracer().adopt(Tracer::parse_lines(read_file(e.path().string())),
                         flow.index());
        }
      }
    }
  }
  r.wall_s = since(t0);
  const double threads =
      static_cast<double>(res.exits.size()) *
      static_cast<double>(setup_.options.threads);
  r.cpu_util = (cpu_seconds_self() + cpu_seconds_children() - cpu0) /
               (r.wall_s * std::max(threads, 1.0));
  r.peak_rss_mb = peak_rss_mb();
  r.worker_min_s = 1e300;
  for (const poc::ShardWorkerStats& w : res.worker_stats) {
    const double s = w.wall_ms * 1e-3;
    r.worker_max_s = std::max(r.worker_max_s, s);
    r.worker_min_s = std::min(r.worker_min_s, s);
    r.peak_rss_mb = std::max(r.peak_rss_mb,
                             static_cast<double>(w.maxrss_kb) / 1024.0);
    r.records_appended += w.records;
    r.worker_mem_hits += w.mem_hits;
    r.worker_disk_hits += w.disk_hits;
    r.worker_misses += w.misses;
    if (!w.complete) tally_.fail("worker stats incomplete");
  }
  if (res.worker_stats.empty()) r.worker_min_s = 0.0;
  r.coord_s = r.wall_s - r.worker_max_s;
  r.records_appended += res.merged_stats.appended_records;
  r.records_replayed = res.merged_stats.replayed_hits;
  r.residual_windows = res.residual_windows;
  r.cache = res.cache;

  check_ws(res.comparison.annotated.worst_slack, "annotated");
  for (const poc::WorkerExit& e : res.exits) {
    if (!e.ok()) {
      tally_.fail("worker " + std::to_string(e.worker) + " exit " +
                  std::to_string(e.exit_code) + " signal " +
                  std::to_string(e.signal));
    }
  }
  if (!res.interventions.empty()) {
    tally_.fail(std::to_string(res.interventions.size()) + " interventions");
  }
  if (res.residual_windows > 0) {
    tally_.fail(std::to_string(res.residual_windows) + " residual windows",
                res.residual_windows);
  }
  if (!res.shard_health.clean()) {
    tally_.fail(std::to_string(res.shard_health.faults.size()) +
                " shard health faults");
  }
  if (res.comparison.health.degraded_windows > 0) {
    tally_.fail("degraded windows", res.comparison.health.degraded_windows);
  }
  check_leaks();
  fs::remove_all(run_dir);
  return r;
}

}  // namespace

int timing_query(poc::TimingService& service, const poc::Netlist& nl,
                 Stream& rng, double& latency_s, std::size_t& arrival_evals,
                 Tally& tally) {
  const int kind = timing_query_kind(rng);
  tally.attempt();
  switch (kind) {
    case 0: {
      const std::vector<poc::GateRetime> changes = random_retime(nl, rng);
      Span s("sta.retime");
      const auto t0 = Clock::now();
      arrival_evals = service.retime(changes).arrival_evals;
      latency_s = since(t0);
      break;
    }
    case 1: {
      const std::vector<poc::GateRetime> candidate = random_retime(nl, rng);
      poc::WhatIfReport rep;
      {
        Span s("sta.whatif");
        const auto t0 = Clock::now();
        rep = service.whatif(candidate);
        latency_s = since(t0);
      }
      if (format_ws(service.worst_slack()) !=
          format_ws(rep.worst_slack_before)) {
        tally.fail("whatif moved the worst slack");
      }
      break;
    }
    case 2: {
      const auto net = static_cast<poc::NetIdx>(rng.below(nl.num_nets()));
      Span s("sta.slack");
      const auto t0 = Clock::now();
      service.slack(net);
      latency_s = since(t0);
      break;
    }
    default: {
      Span s("sta.paths");
      const auto t0 = Clock::now();
      service.paths(16);
      latency_s = since(t0);
      break;
    }
  }
  return kind;
}

Setup make_setup(const Args& args) {
  const poc::StdCellLibrary& lib = library(args);
  Setup s;
  const auto t0 = Clock::now();
  poc::Netlist nl = workload_netlist(args);
  {
    Span sp("pnr.place_and_route");
    const auto tp = Clock::now();
    s.design = std::make_unique<poc::PlacedDesign>(poc::place_and_route(nl, lib));
    s.pnr_s = since(tp);
  }
  if (args.workload == "unique_socs") {
    double clock = 0.0;
    {
      Span sp("core.construct");
      const poc::PostOpcFlow probe(*s.design, lib, poc::LithoSimulator{},
                                   workload_options(args, 0.0));
      clock = probe.run_sta(nullptr).worst_arrival * kClockMargin;
    }
    s.options = workload_options(args, clock);
    s.warmup_s = warm_imaging(*s.design, lib, s.options);
  } else {
    s.options = workload_options(args, kTiledClockPs);
  }
  if (args.workload == "sta_queries") {
    Span sp("core.construct");
    s.flow = std::make_unique<poc::PostOpcFlow>(*s.design, lib,
                                                poc::LithoSimulator{}, s.options);
    s.service =
        std::make_unique<poc::TimingService>(s.flow->make_timing_service());
  }
  s.total_s = since(t0);
  return s;
}

int setup_child_main(const Args& args) {
  const auto t0 = Clock::now();
  library(args);
  const double load_s = since(t0);
  const Setup s = make_setup(args);
  std::printf("SETUP %.9f %.9f %.9f %.9f\n", s.total_s, s.pnr_s, s.warmup_s,
              load_s);
  return 0;
}

int worker_main(const Args& args) {
  tracer().enable(args.trace);
  const poc::StdCellLibrary* lib = nullptr;
  {
    Span s("stdcell.load");
    lib = &library(args);
  }
  std::unique_ptr<poc::PlacedDesign> design;
  {
    Span s("pnr.place_and_route");
    design = std::make_unique<poc::PlacedDesign>(
        poc::place_and_route(workload_netlist(args), *lib));
  }
  poc::ShardWorkerOptions wo;
  wo.spec.worker = args.worker_id;
  wo.spec.workers = args.workers;
  wo.spec.policy = parse_policy(args.policy);
  wo.spec.lo = args.lo;
  wo.spec.hi = args.hi;
  if (args.residue_set) wo.spec.residue = args.residue;
  wo.work_dir = args.work_dir;
  wo.opc_mode = poc::OpcMode::kModelBased;
  poc::FlowOptions base = workload_options(args, kTiledClockPs);
  base.cache.disk_path = args.work_dir + "/cache";
  bool ok = false;
  {
    Span s("run.worker");
    ok = poc::run_shard_worker(*design, *lib, poc::LithoSimulator{}, base, wo);
  }
  if (args.trace) {
    std::ofstream(args.work_dir + "/perfbench.w" +
                  std::to_string(args.worker_id) + "-" +
                  std::to_string(::getpid()) + ".spans")
        << tracer().to_lines();
  }
  return ok ? 0 : 1;
}

int record_main(const Args& args) {
  library(args);
  Setup setup = make_setup(args);
  double ws = 0.0;
  if (args.workload == "sta_queries") {
    ws = setup.service->worst_slack();
  } else {
    // One in-process flow per seed; for the sharded workloads the
    // determinism contract makes it equal to any worker count's result.
    // A disk cache shared across seeds (window results do not depend on
    // the ACLV seed) keeps recording every seed cheap.
    poc::FlowOptions o = setup.options;
    o.threads = 0;
    o.cache.disk_path = args.work_root + "/record-cache-" + args.workload +
                        (args.short_mode ? "-short" : "");
    poc::PostOpcFlow flow(*setup.design, library(args), poc::LithoSimulator{},
                          o);
    flow.run_opc(poc::OpcMode::kModelBased);
    ws = flow.compare_timing().annotated.worst_slack;
  }
  std::printf("GOLDEN %s\n", format_ws(ws).c_str());
  return 0;
}

int measure_main(const Args& args) {
  become_subreaper();
  Tally tally;
  Metrics m;
  tracer().enable(args.trace);

  // Library: loaded from the benchmark-owned file, outside set-up time.
  std::vector<double> load_s, setup_s, pnr_s, warmup_s;
  {
    Span s("stdcell.load");
    const auto t0 = Clock::now();
    library(args);
    load_s.push_back(since(t0));
  }
  Setup setup = make_setup(args);
  setup_s.push_back(setup.total_s);
  pnr_s.push_back(setup.pnr_s);
  warmup_s.push_back(setup.warmup_s);
  const auto sampling = Clock::now();
  while (setup_s.size() < kSetupSamples ||
         (setup_s.size() < kMaxSetupSamples &&
          since(sampling) < kSetupSamplingS)) {
    std::vector<std::string> argv = {self_exe(), "--mode", "setup",
                                     "--workload", args.workload,
                                     "--seed", std::to_string(args.seed),
                                     "--lib", args.lib_path};
    if (args.short_mode) argv.push_back("--short");
    std::istringstream line(run_child(argv));
    std::string tag;
    double total = 0, pnr = 0, warm = 0, load = 0;
    if (!(line >> tag >> total >> pnr >> warm >> load) || tag != "SETUP") {
      throw std::runtime_error("malformed set-up child output");
    }
    setup_s.push_back(total);
    pnr_s.push_back(pnr);
    warmup_s.push_back(warm);
    load_s.push_back(load);
  }

  Runner runner(args, setup, tally);
  runner.prime_cache_if_needed();
  if (args.workload == "sta_queries") {
    // The loaded design's drawn worst slack is the workload's golden.
    tally.attempt();
    const double ws = setup.service->worst_slack();
    if (!args.golden.empty() && format_ws(ws) != args.golden) {
      tally.fail("initial worst slack " + format_ws(ws) + " != golden " +
                 args.golden);
    }
  }

  // In-process workloads keep state across passes (thread-local scratch
  // arenas, allocator pools); one untimed pass lets it settle.  Sharded
  // passes start fresh worker processes every time and need none.  A pass
  // is one operation, and so is each window of a flow pass.
  if (!is_sharded_workload(args.workload)) {
    tracer().enable(false);
    runner.pass(-1);
    tally.attempt(1 + runner.windows_per_pass());
  }

  // Timed passes until --seconds is spent.  A traced run alternates traced
  // and untraced passes so it can state its own tracing overhead.
  std::vector<PassResult> passes;
  std::vector<double> traced_wall, untraced_wall;
  const auto start = Clock::now();
  for (std::int64_t i = 0;
       since(start) < args.seconds || (args.trace && i < 2) || i < 1; ++i) {
    const bool traced = args.trace && i % 2 == 0;
    tracer().enable(traced);
    tracer().begin_run(i);
    PassResult r = runner.pass(i);
    tracer().end_run();
    tally.attempt(1 + runner.windows_per_pass());
    (traced ? traced_wall : untraced_wall).push_back(r.wall_s);
    passes.push_back(std::move(r));
  }
  tracer().enable(args.trace);
  const double measured_s = since(start);

  std::vector<double> wall, rss;
  for (const PassResult& p : passes) {
    wall.push_back(p.wall_s);
    rss.push_back(p.peak_rss_mb);
  }

  if (!args.trace) {
    std::vector<double> lat;
    double ops = 0.0, busy = 0.0;
    if (args.workload == "sta_queries") {
      lat = runner.query_latencies();
      ops = static_cast<double>(lat.size());
      busy = sum(wall);
    } else {
      // A flow user's query is one whole pass: drawn-vs-silicon timing.
      lat = wall;
      ops = static_cast<double>(wall.size());
      busy = sum(wall);
    }
    for (double& x : lat) x *= 1e6;
    // The tail is the highest percentile with at least ten samples beyond
    // it (p99 from 1000 samples on), and the median below 20 samples.
    const double n = static_cast<double>(lat.size());
    const double tail_p = std::clamp(100.0 * (n - 10.0) / n, 50.0, 99.0);
    m["setup_s"] = {median(setup_s), "s"};
    m["flow_s"] = {median(wall), "s"};
    m["peak_rss_mb"] = {median(rss), "MiB"};
    m["query_p50_us"] = {median(lat), "us"};
    m["query_p99_us"] = {percentile(lat, tail_p), "us"};
    m["queries_per_s"] = {ops / busy, "1/s"};
    std::printf("SAMPLES setups=%zu passes=%zu queries=%zu measured_s=%.3f "
                "tail=p%.2f "
                "pass_s min/p25/median/p75/max=%.4f/%.4f/%.4f/%.4f/%.4f\n",
                setup_s.size(), passes.size(), lat.size(), measured_s, tail_p,
                percentile(wall, 0.0), percentile(wall, 25.0), median(wall),
                percentile(wall, 75.0), percentile(wall, 100.0));
  } else {
    // Per-layer metrics: span times from the traced passes, counters and
    // process figures from every pass, kernel probes after the passes.
    std::vector<std::int64_t> traced_runs;
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(passes.size());
         i += 2) {
      traced_runs.push_back(i);
    }
    const auto span_s = [&](const char* name) {
      std::vector<double> v;
      for (std::int64_t run : traced_runs) v.push_back(tracer().run_total(name, run));
      return median(v);
    };
    const auto pass_median = [&](auto field) {
      std::vector<double> v;
      for (const PassResult& p : passes) v.push_back(static_cast<double>(field(p)));
      return median(v);
    };
    for (const char* phase : {"tag", "opc", "extract", "annotate", "sta", "scan"}) {
      const std::string name = std::string("core.") + phase;
      m[name + "_s"] = {span_s(name.c_str()), "s"};
    }
    double core_s = 0.0, pass_s = 0.0;
    for (std::int64_t run : traced_runs) {
      pass_s += tracer().run_total("pass", run);
      for (const char* name : {"core.construct", "core.tag", "core.opc",
                               "core.sta", "core.extract", "core.annotate",
                               "core.scan"}) {
        core_s += tracer().run_total(name, run);
      }
    }
    m["trace.core_coverage"] = {pass_s > 0.0 ? core_s / pass_s : 0.0, "ratio"};
    m["par.cpu_util"] = {pass_median([](const PassResult& p) { return p.cpu_util; }), "ratio"};
    m["run.worker_wall_s_max"] = {pass_median([](const PassResult& p) { return p.worker_max_s; }), "s"};
    m["run.worker_wall_s_min"] = {pass_median([](const PassResult& p) { return p.worker_min_s; }), "s"};
    {
      // Single-process passes only know their layer time when traced.
      std::vector<double> v;
      for (std::int64_t run : traced_runs) v.push_back(passes[static_cast<std::size_t>(run)].coord_s);
      m["run.coord_s"] = {median(v), "s"};
    }
    m["run.records_appended"] = {pass_median([](const PassResult& p) { return p.records_appended; }), "count"};
    m["run.records_replayed"] = {pass_median([](const PassResult& p) { return p.records_replayed; }), "count"};
    m["run.residual_windows"] = {pass_median([](const PassResult& p) { return p.residual_windows; }), "count"};
    m["cache.opc_hits"] = {pass_median([](const PassResult& p) { return p.cache.opc.hits; }), "count"};
    m["cache.opc_misses"] = {pass_median([](const PassResult& p) { return p.cache.opc.misses; }), "count"};
    m["cache.latent_hits"] = {pass_median([](const PassResult& p) { return p.cache.latent.hits; }), "count"};
    m["cache.latent_misses"] = {pass_median([](const PassResult& p) { return p.cache.latent.misses; }), "count"};
    m["cache.disk_hits"] = {pass_median([](const PassResult& p) { return p.cache.total().disk_hits + p.worker_disk_hits; }), "count"};
    m["cache.worker_misses"] = {pass_median([](const PassResult& p) { return p.worker_misses; }), "count"};
    m["cache.hit_rate"] = {pass_median([](const PassResult& p) {
      const poc::CacheCounters t = p.cache.total();
      const double hits = static_cast<double>(t.hits + t.disk_hits +
                                              p.worker_mem_hits + p.worker_disk_hits);
      const double lookups = hits + static_cast<double>(t.misses + p.worker_misses);
      return lookups > 0.0 ? hits / lookups : 0.0;
    }), "ratio"};
    m["pnr.place_and_route_s"] = {median(pnr_s), "s"};
    m["stdcell.load_s"] = {median(load_s), "s"};
    m["trace.flow_s"] = {median(traced_wall), "s"};
    m["trace.untraced_flow_s"] = {median(untraced_wall), "s"};
    m["trace.overhead_s"] = {median(traced_wall) - median(untraced_wall), "s"};

    const bool warmed_in_setup = args.workload == "unique_socs";
    if (warmed_in_setup) m["litho.kernel_build_s"] = {median(warmup_s), "s"};
    run_window_probes(args, setup, runner.last_flow(), !warmed_in_setup, m, tally);
    if (args.workload == "sta_queries") {
      for (int k = 0; k < 4; ++k) {
        m[std::string("sta.") + kQueryNames[k] + "_us"] = {
            median(runner.query_kind_latencies(k)) * 1e6, "us"};
      }
      m["sta.arrival_evals"] = {median(runner.arrival_evals()), "count"};
      m["sta.full_ms"] = {median(runner.checkpoint_sta_s()) * 1e3, "ms"};
    } else {
      run_sta_probes(args, setup, runner.last_flow(), m, tally);
    }
    report_trace(args, m);
  }

  emit_result(tally, m);
  return 0;
}

}  // namespace perfbench
