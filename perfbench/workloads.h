// The four benchmark workloads: set-up, one timed pass, and the measuring
// loop that turns passes into the end-to-end and per-layer metrics.
#pragma once

#include <memory>

#include "perfbench/harness.h"
#include "src/core/flow.h"
#include "src/sta/service.h"

namespace perfbench {

/// Everything a workload builds before its first pass.
struct Setup {
  std::unique_ptr<poc::PlacedDesign> design;
  poc::FlowOptions options;
  /// sta_queries: the flow that built the timing service (and answers the
  /// full-STA checkpoints).  Flow workloads build a fresh flow per pass.
  std::unique_ptr<poc::PostOpcFlow> flow;
  std::unique_ptr<poc::TimingService> service;

  double total_s = 0.0;   ///< the whole set-up, library load excluded
  double pnr_s = 0.0;     ///< place & route alone
  double warmup_s = 0.0;  ///< imaging memo warm-up (unique_socs), else 0
};

Setup make_setup(const Args& args);

/// Mode "setup": one set-up in a fresh process, printed as a SETUP line.
int setup_child_main(const Args& args);
/// Mode "worker": one shard worker of a sharded pass.
int worker_main(const Args& args);
/// Mode "record": prints the golden annotated worst slack of the inputs.
int record_main(const Args& args);
/// Default mode: the timed run; prints the result as its last line.
int measure_main(const Args& args);

/// One closed-loop timing query against `service`, drawn from `rng` with the
/// sta_queries mix; returns its kind (0 retime, 1 whatif, 2 slack, 3 paths).
/// `latency_s` gets the call's wall time, `arrival_evals` the retime cone
/// size; a whatif that moves the worst slack is reported through `tally`.
int timing_query(poc::TimingService& service, const poc::Netlist& nl,
                 Stream& rng, double& latency_s, std::size_t& arrival_evals,
                 Tally& tally);
extern const char* const kQueryNames[4];

}  // namespace perfbench
