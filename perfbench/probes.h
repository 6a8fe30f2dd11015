// Layer probes of the traced run: timed calls into the public functions of
// the kernel layers (litho, common, opc, cdx, geom) on a seeded sample of
// the workload's own windows, and into the timing service on its design.
#pragma once

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {

/// Fills the litho.*, common.*, opc.*, cdx.* and geom.* metrics, 1 thread.
/// `post_opc`, when set, is a flow whose run_opc already corrected every
/// window: its masks are the ones imaged, and the probe's own OPC result
/// must equal them bit for bit.  `kernel_build` also times the imaging memo
/// warm-up over the sample (cold in a process that has imaged nothing).
void run_window_probes(const Args& args, const Setup& setup,
                       const poc::PostOpcFlow* post_opc, bool kernel_build,
                       Metrics& m, Tally& tally);

/// Fills the sta.* metrics from a seeded burst of timing queries (the
/// sta_queries mix) against a service over the workload's design.
void run_sta_probes(const Args& args, const Setup& setup,
                    const poc::PostOpcFlow* flow, Metrics& m, Tally& tally);

}  // namespace perfbench
