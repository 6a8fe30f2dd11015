// Output of a run: the traced run's self-time table and Chrome trace, and
// the one-line JSON result every run ends with.
#pragma once

#include "perfbench/harness.h"

namespace perfbench {

/// Prints the per-span self-time table and writes the spans as Chrome
/// trace-event JSON under <work_root>/traces/.
void report_trace(const Args& args, const Metrics& m);

/// Prints the failure reasons, then the result object as the last line:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
void emit_result(const Tally& tally, const Metrics& m);

}  // namespace perfbench
