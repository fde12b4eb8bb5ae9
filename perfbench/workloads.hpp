// The benchmark's workloads; each fills a RunResult for one run.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// No loop starts a round or phase that would end past this many seconds,
/// whatever --seconds says, so a run ends well within three minutes.
inline constexpr double kMaxLoopSeconds = 120.0;

RunResult run_plan_workload(const RunConfig& config);  ///< plan_tight, plan_roomy
RunResult run_serve_workload(const RunConfig& config); ///< serve_mixed

/// Traced run: write the spans under config.trace_dir and put each layer's
/// self time into the result's context.
void finish_trace(const RunConfig& config, const Tracer& tracer,
                  RunResult& result);

}  // namespace perfbench
