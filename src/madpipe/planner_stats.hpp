// Perf counters threaded through the planner hot path — MadPipe-DP's memo
// and transition cache, Algorithm 1's bisection and the cyclic period
// search — so planner throughput is observable end to end: in unit tests, in
// the bench harness (BENCH_planner.json) and in `madpipe planner`. The
// planner-side sibling of solver::SolverStats.
#pragma once

namespace madpipe::json {
class Writer;
}

namespace madpipe {

/// Defined when MadPipeDPResult/Phase1Result/Plan carry a PlannerStats
/// block; lets tools compile against both the instrumented and the
/// pre-instrumentation API.
#define MADPIPE_PLANNER_STATS 1

struct PlannerStats {
  // --- MadPipe-DP ---
  long long dp_probes = 0;       ///< madpipe_dp invocations
  long long dp_states = 0;       ///< states memoized across all probes
  long long dp_state_visits = 0; ///< state evaluations started (frames run)
  /// Per-state memo operations: the entry placeholder insert plus the final
  /// value update — exactly two hashings per visited state (the old
  /// find/emplace/assign pattern did three).
  long long memo_probes = 0;
  long long memo_child_lookups = 0;  ///< child-value lookups in the k-loop
  long long memo_hits = 0;           ///< lookups (either kind) that hit
  double memo_max_load_factor = 0.0; ///< worst flat-table occupancy seen
  /// Entry-moving growth rehashes the memo performed (growth churn a bad
  /// pre-reserve causes) and the ones the up-front reserve skipped.
  long long memo_rehashes = 0;
  long long memo_rehashes_avoided = 0;
  long long transition_lookups = 0;  ///< (k, l, delay) cache consultations
  long long transition_hits = 0;
  long long state_budget_hits = 0;   ///< DP probes that tripped max_states
  /// Candidates whose floor was below the incumbent but whose child's
  /// memory-free bound T_free already reached it, so the probe skipped them
  /// (the bound-guided cut; 0 when a probe runs without the T_free table).
  long long dp_bound_cuts = 0;

  // --- bisection searches ---
  long long phase1_probes = 0;  ///< DP probes consumed by Algorithm 1
  long long phase2_probes = 0;  ///< bb_schedule probes consumed by the
                                ///< cyclic period search
  /// Per phase: extra probes launched ahead of need, and demanded probes
  /// served from such a launch. Phase 1's pair satisfies
  /// phase1_probes = dp_probes − phase1_speculative_probes +
  /// phase1_speculative_hits.
  long long phase1_speculative_probes = 0;
  long long phase1_speculative_hits = 0;
  long long phase2_speculative_probes = 0;
  long long phase2_speculative_hits = 0;
  /// Phase-2 speculative probes cancelled once the search could no longer
  /// demand them (counted in phase2_speculative_probes, never consumed).
  long long phase2_cancelled_probes = 0;
  /// Algorithm 1 runs that stopped before their K probes because the
  /// incumbent reached the memory-free bound T_free (0 or 1 per plan).
  long long phase1_early_stops = 0;

  // --- cyclic branch-and-bound, over the consumed phase-2 probes ---
  long long phase2_bb_nodes = 0;     ///< DFS nodes expanded
  long long phase2_bb_leaves = 0;    ///< complete placements reached
  long long phase2_budget_hits = 0;  ///< probes that ran out of node budget

  double phase1_wall_seconds = 0.0;
  double phase2_wall_seconds = 0.0;

  /// Sum every counter of `other` into this block (load factor takes the
  /// max). Callers that own a field (e.g. plan_madpipe owns the phase wall
  /// clocks) overwrite it after accumulating.
  void absorb(const PlannerStats& other) noexcept;

  /// Append this block as one JSON object value (the caller writes the key).
  void write_json(json::Writer& writer) const;

  /// Add this block into the process-wide obs::Registry (the cumulative
  /// madpipe_planner_* counters and the per-phase wall histograms). Called
  /// once per plan_madpipe run so registry totals aggregate per plan; the
  /// struct's own fields are unchanged (they remain the per-run view).
  /// Thread-safe (relaxed atomic adds).
  void publish() const;
};

}  // namespace madpipe
