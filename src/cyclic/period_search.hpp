// Minimal-period search for the cyclic scheduler: binary search over the
// period with branch-and-bound feasibility probes, between the resource-load
// lower bound and the fully-serial upper bound (at which a schedule exists
// whenever the allocation is memory-schedulable at all: every stage then
// keeps a single in-flight batch, the activation floor).
#pragma once

#include <atomic>
#include <functional>

#include "core/plan.hpp"
#include "cyclic/bb_scheduler.hpp"

namespace madpipe {

struct PeriodSearchOptions {
  /// Stop when ub − lb ≤ relative_precision · ub.
  double relative_precision = 1e-3;
  int max_probes = 28;
  BBOptions bb;
  /// Speculation width W: up to W branch-and-bound probes run at once, the
  /// extras on periods the search may demand next, most likely first (an
  /// unsettled probe is predicted infeasible); probes the search can no
  /// longer demand are cancelled. Results are bit-identical to the
  /// sequential search for every W. 0 = auto (min(4, hardware threads));
  /// 1 = sequential.
  int speculation = 0;
  /// Cap on concurrent probes (lanes); 0 = W.
  std::size_t workers = 0;
};

struct PeriodSearchResult {
  bool feasible = false;
  PeriodicPattern pattern;  ///< pattern at the best (smallest) feasible period
  Seconds period = 0.0;
  int probes = 0;  ///< probes the search consumed (as in a sequential run)
  /// Probes launched ahead of need (cancelled ones included), and consumed
  /// probes served by an earlier launch, so probes launched in all =
  /// probes + speculative_probes − speculative_hits.
  int speculative_probes = 0;
  int speculative_hits = 0;
  /// Speculative probes stopped early because the search could no longer
  /// demand them; never consumed, never cached.
  int cancelled_probes = 0;
  /// Branch-and-bound work summed over the consumed probes: DFS nodes,
  /// leaves reached, and probes that ran out of node budget.
  long long bb_nodes = 0;
  long long bb_leaves = 0;
  int budget_hit_probes = 0;
  double wall_seconds = 0.0;
};

/// Find (approximately) the smallest period at which `allocation` can be
/// scheduled within memory. `lower_hint` tightens the initial lower bound
/// (e.g. the phase-1 period, which is a valid lower bound by construction).
PeriodSearchResult find_min_period(const Allocation& allocation,
                                   const Chain& chain, const Platform& platform,
                                   Seconds lower_hint = 0.0,
                                   const PeriodSearchOptions& options = {});

/// One probe at `period` with node budget `max_nodes`, returning a
/// `cancelled` result once `cancel` reads true.
using PeriodProbe = std::function<BBResult(
    Seconds period, std::size_t max_nodes, const std::atomic<bool>& cancel)>;

/// find_min_period's bisection between `lb` and `ub` (ub ≥ lb), with its
/// probes run by `probe` (find_min_period passes bb_schedule). Each probe
/// first runs with `triage_nodes` nodes and again with
/// `options.bb.max_nodes` only when that budget ran out.
PeriodSearchResult bisect_min_period(Seconds lb, Seconds ub,
                                     const PeriodProbe& probe,
                                     std::size_t triage_nodes,
                                     const PeriodSearchOptions& options);

}  // namespace madpipe
