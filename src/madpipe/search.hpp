// Algorithm 1 of the paper: the modified binary search over the target
// period T̂ driving MadPipe-DP.
//
// Two monotonicities make the search sound: MadPipe-DP(T̂) is non-increasing
// in T̂ (a larger target stores fewer activations, relaxing memory), and any
// schedule of the produced allocation needs a period ≥ max(DP result, T̂).
// Each iteration therefore tightens lb = max(lb, min(T, T̂)) and
// ub = min(ub, max(T, T̂)) and probes the midpoint.
//
// Certified early stop: every iterate achieves at least T_free, the
// memory-free bound of `madpipe_dp_memory_free_bound`, and only a strictly
// smaller iterate replaces the incumbent. Once the incumbent reaches T_free
// the search stops, so the trace is a prefix of the full K-probe trace and
// the period, allocation and `uses_special` are bit-identical to it. The stop
// is off with `keep_iterate_allocations`, whose callers consume later
// iterates (DESIGN.md §7).
#pragma once

#include <optional>
#include <vector>

#include "core/partition.hpp"
#include "madpipe/dp.hpp"

namespace madpipe {

struct Phase1Options {
  int iterations = 10;  ///< K of Algorithm 1 (10 suffices per the paper)
  MadPipeDPOptions dp;
  /// Retain every iterate's allocation in the trace (used by the "schedule
  /// the best k iterates" extension; the paper keeps only the best). Also
  /// runs all K probes: the certified early stop is off.
  bool keep_iterate_allocations = false;
  /// Speculation width W of the bisection fast path: up to W DP probes run
  /// concurrently, the extras at the targets the search would request next
  /// under each possible outcome of the pending probe. Results are
  /// bit-identical to the sequential search for every W (mispredicted
  /// probes are discarded). 0 = auto (min(4, hardware threads)); 1 =
  /// sequential.
  int speculation = 0;
  /// Worker threads for speculative probes; 0 = one per in-flight probe.
  std::size_t workers = 0;
};

struct Phase1Iteration {
  Seconds target = 0.0;    ///< T̂_i
  Seconds achieved = 0.0;  ///< max(MadPipe-DP(T̂_i), T̂_i); infinity if infeasible
  /// Present only with Phase1Options::keep_iterate_allocations.
  std::optional<Allocation> allocation;
};

struct Phase1Result {
  /// Best max(T_i, T̂_i) over all iterations; infinity when every target was
  /// infeasible (no allocation fits memory at all).
  Seconds period = 0.0;
  std::optional<Allocation> allocation;  ///< allocation of the best iterate
  bool uses_special = false;
  /// One entry per consumed probe: ≤ `iterations` entries, fewer when the
  /// interval collapsed or the early stop fired (a prefix of the full trace).
  std::vector<Phase1Iteration> trace;
  /// Counters summed over every DP probe launched (speculative ones
  /// included); phase1_probes counts only the probes the search consumed.
  PlannerStats stats;

  bool feasible() const noexcept { return allocation.has_value(); }
};

/// Run the first phase of MadPipe (Algorithm 1).
Phase1Result madpipe_phase1(const Chain& chain, const Platform& platform,
                            const Phase1Options& options = {});

}  // namespace madpipe
