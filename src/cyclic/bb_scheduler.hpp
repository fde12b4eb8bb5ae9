// Branch-and-bound cyclic scheduler: the phase-2 engine of our MadPipe
// implementation (the paper delegates this step to the ILP of its reference
// [1] with a one-minute solver time limit; we solve the same problem with a
// dedicated combinatorial search — see DESIGN.md for the substitution).
//
// For a fixed period T, operations are placed in dependency-chain order at
// virtual times z (z = t + h·T). Two observations keep the search small:
//   * an op's circle footprint [z mod T, z mod T + d) is independent of the
//     period it lands in, so for each free gap on its resource only the
//     earliest z ≥ ready matters — later wraps only add index shifts (and
//     memory) without changing packability;
//   * trying candidates in increasing z explores memory-cheapest placements
//     first.
// Partial placements are pruned with a safe lower bound on the
// always-resident activation floor (a stage in "group" g keeps at least
// g − 1 activations at all times, §4.2.1). A leaf (a complete placement) is
// checked in two steps. First the memory sweep: the leaf's F/B ops go
// through sweep_inflight, the function validate_pattern checks memory with,
// against the same static memory and the same M·(1 + tolerance) cap, and
// the leaf is dropped when any processor is over the cap or has a negative
// in-flight count. validate_pattern would reject exactly those leaves, for
// the same reason, so this rejects nothing it would accept. Then every leaf
// that passes goes to the full validate_pattern, which alone accepts it:
// each returned pattern is fully verified, and the search tree and its
// answer are those of a search that validated every leaf.
#pragma once

#include "core/plan.hpp"
#include "cyclic/stage_graph.hpp"

namespace madpipe {

struct BBOptions {
  /// DFS node budget; when exhausted the probe reports infeasible-at-T
  /// (conservative, like the paper's ILP time limit).
  std::size_t max_nodes = 60'000;
  /// Candidate placements explored per operation (sorted by z).
  int max_candidates_per_op = 10;
};

struct BBResult {
  bool feasible = false;
  PeriodicPattern pattern;  ///< valid pattern when feasible
  std::size_t nodes_visited = 0;
  bool node_budget_hit = false;
  /// Complete placements reached (the compact construction's included),
  /// and those that passed the memory sweep and went to validate_pattern.
  std::size_t leaves = 0;
  std::size_t leaves_validated = 0;
};

/// Try to build a valid pattern at exactly `period`.
BBResult bb_schedule(const CyclicProblem& problem, const Allocation& allocation,
                     const Chain& chain, const Platform& platform,
                     Seconds period, const BBOptions& options = {});

}  // namespace madpipe
