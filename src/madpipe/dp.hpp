// MadPipe-DP (§4.2.2): for a fixed target period T̂, the memoized dynamic
// program over states (l, p, t_P, m_P, V) that builds the best
// non-contiguous allocation in which P−1 "normal" processors hold one stage
// each and one "special" processor may hold any number of stages.
//
//   T(l, p, t_P, m_P, V) = smallest achievable period allocating the first l
//   layers with p normal processors still free, given the special processor
//   already carries load t_P and memory m_P, and the delay between F_l and
//   B_l is at least V.
//
// Transitions pick the last stage k..l and send it to a normal processor
// (feasible if 𝓜(k,l,g) ≤ M) or to the special one (feasible if
// m_P + 𝓜(k,l,g−1) ≤ M — the deliberate underestimate of §4.2.1 that the
// phase-2 scheduler later corrects). Delays advance with the ⊕ operator.
//
// Continuous quantities are discretized on the grids of `Discretization`;
// the recursion is memoized on packed state keys, so only reachable states
// are ever evaluated. Given the memory-free bound table of
// `madpipe_dp_memory_free_bound`, the default engine also skips every
// candidate whose child's T_free already reaches the incumbent; periods,
// allocations and every memoized value are unchanged, only fewer states are
// evaluated (DESIGN.md §7, "Monotone scan end and bound-guided cuts").
#pragma once

#include <optional>

#include "core/chain.hpp"
#include "core/partition.hpp"
#include "core/platform.hpp"
#include "madpipe/discretization.hpp"
#include "madpipe/planner_stats.hpp"
#include "util/flat_hash.hpp"

namespace madpipe {

/// Which communication term advances the delay in V′ = (V ⊕ U(k,l)) ⊕ C(·).
enum class DelayCommVariant {
  /// C(k−1) = 2·a_{k−1}/β — the communication actually crossing the
  /// boundary in front of the stage, consistent with the link-load terms of
  /// T_N/T_S in the paper. Default.
  BoundaryConsistent,
  /// C(k) = 2·a_k/β — the paper's literal formula in §4.2.2 (which we read
  /// as a typo; kept for comparison).
  PaperLiteral,
};

/// Which DP implementation evaluates the recurrence. Both produce identical
/// periods and allocations; the golden-equivalence tests enforce it.
enum class DpEngine {
  /// Fast path (default): explicit work-stack iteration (no recursion-depth
  /// hazard at L = 4095), a flat open-addressing memo with 16-byte entries,
  /// dense per-(l, delay) transition rows, dominated-candidate pruning, a
  /// monotone end to each candidate scan, and (given a bound table) cuts on
  /// the children's T_free.
  FlatIterative,
  /// The original recursive, std::unordered_map-memoized implementation;
  /// kept as the reference for equivalence testing.
  ReferenceRecursive,
  /// Wavefront engine: states are grouped into per-layer structure-of-arrays
  /// slabs (all transitions strictly decrease l, so layer L's slab is final
  /// before layer L−1 is expanded); each wavefront is expanded by
  /// `MadPipeDPOptions::threads` shards on the shared thread pool, with
  /// per-shard emission buffers merged deterministically at the barrier.
  /// Periods, allocations and states are bit-identical across thread counts
  /// and identical in period/allocation to the other two engines
  /// (DESIGN.md §11).
  ParallelWavefront,
};

struct MadPipeDPOptions {
  Discretization grid;
  DelayCommVariant delay_comm_variant = DelayCommVariant::BoundaryConsistent;
  DpEngine engine = DpEngine::FlatIterative;
  /// When false, the special processor is removed and all P processors are
  /// normal — MadPipe degrades to a memory-aware *contiguous* partitioner
  /// (the ablation of DESIGN.md).
  bool allow_special = true;
  /// Abort (treat as infeasible) past this many memoized states; a safety
  /// valve for extreme grids, never hit with the presets.
  std::size_t max_states = 80'000'000;
  /// Shard count for the wavefront engine. Values > 1 route FlatIterative
  /// probes to DpEngine::ParallelWavefront. Shards — not pool threads —
  /// define the work decomposition, so results are bit-identical whatever
  /// the pool actually runs them on (including serially).
  int threads = 1;
};

struct MadPipeDPResult {
  /// The achieved period T(L, P−1, 0, 0, 0); infinity when infeasible.
  Seconds period = 0.0;
  /// Reconstructed allocation (normal stages on processors 0..P−2 in chain
  /// order of first use; the special processor is P−1). Present iff feasible.
  std::optional<Allocation> allocation;
  /// True when at least one stage sits on the special processor.
  bool uses_special = false;
  std::size_t states_visited = 0;
  /// True when the max_states safety valve fired: unexplored states were
  /// treated as infeasible, so an infinite `period` means "truncated", not
  /// necessarily "infeasible".
  bool state_budget_hit = false;
  PlannerStats stats;
};

struct MadPipeDPBound {
  /// T_free; infinity when even the relaxed recurrence finds no allocation.
  /// A lower bound only when !state_budget_hit.
  Seconds period = 0.0;
  std::size_t states = 0;  ///< (l, p, t_P) states memoized
  /// max_states fired: unexplored states counted as infeasible, so `period`
  /// may overestimate T_free and bounds nothing; `table` is then empty.
  bool state_budget_hit = false;
  /// T_free(l, p, t_P) of every state the relaxation memoized, keyed like
  /// the DP memo with m_P = V = 0. Read-only after construction, so any
  /// number of concurrent probes may share it.
  util::FlatHash64<double> table;

  /// T_free(l, p, load_idx); 0 (bounds nothing) for a state the relaxed
  /// search never reached.
  double at(int l, int p, int load_idx) const;
};

/// Run MadPipe-DP with target period `target_period` (T̂ > 0). `bound`, the
/// result of `madpipe_dp_memory_free_bound` for the same chain, platform
/// and options, lets the FlatIterative engine skip candidates its table
/// proves cannot win; the other engines ignore it. A bound that hit its
/// state budget has an empty table and cuts nothing. The period, allocation
/// and `uses_special` are identical with and without it.
MadPipeDPResult madpipe_dp(const Chain& chain, const Platform& platform,
                           Seconds target_period,
                           const MadPipeDPOptions& options = {},
                           const MadPipeDPBound* bound = nullptr);

/// T_free: the MadPipe-DP recurrence with every memory check dropped except
/// the per-stage static window (weights + scratch ≤ M), on the same grids,
/// rounding, floors and `allow_special` setting. It depends on neither m_P,
/// V nor T̂, so one evaluation over (l, p, t_P) states lower-bounds every
/// constrained state (l, p, t_P, ·, ·) and, at the root,
/// `madpipe_dp(chain, platform, T̂, options).period` for every T̂ and every
/// engine. Not a probe: it adds nothing to any PlannerStats counter.
MadPipeDPBound madpipe_dp_memory_free_bound(const Chain& chain,
                                            const Platform& platform,
                                            const MadPipeDPOptions& options = {});

namespace detail {

/// Test hooks for the state-budget "warn once" valve. The warning is
/// emitted at most once per process *per engine* through an atomic guard,
/// so concurrent speculative probes (and serve workers) sharing an engine
/// kind produce exactly one log line; every probe still reports
/// `state_budget_hit` in its own result.
void reset_state_budget_warnings() noexcept;
long long state_budget_warning_count() noexcept;

}  // namespace detail

}  // namespace madpipe
