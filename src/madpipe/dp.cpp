// Two engines evaluate the MadPipe-DP recurrence (see dp.hpp for the
// dispatch contract):
//
//  * FlatDpSolver — the fast path. An explicit work-stack replaces the deep
//    recursion (L can be 4095), the memo is a flat open-addressing table
//    with 16-byte entries probed at most twice per state (placeholder
//    insert + final update), and everything a transition determines that
//    depends only on (k, l, delay_idx) — stage/link loads, the advanced
//    delay, g(k,l,V) and both memory footprints — is computed once per
//    distinct triple in dense per-(l, delay_idx) transition rows shared
//    with reconstruction.
//    Dominated candidates (whose load/link floor already reaches the best
//    value, which the strict-improvement rule can never accept) are pruned
//    before recursing, each candidate scan ends once both options' load
//    floors reach the best value (they only grow as k falls), and, given the
//    T_free table of the memory-free relaxation, a candidate whose child's
//    T_free reaches the best value is skipped too. These change which states
//    are memoized but provably not any memoized value, the achieved period
//    or the allocation.
//
//  * ReferenceDpSolver — the original recursive, unordered_map-memoized
//    implementation, kept verbatim as the semantic reference for the
//    golden-equivalence tests.
//
// FreeBoundSolver is not an engine: it evaluates the memory-free relaxation
// T_free that lower-bounds every engine's period at every target (the
// certified early stop of Algorithm 1, search.cpp) and, state by state,
// every constrained state FlatDpSolver evaluates (its bound-guided cuts).
#include "madpipe/dp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/memory_model.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/flat_hash.hpp"
#include "util/logging.hpp"

namespace madpipe {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Packed DP state: l at 12 bits, p at 7, grid indices at 10 each (49 bits
/// total). Budgets: l ≤ 4095, p ≤ 64, grid indices ≤ 1023 each — sized for
/// LLM-scale chains (thousands of linearized transformer layers, P up to 64).
/// p needs the full 7 bits: with the special stage disabled the root state
/// carries p = P itself, not P - 1.
std::uint64_t pack_state(int l, int p, int load_idx, int mem_idx,
                         int delay_idx) {
  return (static_cast<std::uint64_t>(l) << 37) |
         (static_cast<std::uint64_t>(p) << 30) |
         (static_cast<std::uint64_t>(load_idx) << 20) |
         (static_cast<std::uint64_t>(mem_idx) << 10) |
         static_cast<std::uint64_t>(delay_idx);
}

/// Lower bound of 𝓜(k,l,g) over every g ≥ 0 and both placement options: the
/// always-resident weights + scratch term (activation and comm-buffer terms
/// are non-negative, and the special option only adds m_P ≥ 0 on top). The
/// bound grows monotonically as k falls, so once it exceeds M no smaller k
/// can be feasible and the candidate scans break there. Every skipped
/// candidate fails both options' memory checks in every engine, so the break
/// changes no memoized state, value, or reconstruction choice. It bounds
/// the scans by the stage window whatever the incumbent; on roomy chains,
/// where the window is the whole chain, `scan_ends` is what ends them.
bool stage_static_memory_exceeds(const Chain& chain, int k, int l,
                                 Bytes limit) {
  return weights_memory(chain, k, l) + chain.scratch_sum(k, l) > limit;
}

/// k_lo(l) for l = 1..L (index 0 unused): the smallest k a candidate scan
/// from l downward reaches before stage_static_memory_exceeds breaks it, or
/// l + 1 when stage l..l alone already exceeds M. Computed by the same scan,
/// so `k >= k_lo[l]` is exactly the scan's continue condition.
std::vector<int> static_window_floors(const Chain& chain, Bytes limit) {
  std::vector<int> floors(static_cast<std::size_t>(chain.length()) + 1, 1);
  for (int l = 1; l <= chain.length(); ++l) {
    int k = l;
    while (k >= 1 && !stage_static_memory_exceeds(chain, k, l, limit)) --k;
    floors[static_cast<std::size_t>(l)] = k + 1;
  }
  return floors;
}

/// Per-engine atomic once-guards for the state-budget warning. Engines run
/// concurrently (speculative bisection probes, serve workers), so a plain
/// per-instance bool would emit one warning per probe; the exchange below
/// elects exactly one emitter per engine kind. log::write assembles each
/// line before a single locked write, so the elected line cannot interleave.
std::atomic<bool> g_flat_budget_warned{false};
std::atomic<bool> g_reference_budget_warned{false};
std::atomic<long long> g_budget_warnings_emitted{0};

void warn_state_budget_once(std::atomic<bool>& guard) {
  if (guard.exchange(true, std::memory_order_relaxed)) return;
  g_budget_warnings_emitted.fetch_add(1, std::memory_order_relaxed);
  log::warn("MadPipe-DP state budget exhausted; treating unexplored states "
            "as infeasible");
}

Seconds delay_upper_bound(const Chain& chain, const Platform& platform) {
  Seconds total = chain.total_compute();
  for (int j = 1; j < chain.length(); ++j) {
    total += platform.boundary_comm_time(chain, j);
  }
  return total;
}

/// Everything a transition taking stage k..l out of a state with delay
/// index delay_idx determines, independent of (p, load_idx, mem_idx).
struct TransitionEntry {
  Seconds stage_load = 0.0;
  Seconds link_load = 0.0;        ///< C(k−1), lower bound on the front link
  Bytes normal_memory = 0.0;      ///< 𝓜(k,l,g): the normal-processor cost
  Bytes special_stage_memory = 0.0;  ///< 𝓜(k,l,g−1): §4.2.1's underestimate
  int next_delay_idx = 0;
  /// g(k,l,V) ≥ 1; 0 marks a transition-row slot not computed yet.
  int active_batches = 0;
};

/// The transition math, shared by every engine (and reconstruction) so the
/// bit-identity guarantees rest on literally the same float expressions.
TransitionEntry compute_transition(const Chain& chain, const Platform& platform,
                                   const Grid& delay_grid, Seconds target,
                                   const MadPipeDPOptions& options, int k,
                                   int l, int delay_idx) {
  TransitionEntry entry;
  entry.stage_load = chain.compute_load(k, l);
  entry.link_load = k > 1 ? platform.boundary_comm_time(chain, k - 1) : 0.0;
  const Seconds delay = delay_grid.value(delay_idx);
  Seconds comm_for_delay = 0.0;
  switch (options.delay_comm_variant) {
    case DelayCommVariant::BoundaryConsistent:
      comm_for_delay = entry.link_load;
      break;
    case DelayCommVariant::PaperLiteral:
      comm_for_delay = platform.boundary_comm_time(chain, k);
      break;
  }
  const Seconds next_delay = delay_advance(
      delay_advance(delay, entry.stage_load, target), comm_for_delay, target);
  entry.next_delay_idx = delay_grid.index(next_delay, options.grid.rounding);
  entry.active_batches = activation_count(chain, k, l, delay, target);
  entry.normal_memory = stage_memory(chain, k, l, entry.active_batches);
  entry.special_stage_memory =
      stage_memory(chain, k, l, entry.active_batches - 1);
  return entry;
}

/// The monotone scan end: true when neither option of candidate k (nor of
/// any smaller k) can beat `best`. U(k,l) is a difference of prefix sums of
/// non-negative terms, so it does not decrease as k falls; IEEE addition
/// and the grid's index/value (clamping included) are monotone, so neither
/// does snap(t_P + U(k,l)); and max(·, C(k−1)) only raises a floor. Every
/// candidate from k down therefore has both floors ≥ best, which the
/// strict-improvement rule never accepts. Shared by FlatDpSolver's forward
/// pass and reconstruction and by FreeBoundSolver, from the same float
/// expressions as compute_transition.
bool scan_ends(const Chain& chain, const Grid& load_grid,
               const MadPipeDPOptions& options, int k, int l, int load_idx,
               double best) {
  const Seconds stage_load = chain.compute_load(k, l);
  if (stage_load < best) return false;
  return !options.allow_special ||
         load_grid.snap(load_grid.value(load_idx) + stage_load,
                        options.grid.rounding) >= best;
}

// ---------------------------------------------------------------------------
// Fast path
// ---------------------------------------------------------------------------

class FlatDpSolver {
 public:
  FlatDpSolver(const Chain& chain, const Platform& platform, Seconds target,
               const MadPipeDPOptions& options, const MadPipeDPBound* bound)
      : chain_(chain),
        platform_(platform),
        target_(target),
        options_(options),
        bound_(bound),
        load_grid_(chain.total_compute(), options.grid.load_points),
        memory_grid_(platform.memory_per_processor, options.grid.memory_points),
        delay_grid_(delay_upper_bound(chain, platform),
                    options.grid.delay_points),
        k_lo_(static_window_floors(chain, platform.memory_per_processor)),
        rows_(static_cast<std::size_t>(chain.length() + 1) *
              static_cast<std::size_t>(options.grid.delay_points)) {
    // reserve() (not the sizing constructor) so the avoided growth rehashes
    // are counted into the stats below.
    memo_.reserve(memo_size_heuristic());
  }

  MadPipeDPResult run() {
    MadPipeDPResult result;
    const int root_p = root_processors();
    result.period = solve_root(chain_.length(), root_p);
    result.states_visited = memo_.size();
    result.state_budget_hit = budget_hit_;
    if (std::isfinite(result.period)) {
      reconstruct(result);
    }
    stats_.dp_probes = 1;
    stats_.dp_states = static_cast<long long>(memo_.size());
    stats_.memo_max_load_factor = memo_.load_factor();
    stats_.memo_rehashes = static_cast<long long>(memo_.rehashes());
    stats_.memo_rehashes_avoided =
        static_cast<long long>(memo_.rehashes_avoided());
    stats_.state_budget_hits = budget_hit_ ? 1 : 0;
    result.stats = stats_;
    return result;
  }

 private:
  /// One suspended evaluation of T(l, p, load, mem, delay). `k`/`opt` are
  /// the resume position in the candidate scan (opt 0 = normal option of k
  /// still to do, 1 = special option of k still to do).
  struct Frame {
    std::uint64_t key = 0;
    int l = 0, p = 0, load_idx = 0, mem_idx = 0, delay_idx = 0;
    int k = 0;
    std::uint8_t opt = 0;
    bool waiting = false;     ///< a child was pushed; consume last_value_
    double pending_floor = 0.0;  ///< max(load, link) of the suspended option
    double best = kInfinity;
  };

  /// A transition row's arena slots, k = l down to l − width + 1.
  struct Row {
    std::uint32_t offset = 0;
    std::uint32_t width = 0;  ///< 0 until the row is first used
  };
  static constexpr std::size_t kFirstRowWidth = 32;

  int root_processors() const {
    return options_.allow_special ? platform_.processors - 1
                                  : platform_.processors;
  }

  std::size_t memo_size_heuristic() const {
    // Reachable states per layer scale with the delay grid and, when the
    // special processor may absorb stages, with a handful of distinct
    // (load, mem) pairs; sized so typical probes never grow the table
    // without over-reserving it (BENCH showed a ×8 factor left the table at
    // ~0.26 occupancy; ×4 lands near 0.5 with zero growth rehashes — the
    // memo_rehashes counter keeps this honest).
    const std::size_t per_layer =
        static_cast<std::size_t>(options_.grid.delay_points) *
        (options_.allow_special ? 4 : 1);
    const std::size_t guess = static_cast<std::size_t>(chain_.length()) *
                              static_cast<std::size_t>(std::max(
                                  root_processors(), 1)) *
                              per_layer;
    return std::min({guess, options_.max_states,
                     static_cast<std::size_t>(1) << 20});
  }

  /// compute_transition, cached per distinct (k, l, delay_idx) triple in a
  /// dense row per (l, delay_idx): slots k = l downward, filled one slot at
  /// a time.
  TransitionEntry transition(int k, int l, int delay_idx) {
    ++stats_.transition_lookups;
    Row& row = rows_[static_cast<std::size_t>(l) *
                         static_cast<std::size_t>(options_.grid.delay_points) +
                     static_cast<std::size_t>(delay_idx)];
    const std::size_t index = static_cast<std::size_t>(l - k);
    if (index >= row.width) grow_row(row, l, index);
    TransitionEntry& slot = arena_[row.offset + index];
    if (slot.active_batches != 0) {
      ++stats_.transition_hits;
      return slot;
    }
    slot = compute_transition(chain_, platform_, delay_grid_, target_,
                              options_, k, l, delay_idx);
    return slot;
  }

  /// Rows grow on demand, doubling from kFirstRowWidth up to the static
  /// window l − k_lo(l) + 1, so a scan that `scan_ends` cuts short never
  /// pays for the slots below where it stopped (on LLM-depth chains the
  /// window is the whole chain). A grown row moves to the arena's end; the
  /// slots it leaves behind total less than its final width.
  void grow_row(Row& row, int l, std::size_t index) {
    const std::size_t window =
        static_cast<std::size_t>(l - k_lo_[static_cast<std::size_t>(l)] + 1);
    const std::size_t width = std::min(
        window, std::max({index + 1, 2 * std::size_t{row.width},
                          kFirstRowWidth}));
    const std::size_t offset = arena_.size();
    MP_ENSURE(offset + width < std::numeric_limits<std::uint32_t>::max(),
              "transition arena overflow");
    arena_.resize(offset + width);
    std::copy_n(arena_.begin() + row.offset, row.width,
                arena_.begin() + static_cast<std::ptrdiff_t>(offset));
    row.offset = static_cast<std::uint32_t>(offset);
    row.width = static_cast<std::uint32_t>(width);
  }

  double base_l0(int load_idx) const { return load_grid_.value(load_idx); }

  /// The bound-guided cut for a candidate whose floor is already below
  /// `best`: its value max(floor, T(child)) is ≥ T_free(child), so once that
  /// reaches `best` the strict-improvement rule cannot accept it. Base-case
  /// children (l = 0 or p = 0) are cheap and never looked up; neither is the
  /// table while `best` is still infinite.
  bool bound_cuts(int l, int p, int load_idx, double best) const {
    return bound_ != nullptr && l > 0 && p > 0 && best < kInfinity &&
           bound_->at(l, p, load_idx) >= best;
  }

  /// p == 0: all remaining layers become one stage on the special processor.
  double special_base(int l, int load_idx, int mem_idx, int delay_idx) const {
    if (!options_.allow_special) return kInfinity;
    const Seconds delay = delay_grid_.value(delay_idx);
    const int g = activation_count(chain_, 1, l, delay, target_);
    const Bytes memory = memory_grid_.value(mem_idx) +
                         stage_memory(chain_, 1, l, g - 1);
    if (memory > platform_.memory_per_processor) return kInfinity;
    return chain_.compute_load(1, l) + load_grid_.value(load_idx);
  }

  void note_budget() {
    if (budget_hit_) return;
    budget_hit_ = true;
    warn_state_budget_once(g_flat_budget_warned);
  }

  void push_frame(int l, int p, int load_idx, int mem_idx, int delay_idx) {
    Frame frame;
    frame.key = pack_state(l, p, load_idx, mem_idx, delay_idx);
    frame.l = l;
    frame.p = p;
    frame.load_idx = load_idx;
    frame.mem_idx = mem_idx;
    frame.delay_idx = delay_idx;
    frame.k = l;
    stack_.push_back(frame);
    ++stats_.dp_state_visits;
    // Reserve the state immediately (probe 1 of 2): keeps max_states
    // accounting aligned with the recursive reference, which counted
    // in-progress states. The placeholder is never read — a lookup can only
    // reach a state with strictly smaller l than every in-progress one.
    memo_.emplace(frame.key, kInfinity);
    ++stats_.memo_probes;
  }

  /// Value of (l, p, load, mem, delay) if immediately available; otherwise
  /// pushes a frame for it and returns nullopt — the value arrives in
  /// last_value_ once that frame finalizes.
  std::optional<double> child_value(int l, int p, int load_idx, int mem_idx,
                                    int delay_idx) {
    if (l == 0) return base_l0(load_idx);
    if (p == 0) return special_base(l, load_idx, mem_idx, delay_idx);
    ++stats_.memo_child_lookups;
    if (const double* value =
            memo_.find(pack_state(l, p, load_idx, mem_idx, delay_idx))) {
      ++stats_.memo_hits;
      return *value;
    }
    if (memo_.size() >= options_.max_states) {
      note_budget();
      return kInfinity;
    }
    push_frame(l, p, load_idx, mem_idx, delay_idx);
    return std::nullopt;
  }

  double solve_root(int l, int p) {
    if (l == 0) return base_l0(0);
    if (p == 0) return special_base(l, 0, 0, 0);
    if (memo_.size() >= options_.max_states) {
      note_budget();
      return kInfinity;
    }
    push_frame(l, p, 0, 0, 0);
    while (!stack_.empty()) step();
    return last_value_;
  }

  /// Run the top frame until it suspends on a child or finalizes.
  void step() {
    // Index, not reference: child_value can push a frame and reallocate the
    // stack, so suspension writes must re-acquire through `fi`.
    const std::size_t fi = stack_.size() - 1;
    Frame& f = stack_[fi];
    if (f.waiting) {
      f.waiting = false;
      const double value = std::max(f.pending_floor, last_value_);
      if (value < f.best) f.best = value;
    }
    const Bytes limit = platform_.memory_per_processor;
    const int k_lo = k_lo_[static_cast<std::size_t>(f.l)];
    while (f.k >= k_lo) {
      if (f.opt == 0 && scan_ends(chain_, load_grid_, options_, f.k, f.l,
                                  f.load_idx, f.best)) {
        break;
      }
      const TransitionEntry e = transition(f.k, f.l, f.delay_idx);

      if (f.opt == 0) {
        // Option 1: stage k..l on a fresh normal processor.
        f.opt = 1;
        if (e.normal_memory <= limit) {
          const double floor = std::max(e.stage_load, e.link_load);
          // Dominated candidates can never win, nor can those the T_free
          // table cuts.
          if (floor < f.best &&
              bound_cuts(f.k - 1, f.p - 1, f.load_idx, f.best)) {
            ++stats_.dp_bound_cuts;
          } else if (floor < f.best) {
            const auto sub = child_value(f.k - 1, f.p - 1, f.load_idx,
                                         f.mem_idx, e.next_delay_idx);
            if (!sub.has_value()) {
              stack_[fi].pending_floor = floor;
              stack_[fi].waiting = true;
              return;
            }
            const double value = std::max(floor, *sub);
            if (value < f.best) f.best = value;
          }
        }
      }

      // Option 2: stage k..l joins the special processor (memory counted
      // with g−1, the deliberate underestimate of §4.2.1).
      const int k = f.k;
      f.opt = 0;
      --f.k;
      if (!options_.allow_special) continue;
      const Bytes special_memory =
          memory_grid_.value(f.mem_idx) + e.special_stage_memory;
      if (special_memory > limit) continue;
      const Seconds special_load =
          load_grid_.snap(load_grid_.value(f.load_idx) + e.stage_load,
                          options_.grid.rounding);
      const double floor = std::max(special_load, e.link_load);
      if (floor >= f.best) continue;
      const int next_load_idx =
          load_grid_.index(special_load, options_.grid.rounding);
      if (bound_cuts(k - 1, f.p, next_load_idx, f.best)) {
        ++stats_.dp_bound_cuts;
        continue;
      }
      const int next_mem_idx = memory_grid_.index(
          std::min(special_memory, limit), options_.grid.rounding);
      const auto sub = child_value(k - 1, f.p, next_load_idx, next_mem_idx,
                                   e.next_delay_idx);
      if (!sub.has_value()) {
        stack_[fi].pending_floor = floor;
        stack_[fi].waiting = true;
        return;
      }
      const double value = std::max(floor, *sub);
      if (value < f.best) f.best = value;
    }

    // Candidate scan finished: final update (probe 2 of 2) and pop.
    const auto [slot, inserted] = memo_.emplace(f.key, f.best);
    if (!inserted) *slot = f.best;
    ++stats_.memo_probes;
    last_value_ = f.best;
    stack_.pop_back();
  }

  /// Memoized value during reconstruction; a miss means the state budget
  /// dropped the state, which the forward pass also saw as infeasible.
  double lookup_value(int l, int p, int load_idx, int mem_idx,
                      int delay_idx) {
    if (l == 0) return base_l0(load_idx);
    if (p == 0) return special_base(l, load_idx, mem_idx, delay_idx);
    ++stats_.memo_child_lookups;
    if (const double* value =
            memo_.find(pack_state(l, p, load_idx, mem_idx, delay_idx))) {
      ++stats_.memo_hits;
      return *value;
    }
    return kInfinity;
  }

  void reconstruct(MadPipeDPResult& result) {
    // Walk the winning choices from the root. The memo only stores values,
    // so each step re-derives the argmin with the same candidate order,
    // scan end, cuts and strict-improvement rule as the forward pass — every
    // lookup it needs is either memoized or a base case, and the transition
    // cache is shared, so this costs one candidate scan per stage.
    std::vector<Stage> stages_reversed;
    std::vector<bool> special_reversed;

    int l = chain_.length();
    int p = root_processors();
    int load_idx = 0;
    int mem_idx = 0;
    int delay_idx = 0;
    const Bytes limit = platform_.memory_per_processor;

    while (l > 0) {
      if (p == 0) {
        stages_reversed.push_back(Stage{1, l});
        special_reversed.push_back(true);
        break;
      }
      double best = kInfinity;
      int best_k = -1;
      bool best_special = false;
      int best_next_load = load_idx;
      int best_next_mem = mem_idx;
      int best_next_delay = delay_idx;
      for (int k = l; k >= k_lo_[static_cast<std::size_t>(l)]; --k) {
        if (scan_ends(chain_, load_grid_, options_, k, l, load_idx, best)) {
          break;
        }
        const TransitionEntry e = transition(k, l, delay_idx);
        if (e.normal_memory <= limit) {
          const double floor = std::max(e.stage_load, e.link_load);
          if (floor < best && !bound_cuts(k - 1, p - 1, load_idx, best)) {
            const double sub =
                lookup_value(k - 1, p - 1, load_idx, mem_idx,
                             e.next_delay_idx);
            const double value = std::max(floor, sub);
            if (value < best) {
              best = value;
              best_k = k;
              best_special = false;
              best_next_delay = e.next_delay_idx;
            }
          }
        }
        if (!options_.allow_special) continue;
        const Bytes special_memory =
            memory_grid_.value(mem_idx) + e.special_stage_memory;
        if (special_memory > limit) continue;
        const Seconds special_load =
            load_grid_.snap(load_grid_.value(load_idx) + e.stage_load,
                            options_.grid.rounding);
        const double floor = std::max(special_load, e.link_load);
        if (floor >= best) continue;
        const int next_load_idx =
            load_grid_.index(special_load, options_.grid.rounding);
        if (bound_cuts(k - 1, p, next_load_idx, best)) continue;
        const int next_mem_idx = memory_grid_.index(
            std::min(special_memory, limit), options_.grid.rounding);
        const double sub = lookup_value(k - 1, p, next_load_idx,
                                        next_mem_idx, e.next_delay_idx);
        const double value = std::max(floor, sub);
        if (value < best) {
          best = value;
          best_k = k;
          best_special = true;
          best_next_load = next_load_idx;
          best_next_mem = next_mem_idx;
          best_next_delay = e.next_delay_idx;
        }
      }
      MP_ENSURE(best_k >= 1, "reconstruction fell off the memoized path");

      stages_reversed.push_back(Stage{best_k, l});
      special_reversed.push_back(best_special);
      if (best_special) {
        load_idx = best_next_load;
        mem_idx = best_next_mem;
      } else {
        --p;
      }
      delay_idx = best_next_delay;
      l = best_k - 1;
    }

    std::vector<Stage> stages(stages_reversed.rbegin(), stages_reversed.rend());
    std::vector<bool> special(special_reversed.rbegin(),
                              special_reversed.rend());

    // Normal stages take processors 0,1,... in chain order; the special
    // processor is P−1 (it exists even if unused).
    const int normal_count = root_processors();
    std::vector<int> procs(stages.size());
    int next_normal = 0;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      if (special[s]) {
        procs[s] = platform_.processors - 1;
        result.uses_special = true;
      } else {
        MP_ENSURE(next_normal < normal_count,
                  "more normal stages than normal processors");
        procs[s] = next_normal++;
      }
    }
    result.allocation.emplace(Partitioning(chain_, std::move(stages)),
                              std::move(procs), platform_.processors);
  }

  const Chain& chain_;
  const Platform& platform_;
  Seconds target_;
  MadPipeDPOptions options_;
  const MadPipeDPBound* bound_;  ///< T_free table, or nullptr (no cuts)
  Grid load_grid_;
  Grid memory_grid_;
  Grid delay_grid_;
  std::vector<int> k_lo_;  ///< static_window_floors: scan floor per l
  /// Index l · delay_points + delay_idx.
  std::vector<Row> rows_;
  std::vector<TransitionEntry> arena_;
  util::FlatHash64<double> memo_;
  std::vector<Frame> stack_;
  double last_value_ = kInfinity;
  bool budget_hit_ = false;
  PlannerStats stats_;
};

// ---------------------------------------------------------------------------
// Memory-free lower bound T_free (DESIGN.md §7, "Certified early stop")
// ---------------------------------------------------------------------------
//
// FlatDpSolver's recurrence with every memory check dropped except the
// static window k ≥ k_lo(l), which every engine applies at every target.
// What is left — the floors max(U(k,l), C(k−1)), the special load snap and
// both base cases — is built from the same expressions and depends on
// neither m_P, V nor T̂, so the states are (l, p, load_idx). Each
// constrained candidate is a relaxed candidate with the same floor whose
// child differs only in the ignored coordinates, so by induction on l every
// constrained state (l, p, t_P, m_P, V) is ≥ T_free(l, p, t_P), whatever the
// target — the root (every probe's period) included. The memo therefore
// becomes the bound table FlatDpSolver cuts with.
class FreeBoundSolver {
 public:
  FreeBoundSolver(const Chain& chain, const Platform& platform,
                  const MadPipeDPOptions& options)
      : chain_(chain),
        platform_(platform),
        options_(options),
        load_grid_(chain.total_compute(), options.grid.load_points),
        k_lo_(static_window_floors(chain, platform.memory_per_processor)),
        link_load_(static_cast<std::size_t>(chain.length()) + 1, 0.0) {
    // C(k−1) per k, exactly as compute_transition computes it.
    for (int k = 2; k <= chain.length(); ++k) {
      link_load_[static_cast<std::size_t>(k)] =
          platform.boundary_comm_time(chain, k - 1);
    }
  }

  MadPipeDPBound run() {
    MadPipeDPBound bound;
    bound.period = solve_root(chain_.length(), options_.allow_special
                                                   ? platform_.processors - 1
                                                   : platform_.processors);
    bound.states = memo_.size();
    bound.state_budget_hit = budget_hit_;
    // A truncated memo holds overestimates: no table.
    if (!budget_hit_) bound.table = std::move(memo_);
    return bound;
  }

 private:
  /// FlatDpSolver::Frame without the m_P and V coordinates.
  struct Frame {
    std::uint64_t key = 0;
    int l = 0, p = 0, load_idx = 0;
    int k = 0;
    std::uint8_t opt = 0;
    bool waiting = false;
    double pending_floor = 0.0;
    double best = kInfinity;
  };

  /// p == 0: layers 1..l join the special processor. The constrained base
  /// adds activations, buffers and m_P to this static term (rounded sums of
  /// non-negative terms, never smaller), so it is ∞ whenever this one is.
  double special_base(int l, int load_idx) const {
    if (!options_.allow_special) return kInfinity;
    if (stage_static_memory_exceeds(chain_, 1, l,
                                    platform_.memory_per_processor)) {
      return kInfinity;
    }
    return chain_.compute_load(1, l) + load_grid_.value(load_idx);
  }

  void push_frame(std::uint64_t key, int l, int p, int load_idx) {
    Frame frame;
    frame.key = key;
    frame.l = l;
    frame.p = p;
    frame.load_idx = load_idx;
    frame.k = l;
    stack_.push_back(frame);
    memo_.emplace(key, kInfinity);  // placeholder, as in FlatDpSolver
  }

  std::optional<double> child_value(int l, int p, int load_idx) {
    if (l == 0) return load_grid_.value(load_idx);
    if (p == 0) return special_base(l, load_idx);
    const std::uint64_t key = pack_state(l, p, load_idx, 0, 0);
    if (const double* value = memo_.find(key)) return *value;
    if (memo_.size() >= options_.max_states) {
      budget_hit_ = true;
      return kInfinity;
    }
    push_frame(key, l, p, load_idx);
    return std::nullopt;
  }

  double solve_root(int l, int p) {
    if (l == 0) return load_grid_.value(0);
    if (p == 0) return special_base(l, 0);
    if (options_.max_states == 0) {
      budget_hit_ = true;
      return kInfinity;
    }
    push_frame(pack_state(l, p, 0, 0, 0), l, p, 0);
    while (!stack_.empty()) step();
    return last_value_;
  }

  /// FlatDpSolver::step with the memory checks removed.
  void step() {
    const std::size_t fi = stack_.size() - 1;
    Frame& f = stack_[fi];
    if (f.waiting) {
      f.waiting = false;
      const double value = std::max(f.pending_floor, last_value_);
      if (value < f.best) f.best = value;
    }
    const int k_lo = k_lo_[static_cast<std::size_t>(f.l)];
    while (f.k >= k_lo) {
      if (f.opt == 0 && scan_ends(chain_, load_grid_, options_, f.k, f.l,
                                  f.load_idx, f.best)) {
        break;
      }
      const Seconds stage_load = chain_.compute_load(f.k, f.l);
      const Seconds link_load = link_load_[static_cast<std::size_t>(f.k)];

      if (f.opt == 0) {
        f.opt = 1;
        const double floor = std::max(stage_load, link_load);
        if (floor < f.best) {
          const auto sub = child_value(f.k - 1, f.p - 1, f.load_idx);
          if (!sub.has_value()) {
            stack_[fi].pending_floor = floor;
            stack_[fi].waiting = true;
            return;
          }
          const double value = std::max(floor, *sub);
          if (value < f.best) f.best = value;
        }
      }

      const int k = f.k;
      f.opt = 0;
      --f.k;
      if (!options_.allow_special) continue;
      const Seconds special_load =
          load_grid_.snap(load_grid_.value(f.load_idx) + stage_load,
                          options_.grid.rounding);
      const double floor = std::max(special_load, link_load);
      if (floor >= f.best) continue;
      const auto sub = child_value(
          k - 1, f.p, load_grid_.index(special_load, options_.grid.rounding));
      if (!sub.has_value()) {
        stack_[fi].pending_floor = floor;
        stack_[fi].waiting = true;
        return;
      }
      const double value = std::max(floor, *sub);
      if (value < f.best) f.best = value;
    }

    *memo_.emplace(f.key, f.best).first = f.best;
    last_value_ = f.best;
    stack_.pop_back();
  }

  const Chain& chain_;
  const Platform& platform_;
  MadPipeDPOptions options_;
  Grid load_grid_;
  std::vector<int> k_lo_;
  std::vector<Seconds> link_load_;  ///< C(k−1), indexed by k
  util::FlatHash64<double> memo_;
  std::vector<Frame> stack_;
  double last_value_ = kInfinity;
  bool budget_hit_ = false;
};

// ---------------------------------------------------------------------------
// Reference engine (the original recursive implementation)
// ---------------------------------------------------------------------------

struct MemoEntry {
  double period = kInfinity;
  std::int16_t stage_start = -1;  ///< k of the winning transition
  std::int8_t to_special = 0;     ///< 1 when the winning stage goes special
};

class ReferenceDpSolver {
 public:
  ReferenceDpSolver(const Chain& chain, const Platform& platform,
                    Seconds target, const MadPipeDPOptions& options)
      : chain_(chain),
        platform_(platform),
        target_(target),
        options_(options),
        load_grid_(chain.total_compute(), options.grid.load_points),
        memory_grid_(platform.memory_per_processor, options.grid.memory_points),
        delay_grid_(delay_upper_bound(chain, platform),
                    options.grid.delay_points) {}

  MadPipeDPResult run() {
    MadPipeDPResult result;
    const int root_p = options_.allow_special ? platform_.processors - 1
                                              : platform_.processors;
    result.period = solve(chain_.length(), root_p, 0, 0, 0);
    result.states_visited = memo_.size();
    result.state_budget_hit = budget_hit_;
    if (std::isfinite(result.period)) {
      reconstruct(result);
    }
    stats_.dp_probes = 1;
    stats_.dp_states = static_cast<long long>(memo_.size());
    stats_.dp_state_visits = static_cast<long long>(memo_.size());
    stats_.state_budget_hits = budget_hit_ ? 1 : 0;
    result.stats = stats_;
    return result;
  }

 private:
  /// Everything a transition taking stage k..l out of state (l,·,·,·,iV)
  /// determines: next delay index, feasibility and memory of both targets.
  struct TransitionInfo {
    Seconds stage_load = 0.0;
    Seconds link_load = 0.0;  ///< C(k−1), the lower bound on the front link
    int next_delay_idx = 0;
    int active_batches = 0;  ///< g(k,l,V)
  };

  TransitionInfo transition(int k, int l, int delay_idx) const {
    TransitionInfo info;
    info.stage_load = chain_.compute_load(k, l);
    info.link_load =
        k > 1 ? platform_.boundary_comm_time(chain_, k - 1) : 0.0;
    const Seconds delay = delay_grid_.value(delay_idx);
    Seconds comm_for_delay = 0.0;
    switch (options_.delay_comm_variant) {
      case DelayCommVariant::BoundaryConsistent:
        comm_for_delay = info.link_load;
        break;
      case DelayCommVariant::PaperLiteral:
        comm_for_delay = platform_.boundary_comm_time(chain_, k);
        break;
    }
    const Seconds next_delay = delay_advance(
        delay_advance(delay, info.stage_load, target_), comm_for_delay,
        target_);
    info.next_delay_idx = delay_grid_.index(next_delay, options_.grid.rounding);
    info.active_batches = activation_count(chain_, k, l, delay, target_);
    return info;
  }

  double solve(int l, int p, int load_idx, int mem_idx, int delay_idx) {
    if (l == 0) return load_grid_.value(load_idx);

    if (p == 0) {
      if (!options_.allow_special) return kInfinity;
      // All remaining layers become one stage on the special processor.
      const Seconds delay = delay_grid_.value(delay_idx);
      const int g = activation_count(chain_, 1, l, delay, target_);
      const Bytes memory = memory_grid_.value(mem_idx) +
                           stage_memory(chain_, 1, l, g - 1);
      if (memory > platform_.memory_per_processor) return kInfinity;
      return chain_.compute_load(1, l) + load_grid_.value(load_idx);
    }

    const std::uint64_t key = pack_state(l, p, load_idx, mem_idx, delay_idx);
    ++stats_.memo_probes;
    if (const auto it = memo_.find(key); it != memo_.end()) {
      ++stats_.memo_hits;
      return it->second.period;
    }
    if (memo_.size() >= options_.max_states) {
      if (!budget_hit_) {
        budget_hit_ = true;
        warn_state_budget_once(g_reference_budget_warned);
      }
      return kInfinity;
    }
    // Reserve the slot first: cycles are impossible (l strictly decreases),
    // but this keeps the map stable across the recursive calls below.
    memo_.emplace(key, MemoEntry{});
    ++stats_.memo_probes;

    MemoEntry best;
    const Bytes limit = platform_.memory_per_processor;
    for (int k = l; k >= 1; --k) {
      if (stage_static_memory_exceeds(chain_, k, l, limit)) break;
      const TransitionInfo info = transition(k, l, delay_idx);

      // Option 1: stage k..l on a fresh normal processor.
      const Stage stage{k, l};
      if (stage_memory(chain_, stage.first, stage.last, info.active_batches) <=
          limit) {
        const double sub =
            solve(k - 1, p - 1, load_idx, mem_idx, info.next_delay_idx);
        const double value =
            std::max({info.stage_load, info.link_load, sub});
        if (value < best.period) {
          best = {value, static_cast<std::int16_t>(k), 0};
        }
      }

      if (!options_.allow_special) continue;
      // Option 2: stage k..l joins the special processor (memory counted
      // with g−1, the deliberate underestimate of §4.2.1).
      const Bytes special_memory =
          memory_grid_.value(mem_idx) +
          stage_memory(chain_, stage.first, stage.last,
                       info.active_batches - 1);
      if (special_memory <= limit) {
        const Seconds special_load =
            load_grid_.snap(load_grid_.value(load_idx) + info.stage_load,
                            options_.grid.rounding);
        const int next_load_idx =
            load_grid_.index(special_load, options_.grid.rounding);
        const int next_mem_idx =
            memory_grid_.index(std::min(special_memory, limit),
                               options_.grid.rounding);
        const double sub =
            solve(k - 1, p, next_load_idx, next_mem_idx, info.next_delay_idx);
        const double value = std::max({special_load, info.link_load, sub});
        if (value < best.period) {
          best = {value, static_cast<std::int16_t>(k), 1};
        }
      }
    }

    memo_[key] = best;
    ++stats_.memo_probes;
    return best.period;
  }

  void reconstruct(MadPipeDPResult& result) {
    // Walk the winning choices from the root, re-deriving the follow-up
    // state exactly as solve() did.
    std::vector<Stage> stages_reversed;
    std::vector<bool> special_reversed;

    int l = chain_.length();
    int p = options_.allow_special ? platform_.processors - 1
                                   : platform_.processors;
    int load_idx = 0;
    int mem_idx = 0;
    int delay_idx = 0;

    while (l > 0) {
      if (p == 0) {
        stages_reversed.push_back(Stage{1, l});
        special_reversed.push_back(true);
        break;
      }
      const auto it =
          memo_.find(pack_state(l, p, load_idx, mem_idx, delay_idx));
      MP_ENSURE(it != memo_.end() && it->second.stage_start >= 1,
                "reconstruction fell off the memoized path");
      const MemoEntry& entry = it->second;
      const int k = entry.stage_start;
      const TransitionInfo info = transition(k, l, delay_idx);

      stages_reversed.push_back(Stage{k, l});
      special_reversed.push_back(entry.to_special != 0);
      if (entry.to_special != 0) {
        const Seconds special_load =
            load_grid_.snap(load_grid_.value(load_idx) + info.stage_load,
                            options_.grid.rounding);
        const Bytes special_memory =
            memory_grid_.value(mem_idx) +
            stage_memory(chain_, k, l, info.active_batches - 1);
        load_idx = load_grid_.index(special_load, options_.grid.rounding);
        mem_idx = memory_grid_.index(
            std::min(special_memory, platform_.memory_per_processor),
            options_.grid.rounding);
      } else {
        --p;
      }
      delay_idx = info.next_delay_idx;
      l = k - 1;
    }

    std::vector<Stage> stages(stages_reversed.rbegin(), stages_reversed.rend());
    std::vector<bool> special(special_reversed.rbegin(),
                              special_reversed.rend());

    // Normal stages take processors 0,1,... in chain order; the special
    // processor is P−1 (it exists even if unused).
    const int normal_count = options_.allow_special
                                 ? platform_.processors - 1
                                 : platform_.processors;
    std::vector<int> procs(stages.size());
    int next_normal = 0;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      if (special[s]) {
        procs[s] = platform_.processors - 1;
        result.uses_special = true;
      } else {
        MP_ENSURE(next_normal < normal_count,
                  "more normal stages than normal processors");
        procs[s] = next_normal++;
      }
    }
    result.allocation.emplace(Partitioning(chain_, std::move(stages)),
                              std::move(procs), platform_.processors);
  }

  const Chain& chain_;
  const Platform& platform_;
  Seconds target_;
  MadPipeDPOptions options_;
  Grid load_grid_;
  Grid memory_grid_;
  Grid delay_grid_;
  std::unordered_map<std::uint64_t, MemoEntry> memo_;
  bool budget_hit_ = false;
  PlannerStats stats_;
};

}  // namespace

double MadPipeDPBound::at(int l, int p, int load_idx) const {
  const double* value = table.find(pack_state(l, p, load_idx, 0, 0));
  return value != nullptr ? *value : 0.0;
}

MadPipeDPResult madpipe_dp(const Chain& chain, const Platform& platform,
                           Seconds target_period,
                           const MadPipeDPOptions& options,
                           const MadPipeDPBound* bound) {
  platform.validate();
  MP_EXPECT(target_period > 0.0, "target period must be positive");
  MP_EXPECT(chain.length() <= 4095, "chain too long for the packed DP state");
  MP_EXPECT(platform.processors <= 64,
            "packed DP state supports at most 64 processors");
  MP_EXPECT(options.grid.load_points <= 1024 &&
                options.grid.memory_points <= 1024 &&
                options.grid.delay_points <= 1024,
            "grids must fit the packed state (≤ 1024 points each)");

  obs::Span span("dp_probe", obs::kCatPlanner);
  MadPipeDPResult result;
  if (options.engine == DpEngine::ReferenceRecursive) {
    ReferenceDpSolver solver(chain, platform, target_period, options);
    result = solver.run();
  } else {
    FlatDpSolver solver(chain, platform, target_period, options, bound);
    result = solver.run();
  }
  span.arg("states", static_cast<long long>(result.states_visited));
  span.arg("bound_cuts", result.stats.dp_bound_cuts);
  span.arg("budget_hit", result.state_budget_hit ? 1 : 0);
  return result;
}

MadPipeDPBound madpipe_dp_memory_free_bound(const Chain& chain,
                                            const Platform& platform,
                                            const MadPipeDPOptions& options) {
  platform.validate();
  MP_EXPECT(chain.length() <= 4095, "chain too long for the packed DP state");
  MP_EXPECT(platform.processors <= 64,
            "packed DP state supports at most 64 processors");
  MP_EXPECT(options.grid.load_points <= 1024,
            "grids must fit the packed state (≤ 1024 points each)");
  obs::Span span("dp_free_bound", obs::kCatPlanner);
  FreeBoundSolver solver(chain, platform, options);
  const MadPipeDPBound bound = solver.run();
  span.arg("states", static_cast<long long>(bound.states));
  span.arg("budget_hit", bound.state_budget_hit ? 1 : 0);
  return bound;
}

namespace detail {

void reset_state_budget_warnings() noexcept {
  g_flat_budget_warned.store(false, std::memory_order_relaxed);
  g_reference_budget_warned.store(false, std::memory_order_relaxed);
  g_budget_warnings_emitted.store(0, std::memory_order_relaxed);
}

long long state_budget_warning_count() noexcept {
  return g_budget_warnings_emitted.load(std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace madpipe
