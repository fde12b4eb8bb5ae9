#include "cyclic/bb_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "obs/trace.hpp"
#include "util/expect.hpp"

namespace madpipe {

namespace {

struct CircleInterval {
  Seconds position;  ///< start on the circle, in [0, T)
  Seconds duration;
};

/// Search state for one resource: placed circle intervals, kept sorted.
using ResourceState = std::vector<CircleInterval>;

class Search {
 public:
  Search(const CyclicProblem& problem, const Allocation& allocation,
         const Chain& chain, const Platform& platform, Seconds period,
         const BBOptions& options)
      : problem_(problem),
        allocation_(allocation),
        chain_(chain),
        platform_(platform),
        period_(period),
        options_(options),
        eps_(1e-9 * period) {
    const std::size_t num_ops = problem.ops.size();
    // Dense resource ids, resolved once per op.
    std::map<ResourceId, int> resource_index;
    op_resource_.reserve(num_ops);
    for (const CyclicOp& op : problem.ops) {
      const auto it = resource_index.emplace(
          op.resource, static_cast<int>(resource_index.size())).first;
      op_resource_.push_back(it->second);
    }
    occupied_.resize(resource_index.size());
    z_.assign(num_ops, 0.0);
    candidates_.resize(num_ops);

    const Partitioning& parts = allocation.partitioning();
    const int num_stages = parts.num_stages();
    forward_shift_.assign(num_stages, 0);
    stage_bytes_.resize(num_stages);
    for (int s = 0; s < num_stages; ++s) {
      stage_bytes_[s] = parts.stage_stored_activations(chain, s);
    }
    const int procs = allocation.num_processors();
    static_memory_.resize(procs);
    resident_floor_.assign(procs, 0.0);
    proc_stages_.resize(procs);
    std::size_t most_stages = 0;
    for (int p = 0; p < procs; ++p) {
      static_memory_[p] = allocation.static_memory(chain, p);
      proc_stages_[p] = allocation.stages_on(p);
      most_stages = std::max(most_stages, proc_stages_[p].size());
    }
    max_inflight_.resize(most_stages);

    // The leaf pattern is built in place; the memory sweep reads each
    // stage's F/B op through these pointers into it.
    leaf_.period = period;
    leaf_.ops.resize(num_ops);
    leaf_fwd_.assign(num_stages, nullptr);
    leaf_bwd_.assign(num_stages, nullptr);
    for (std::size_t i = 0; i < num_ops; ++i) {
      const CyclicOp& op = problem.ops[i];
      if (op.kind == OpKind::Forward) {
        leaf_fwd_[op.stage] = &leaf_.ops[i];
        compute_ops_.push_back(i);
      } else if (op.kind == OpKind::Backward) {
        leaf_bwd_[op.stage] = &leaf_.ops[i];
        compute_ops_.push_back(i);
      } else {
        comm_ops_.push_back(i);
      }
    }
    for (int s = 0; s < num_stages; ++s) {
      MP_EXPECT(leaf_fwd_[s] != nullptr && leaf_bwd_[s] != nullptr,
                "cyclic problem misses a stage's F or B op");
    }
  }

  // leaf_fwd_/leaf_bwd_ point into leaf_: a copy would point into the
  // original.
  Search(const Search&) = delete;
  Search& operator=(const Search&) = delete;

  BBResult run() {
    BBResult result;
    if (try_compact_construction(result) || dfs(0, 0.0, result)) {
      result.feasible = true;
    }
    result.nodes_visited = nodes_;
    result.node_budget_hit = budget_hit_;
    result.leaves = leaves_;
    result.leaves_validated = leaves_validated_;
    return result;
  }

 private:
  long long shift_of(Seconds z) const {
    return static_cast<long long>(std::floor(z / period_ + 1e-9));
  }

  /// Free gaps on a resource circle, as (start, length) with start ∈ [0,T),
  /// written into `gaps_`. `state` is sorted by position; at most the last
  /// interval wraps past T, and disjointness guarantees the first interval
  /// starts after its tail.
  void free_gaps(const ResourceState& state) {
    gaps_.clear();
    if (state.empty()) {
      gaps_.push_back(CircleInterval{0.0, period_});
      return;
    }
    Seconds cursor = state.front().position + state.front().duration;
    for (std::size_t i = 1; i < state.size(); ++i) {
      const Seconds gap = state[i].position - cursor;
      if (gap > eps_) gaps_.push_back(CircleInterval{cursor, gap});
      cursor = std::max(cursor, state[i].position + state[i].duration);
    }
    // Wrap-around gap: from the last end back to the first start (+T).
    const Seconds wrap_gap = state.front().position + period_ - cursor;
    if (wrap_gap > eps_) {
      gaps_.push_back(CircleInterval{std::fmod(cursor, period_), wrap_gap});
    }
  }

  /// Earliest z ≥ ready whose circle position lies in [w0, w0+width]
  /// (width ≥ 0; the window may wrap past T).
  Seconds earliest_in_window(Seconds ready, Seconds w0, Seconds width) const {
    const Seconds r0 = std::fmod(ready, period_);
    const Seconds base = ready - r0;
    const Seconds w1 = w0 + width;
    if (w1 < period_ + eps_) {
      if (r0 <= w1 + eps_) return base + std::max(r0, w0);
      return base + period_ + w0;
    }
    // Wrapped window: [w0, T) ∪ [0, w1 − T].
    if (r0 >= w0 - eps_ || r0 <= (w1 - period_) + eps_) return ready;
    return base + w0;
  }

  /// Candidate virtual times of op `index`, sorted and deduplicated, in
  /// that depth's reused buffer.
  const std::vector<Seconds>& candidates(std::size_t index, Seconds ready) {
    const CyclicOp& op = problem_.ops[index];
    std::vector<Seconds>& zs = candidates_[index];
    zs.clear();
    if (op.duration <= eps_) {
      zs.push_back(ready);
      return zs;
    }
    free_gaps(occupied_[op_resource_[index]]);
    for (const CircleInterval& gap : gaps_) {
      if (gap.duration + eps_ < op.duration) continue;
      const Seconds slack = gap.duration - op.duration;
      // Earliest fit in the gap (memory-cheapest), plus the left- and
      // right-aligned placements: packing an op against a gap edge keeps
      // the remaining free space contiguous for later ops, which
      // earliest-fit alone can fragment.
      zs.push_back(earliest_in_window(ready, gap.position, slack));
      if (slack > eps_) {
        zs.push_back(earliest_in_window(ready, gap.position, 0.0));
        const Seconds right = std::fmod(gap.position + slack, period_);
        zs.push_back(earliest_in_window(ready, right, 0.0));
      }
    }
    std::sort(zs.begin(), zs.end());
    zs.erase(std::unique(zs.begin(), zs.end(),
                         [this](Seconds a, Seconds b) {
                           return std::abs(a - b) <= eps_;
                         }),
             zs.end());
    if (static_cast<int>(zs.size()) > options_.max_candidates_per_op) {
      zs.resize(static_cast<std::size_t>(options_.max_candidates_per_op));
    }
    return zs;
  }

  void place(std::size_t index, Seconds z) {
    const Seconds duration = problem_.ops[index].duration;
    if (duration <= eps_) return;
    ResourceState& state = occupied_[op_resource_[index]];
    const Seconds phi = std::fmod(z, period_);
    const auto it = std::lower_bound(
        state.begin(), state.end(), phi,
        [](const CircleInterval& iv, Seconds p) { return iv.position < p; });
    state.insert(it, CircleInterval{phi, duration});
  }

  void unplace(std::size_t index, Seconds z) {
    const Seconds duration = problem_.ops[index].duration;
    if (duration <= eps_) return;
    ResourceState& state = occupied_[op_resource_[index]];
    const Seconds phi = std::fmod(z, period_);
    const auto it = std::find_if(
        state.begin(), state.end(), [&](const CircleInterval& iv) {
          return std::abs(iv.position - phi) <= eps_ &&
                 std::abs(iv.duration - duration) <= eps_;
        });
    MP_ENSURE(it != state.end(), "unplace of an interval that is not placed");
    state.erase(it);
  }

  bool dfs(std::size_t index, Seconds ready, BBResult& result) {
    if (index == problem_.ops.size()) {
      return try_leaf(result);
    }
    if (nodes_ >= options_.max_nodes) {
      budget_hit_ = true;
      return false;
    }
    ++nodes_;

    const CyclicOp& op = problem_.ops[index];
    for (const Seconds z : candidates(index, ready)) {
      z_[index] = z;
      place(index, z);

      // Memory floor pruning once a stage's backward lands: in steady state
      // a stage whose shifts differ by δ = h_B − h_F keeps at least δ − 1
      // activations resident at all times (often δ).
      bool pruned = false;
      int touched_proc = -1;
      Bytes floor_delta = 0.0;
      if (op.kind == OpKind::Forward) {
        forward_shift_[op.stage] = shift_of(z);
      } else if (op.kind == OpKind::Backward) {
        const long long delta = shift_of(z) - forward_shift_[op.stage];
        if (delta < 0) {
          pruned = true;  // backward cannot trail forward by a negative lag
        } else {
          touched_proc = allocation_.processor_of(op.stage);
          floor_delta = static_cast<double>(std::max<long long>(0, delta - 1)) *
                        stage_bytes_[op.stage];
          resident_floor_[touched_proc] += floor_delta;
          if (static_memory_[touched_proc] + resident_floor_[touched_proc] >
              platform_.memory_per_processor * (1.0 + 1e-9)) {
            pruned = true;
          }
        }
      }

      if (!pruned && dfs(index + 1, z + op.duration, result)) {
        return true;
      }
      if (touched_proc >= 0) resident_floor_[touched_proc] -= floor_delta;
      unplace(index, z);
      if (budget_hit_) return false;
    }
    return false;
  }

  /// O(K) constructive attempt run before the search: pack every resource's
  /// ops back-to-back (in chain order) on the circle, then pick the minimal
  /// index shift satisfying each chain dependency. Resource exclusivity
  /// holds by construction whenever Σd ≤ T, and with unbounded shifts the
  /// chain is always satisfiable — so this certifies feasibility at the
  /// max-load period immediately whenever its (pipelining-deep) memory
  /// profile fits. When memory is tight it usually fails and the DFS takes
  /// over with its shift-minimizing placements.
  bool try_compact_construction(BBResult& result) {
    std::vector<Seconds> cursor(occupied_.size(), 0.0);
    Seconds ready = 0.0;
    for (std::size_t i = 0; i < problem_.ops.size(); ++i) {
      const CyclicOp& op = problem_.ops[i];
      Seconds& phi = cursor[op_resource_[i]];
      if (phi + op.duration > period_ * (1.0 + 1e-9)) return false;
      // Smallest z ≥ ready with z mod T == phi.
      const Seconds base = std::floor(ready / period_) * period_;
      Seconds z = base + phi;
      if (z < ready - eps_) z += period_;
      z_[i] = z;
      phi += op.duration;
      ready = z + op.duration;
    }
    return try_leaf(result);
  }

  /// Write op `i` of the leaf pattern from its virtual time.
  void set_leaf_op(std::size_t i) {
    const CyclicOp& op = problem_.ops[i];
    leaf_.ops[i] = PeriodicPattern::make_op(op.kind, op.stage, op.resource,
                                            z_[i], op.duration, period_);
  }

  /// The memory half of validate_pattern on the leaf's F/B ops: the same
  /// sweep_inflight call, static memory and `>` test against the same cap.
  /// False exactly when validate_pattern would report a memory failure.
  bool leaf_memory_fits() {
    for (std::size_t p = 0; p < proc_stages_.size(); ++p) {
      const std::vector<int>& stages = proc_stages_[p];
      completion_instants(leaf_fwd_, leaf_bwd_, stages, period_, instants_);
      const InflightPeak sweep = sweep_inflight(
          leaf_fwd_, leaf_bwd_, stages, stage_bytes_, instants_, period_,
          kTolerance, {max_inflight_.data(), stages.size()});
      if (!sweep.ok() ||
          static_memory_[p] + sweep.peak_activation_bytes > memory_cap_) {
        return false;
      }
    }
    return true;
  }

  /// A complete placement: reject it on memory alone when the sweep says
  /// so, otherwise let validate_pattern decide.
  bool try_leaf(BBResult& result) {
    ++leaves_;
    for (const std::size_t i : compute_ops_) set_leaf_op(i);
    if (!leaf_memory_fits()) return false;
    ++leaves_validated_;
    for (const std::size_t i : comm_ops_) set_leaf_op(i);
    if (!validate_pattern(leaf_, allocation_, chain_, platform_).valid) {
      return false;
    }
    result.pattern = leaf_;
    return true;
  }

  /// validate_pattern's default tolerance, which try_leaf validates with.
  static constexpr double kTolerance = ValidationOptions{}.tolerance;

  const CyclicProblem& problem_;
  const Allocation& allocation_;
  const Chain& chain_;
  const Platform& platform_;
  Seconds period_;
  BBOptions options_;
  double eps_;

  std::vector<int> op_resource_;  ///< dense resource id per op
  std::vector<ResourceState> occupied_;
  std::vector<Seconds> z_;
  std::vector<CircleInterval> gaps_;  ///< free_gaps output, reused
  std::vector<std::vector<Seconds>> candidates_;  ///< per depth
  std::vector<long long> forward_shift_;
  std::vector<Bytes> stage_bytes_;
  std::vector<Bytes> static_memory_;
  std::vector<Bytes> resident_floor_;

  // Leaf check.
  const Bytes memory_cap_ =
      platform_.memory_per_processor * (1.0 + kTolerance);
  std::vector<std::vector<int>> proc_stages_;
  std::vector<std::size_t> compute_ops_;  ///< F/B op indices
  std::vector<std::size_t> comm_ops_;
  PeriodicPattern leaf_;
  std::vector<const PatternOp*> leaf_fwd_;  ///< by stage, into leaf_.ops
  std::vector<const PatternOp*> leaf_bwd_;
  std::vector<Seconds> instants_;
  std::vector<int> max_inflight_;

  std::size_t nodes_ = 0;
  std::size_t leaves_ = 0;
  std::size_t leaves_validated_ = 0;
  bool budget_hit_ = false;
};

}  // namespace

BBResult bb_schedule(const CyclicProblem& problem, const Allocation& allocation,
                     const Chain& chain, const Platform& platform,
                     Seconds period, const BBOptions& options) {
  MP_EXPECT(period > 0.0, "period must be positive");
  // Categorized "solver": this branch-and-bound is the phase-2 scheduling
  // solver (the paper's ILP stand-in), the sibling of solver::solve_milp.
  obs::Span span("bb_probe", obs::kCatSolver);
  Search search(problem, allocation, chain, platform, period, options);
  BBResult result = search.run();
  span.arg("nodes", static_cast<long long>(result.nodes_visited));
  span.arg("leaves", static_cast<long long>(result.leaves));
  span.arg("budget_hit", result.node_budget_hit ? 1 : 0);
  span.arg("feasible", result.feasible ? 1 : 0);
  return result;
}

}  // namespace madpipe
