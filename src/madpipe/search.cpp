#include "madpipe/search.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/threading.hpp"

namespace madpipe {

namespace {

/// Exact-value cache key: probe results may only be reused for a target that
/// is bit-identical to the one the sequential search would request.
std::uint64_t target_key(Seconds target) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(target));
  std::memcpy(&bits, &target, sizeof(bits));
  return bits;
}

/// Speculative DP-probe runner for Algorithm 1, and keeper of the
/// memory-free bound T_free that certifies the early stop.
///
/// The bisection consumes probe results strictly in sequence, but each
/// iteration's *next* target is a deterministic function of the current
/// (lb, ub, target) and the probe outcome. Two outcomes lead to targets we
/// can predict without knowing dp.period exactly:
///
///   * infeasible (dp.period = ∞):  lb′ = max(lb, target), ub′ = ub
///   * feasible with dp.period ≤ lb: lb′ = lb, ub′ = min(ub, target)
///
/// (The remaining outcomes put dp.period itself into a bound, which no
/// speculation can guess.) When the search demands a target that is not yet
/// cached, we expand this two-outcome tree breadth-first into a batch of up
/// to W targets — using the very same floating-point expressions as the
/// real loop, so a predicted target is bit-identical to the demanded one —
/// and run the whole batch concurrently. Mispredicted probes are simply
/// never consumed; consumed results are identical to a sequential run for
/// every W.
///
/// When the search may stop early, the first batch is the demanded probe
/// alone: on every `plan_roomy` cell the first feasible probe moves ub to
/// its own period, which neither predicted outcome expects, and the stop
/// then usually ends the search. T_free is computed on first request, after
/// a consumed probe, at every W.
class ProbeRunner {
 public:
  ProbeRunner(const Chain& chain, const Platform& platform,
              const Phase1Options& options, int iterations_left_at_start,
              bool single_first_probe)
      : chain_(chain),
        platform_(platform),
        options_(options),
        width_(par::speculation_width(options.speculation)),
        budget_(iterations_left_at_start),
        single_first_probe_(single_first_probe) {}

  /// Result for `target`, launching a speculative batch on a cache miss.
  /// (lb, ub) is the search state *before* this probe; `consumed` is the
  /// number of probes the search has consumed so far.
  const MadPipeDPResult& demand(Seconds target, Seconds lb, Seconds ub,
                                int consumed) {
    const std::uint64_t key = target_key(target);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++stats_.phase1_speculative_hits;
      return it->second;
    }
    launch_batch(target, lb, ub, budget_ - consumed);
    const auto it = cache_.find(key);
    MP_ENSURE(it != cache_.end(), "demanded probe missing from its batch");
    return it->second;
  }

  /// T_free, or nullopt when its state budget ran out (no bound).
  std::optional<Seconds> period_bound() {
    if (!bound_.has_value()) {
      bound_ = madpipe_dp_memory_free_bound(chain_, platform_, options_.dp);
    }
    if (bound_->state_budget_hit) return std::nullopt;
    return bound_->period;
  }

  const PlannerStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    Seconds target;
    Seconds lb, ub;  ///< search state the probe would be issued from
    int depth;       ///< probes consumed before this one could be demanded
  };

  void launch_batch(Seconds target, Seconds lb, Seconds ub,
                    int iterations_left) {
    // Breadth-first over the two predictable outcomes, bounded by the
    // speculation width and the iterations the search can still consume.
    const int width = single_first_probe_ && cache_.empty() ? 1 : width_;
    std::vector<Pending> batch;
    batch.push_back({target, lb, ub, 0});
    for (std::size_t i = 0;
         i < batch.size() && batch.size() < static_cast<std::size_t>(width);
         ++i) {
      const Pending cur = batch[i];
      if (cur.depth + 1 >= iterations_left) continue;
      // Outcome A: infeasible probe. lb ← max(lb, min(∞, T̂)) = max(lb, T̂).
      {
        const Seconds nlb = std::max(cur.lb, cur.target);
        const Seconds nub = cur.ub;
        maybe_push(batch, nlb, nub, cur.depth + 1);
      }
      if (batch.size() >= static_cast<std::size_t>(width)) break;
      // Outcome B: feasible with dp.period ≤ lb. lb unchanged,
      // ub ← min(ub, max(dp.period, T̂)) = min(ub, T̂).
      {
        const Seconds nlb = cur.lb;
        const Seconds nub = std::min(cur.ub, cur.target);
        maybe_push(batch, nlb, nub, cur.depth + 1);
      }
    }

    std::vector<MadPipeDPResult> results(batch.size());
    const std::size_t workers =
        options_.workers != 0
            ? std::min<std::size_t>(options_.workers, batch.size())
            : batch.size();
    par::parallel_for(
        0, batch.size(),
        [&](std::size_t i) {
          results[i] =
              madpipe_dp(chain_, platform_, batch[i].target, options_.dp);
        },
        workers);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      stats_.absorb(results[i].stats);
      cache_.emplace(target_key(batch[i].target), std::move(results[i]));
    }
    stats_.phase1_speculative_probes +=
        static_cast<long long>(batch.size()) - 1;
  }

  void maybe_push(std::vector<Pending>& batch, Seconds lb, Seconds ub,
                  int depth) {
    if (ub <= lb * (1.0 + 1e-9)) return;  // the search would stop here
    const Seconds next = 0.5 * (lb + ub);  // the loop's exact expression
    const std::uint64_t key = target_key(next);
    if (cache_.count(key)) return;
    for (const Pending& p : batch) {
      if (target_key(p.target) == key) return;
    }
    batch.push_back({next, lb, ub, depth});
  }

  const Chain& chain_;
  const Platform& platform_;
  const Phase1Options& options_;
  const int width_;
  const int budget_;
  const bool single_first_probe_;
  std::optional<MadPipeDPBound> bound_;
  std::unordered_map<std::uint64_t, MadPipeDPResult> cache_;
  PlannerStats stats_;
};

}  // namespace

Phase1Result madpipe_phase1(const Chain& chain, const Platform& platform,
                            const Phase1Options& options) {
  platform.validate();
  MP_EXPECT(options.iterations >= 1, "need at least one search iteration");
  obs::Span span("phase1_bisection", obs::kCatPlanner);
  const auto t0 = std::chrono::steady_clock::now();

  Seconds lb = chain.total_compute() / platform.processors;
  Seconds ub = chain.total_compute();
  for (int j = 1; j < chain.length(); ++j) {
    ub += platform.boundary_comm_time(chain, j);
  }

  Phase1Result result;
  result.period = std::numeric_limits<double>::infinity();

  // Certified early stop (DESIGN.md §7): every iterate achieves at least
  // T_free, and only a strictly smaller one replaces the incumbent, so once
  // the incumbent reaches T_free the remaining probes cannot change the
  // result. Callers that keep every iterate's allocation consume the rest.
  const bool may_stop = !options.keep_iterate_allocations;
  ProbeRunner runner(chain, platform, options, options.iterations, may_stop);
  bool early_stop = false;

  Seconds target = lb;
  for (int i = 0; i < options.iterations; ++i) {
    const MadPipeDPResult& dp = runner.demand(target, lb, ub, i);
    const Seconds achieved = std::max(dp.period, target);
    result.trace.push_back(
        {target, achieved,
         options.keep_iterate_allocations ? dp.allocation : std::nullopt});
    log::debug("phase1 iteration ", i, ": target=", target,
               " achieved=", achieved);

    if (achieved < result.period && dp.allocation.has_value()) {
      result.period = achieved;
      result.allocation = dp.allocation;
      result.uses_special = dp.uses_special;
    }

    lb = std::max(lb, std::min(dp.period, target));
    ub = std::min(ub, achieved);
    if (ub <= lb * (1.0 + 1e-9)) break;  // search interval collapsed
    if (may_stop && i + 1 < options.iterations) {
      const std::optional<Seconds> bound = runner.period_bound();
      if (bound.has_value() && result.period <= *bound) {
        early_stop = true;
        break;
      }
    }
    target = 0.5 * (lb + ub);
  }
  span.arg("probes", static_cast<long long>(result.trace.size()));
  span.arg("early_stop", early_stop ? 1 : 0);
  result.stats = runner.stats();
  result.stats.phase1_probes = static_cast<long long>(result.trace.size());
  result.stats.phase1_early_stops = early_stop ? 1 : 0;
  result.stats.phase1_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace madpipe
