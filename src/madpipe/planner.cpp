#include "madpipe/planner.hpp"

#include <algorithm>
#include <chrono>

#include "obs/trace.hpp"
#include "schedule/one_f_one_b.hpp"
#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/threading.hpp"

namespace madpipe {

namespace {

/// Phase 2 for one allocation: 1F1B* when contiguous (provably
/// memory-optimal), the cyclic search otherwise. `phase1_period` is the
/// period lower bound argued in §4.2.3. `stats` receives this candidate's
/// period-search counters (zero for the search-free contiguous path).
std::optional<Plan> schedule_allocation(const Allocation& allocation,
                                        const Chain& chain,
                                        const Platform& platform,
                                        Seconds phase1_period,
                                        const PeriodSearchOptions& options,
                                        PlannerStats& stats) {
  if (allocation.contiguous()) {
    return plan_one_f_one_b(allocation, chain, platform);
  }
  const PeriodSearchResult phase2 =
      find_min_period(allocation, chain, platform, phase1_period, options);
  stats.phase2_probes = phase2.probes;
  stats.phase2_speculative_probes = phase2.speculative_probes;
  stats.phase2_speculative_hits = phase2.speculative_hits;
  stats.phase2_cancelled_probes = phase2.cancelled_probes;
  stats.phase2_bb_nodes = phase2.bb_nodes;
  stats.phase2_bb_leaves = phase2.bb_leaves;
  stats.phase2_budget_hits = phase2.budget_hit_probes;
  stats.phase2_wall_seconds = phase2.wall_seconds;
  if (!phase2.feasible) return std::nullopt;
  return Plan{"madpipe", allocation, phase2.pattern, 0.0, 0.0};
}

}  // namespace

std::optional<Plan> plan_madpipe(const Chain& chain, const Platform& platform,
                                 const MadPipeOptions& options) {
  MP_EXPECT(options.schedule_best_of >= 1, "schedule_best_of must be >= 1");
  obs::Span span("plan_madpipe", obs::kCatPlanner);
  const auto start_time = std::chrono::steady_clock::now();

  Phase1Options phase1_options = options.phase1;
  if (options.disable_special_processor) {
    phase1_options.dp.allow_special = false;
  }
  if (options.schedule_best_of > 1) {
    phase1_options.keep_iterate_allocations = true;
  }
  const Phase1Result phase1 = madpipe_phase1(chain, platform, phase1_options);
  if (!phase1.feasible()) {
    log::info("MadPipe phase 1 found no memory-feasible allocation");
    phase1.stats.publish();
    return std::nullopt;
  }

  // Candidate allocations to schedule: the best iterate (paper behaviour),
  // plus — with the schedule_best_of extension — the next best distinct ones.
  std::vector<std::pair<Seconds, const Allocation*>> candidates;
  candidates.emplace_back(phase1.period, &*phase1.allocation);
  if (options.schedule_best_of > 1) {
    std::vector<const Phase1Iteration*> iterates;
    for (const Phase1Iteration& it : phase1.trace) {
      if (it.allocation.has_value()) iterates.push_back(&it);
    }
    std::sort(iterates.begin(), iterates.end(),
              [](const Phase1Iteration* a, const Phase1Iteration* b) {
                return a->achieved < b->achieved;
              });
    for (const Phase1Iteration* it : iterates) {
      if (static_cast<int>(candidates.size()) >= options.schedule_best_of) break;
      const bool duplicate = std::any_of(
          candidates.begin(), candidates.end(),
          [&](const auto& c) { return *c.second == *it->allocation; });
      if (!duplicate) candidates.emplace_back(it->achieved, &*it->allocation);
    }
  }

  // Each candidate's phase 2 is independent: schedule them concurrently and
  // fold sequentially afterwards, so the winner (first strictly-smaller
  // period in candidate order) is the one the sequential loop would pick.
  std::vector<std::optional<Plan>> plans(candidates.size());
  std::vector<PlannerStats> phase2_stats(candidates.size());
  const std::size_t workers =
      options.workers != 0
          ? std::min<std::size_t>(options.workers, candidates.size())
          : candidates.size();
  par::parallel_for(
      0, candidates.size(),
      [&](std::size_t i) {
        plans[i] = schedule_allocation(*candidates[i].second, chain, platform,
                                       candidates[i].first, options.phase2,
                                       phase2_stats[i]);
      },
      workers);

  PlannerStats stats = phase1.stats;
  std::optional<Plan> best;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    stats.absorb(phase2_stats[i]);
    if (plans[i] && (!best || plans[i]->period() < best->period())) {
      best = std::move(plans[i]);
    }
  }
  if (!best) {
    log::info("MadPipe phase 2 could not schedule any phase-1 allocation");
    stats.publish();
    return std::nullopt;
  }

  best->planner = options.disable_special_processor ? "madpipe-contig"
                                                    : "madpipe";
  best->phase1_period = phase1.period;
  best->planning_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  best->stats = stats;
  span.arg("dp_states", stats.dp_states);
  stats.publish();
  return best;
}

}  // namespace madpipe
