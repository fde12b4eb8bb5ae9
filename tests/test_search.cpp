#include "madpipe/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "cyclic/period_search.hpp"
#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "schedule/one_f_one_b.hpp"

namespace madpipe {
namespace {

Phase1Options quick_options() {
  Phase1Options options;
  options.dp.grid = Discretization::coarse();
  return options;
}

TEST(Phase1, FindsBalancedSolutionWithAmpleMemory) {
  const Chain c = make_uniform_chain(8, ms(5), ms(10), MB, MB, MB);
  const Platform p{4, 1e6 * GB, 1e6 * GB};
  const auto result = madpipe_phase1(c, p, quick_options());
  ASSERT_TRUE(result.feasible());
  EXPECT_NEAR(result.period, ms(30), ms(1.5));
}

TEST(Phase1, TraceRecordsEveryIteration) {
  const Chain c = make_uniform_chain(8, ms(5), ms(10), MB, 20 * MB, MB);
  const Platform p{4, 4 * GB, 12 * GB};
  Phase1Options options = quick_options();
  options.iterations = 6;
  const auto result = madpipe_phase1(c, p, options);
  EXPECT_LE(result.trace.size(), 6u);
  EXPECT_GE(result.trace.size(), 1u);
}

TEST(Phase1, BestPeriodIsMinOfTrace) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), 5 * MB, 60 * MB, MB);
  const Platform p{4, 2 * GB, 12 * GB};
  const auto result = madpipe_phase1(c, p, quick_options());
  ASSERT_TRUE(result.feasible());
  Seconds min_achieved = std::numeric_limits<double>::infinity();
  for (const auto& it : result.trace) {
    min_achieved = std::min(min_achieved, it.achieved);
  }
  EXPECT_DOUBLE_EQ(result.period, min_achieved);
}

TEST(Phase1, AchievedAlwaysAtLeastTarget) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), 5 * MB, 60 * MB, MB);
  const Platform p{4, 2 * GB, 12 * GB};
  const auto result = madpipe_phase1(c, p, quick_options());
  for (const auto& it : result.trace) {
    EXPECT_GE(it.achieved, it.target - 1e-12);
  }
}

TEST(Phase1, InfeasibleWhenMemoryHopeless) {
  const Chain c = make_uniform_chain(6, ms(2), ms(4), GB, 100 * MB, MB);
  const Platform p{2, GB, 12 * GB};
  const auto result = madpipe_phase1(c, p, quick_options());
  EXPECT_FALSE(result.feasible());
  EXPECT_TRUE(std::isinf(result.period));
}

TEST(Phase1, KeepsIterateAllocationsOnRequest) {
  const Chain c = make_uniform_chain(8, ms(2), ms(4), 5 * MB, 40 * MB, MB);
  const Platform p{3, 2 * GB, 12 * GB};
  Phase1Options options = quick_options();
  options.keep_iterate_allocations = true;
  const auto result = madpipe_phase1(c, p, options);
  ASSERT_TRUE(result.feasible());
  bool any = false;
  for (const auto& it : result.trace) {
    if (it.allocation.has_value()) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(Phase1, IterateAllocationsOmittedByDefault) {
  const Chain c = make_uniform_chain(8, ms(2), ms(4), 5 * MB, 40 * MB, MB);
  const Platform p{3, 2 * GB, 12 * GB};
  const auto result = madpipe_phase1(c, p, quick_options());
  for (const auto& it : result.trace) {
    EXPECT_FALSE(it.allocation.has_value());
  }
}

TEST(Phase1, MorePressureNeverImprovesPeriod) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), 10 * MB, 80 * MB, MB);
  Seconds previous = -1.0;
  for (const double mem_gb : {8.0, 4.0, 2.0, 1.2}) {
    const Platform p{4, mem_gb * GB, 12 * GB};
    const auto result = madpipe_phase1(c, p, quick_options());
    if (!result.feasible()) break;
    if (previous >= 0.0) {
      EXPECT_GE(result.period, previous * (1.0 - 0.05)) << mem_gb;
    }
    previous = result.period;
  }
}

/// The full K-probe search: keep_iterate_allocations turns the early stop
/// off and changes nothing else the search computes.
Phase1Result full_search(const Chain& chain, const Platform& platform,
                         Phase1Options options) {
  options.keep_iterate_allocations = true;
  return madpipe_phase1(chain, platform, options);
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(Phase1, MemoryFreeBoundBelowEveryProbe) {
  for (const std::string& name : models::list_networks()) {
    const Chain chain = models::paper_network(name);
    for (const int processors : {2, 4, 8}) {
      for (const double memory_gb : {3.0, 5.0, 8.0, 16.0, 24.0}) {
        const Platform platform{processors, memory_gb * GB, 12 * GB};
        for (const bool allow_special : {true, false}) {
          Phase1Options options = quick_options();
          options.dp.allow_special = allow_special;
          const MadPipeDPBound bound =
              madpipe_dp_memory_free_bound(chain, platform, options.dp);
          ASSERT_FALSE(bound.state_budget_hit);
          options.speculation = 1;
          const Phase1Result full = full_search(chain, platform, options);
          for (std::size_t i = 0; i < full.trace.size(); ++i) {
            const Phase1Iteration& iterate = full.trace[i];
            for (const DpEngine engine :
                 {DpEngine::FlatIterative, DpEngine::ReferenceRecursive}) {
              // The reference engine is bit-identical to the flat one
              // (PlannerFastPath.*) and 10-20x slower: it checks the
              // first and the last target of each trace.
              if (engine == DpEngine::ReferenceRecursive && i != 0 &&
                  i + 1 != full.trace.size()) {
                continue;
              }
              MadPipeDPOptions dp = options.dp;
              dp.engine = engine;
              const MadPipeDPResult probe =
                  madpipe_dp(chain, platform, iterate.target, dp);
              EXPECT_LE(bound.period, probe.period)
                  << name << " P=" << processors << " M=" << memory_gb
                  << " special=" << allow_special << " target="
                  << iterate.target << " engine=" << static_cast<int>(engine);
            }
          }
        }
      }
    }
  }
}

TEST(Phase1, EarlyStopKeepsResultBitIdentical) {
  int stopped = 0, ran_out = 0;
  for (const std::string& name : {std::string("resnet50"),
                                  std::string("densenet121")}) {
    const Chain chain = models::paper_network(name);
    for (const int processors : {2, 4, 8}) {
      for (const double memory_gb : {3.0, 5.0, 8.0, 24.0}) {
        const Platform platform{processors, memory_gb * GB, 12 * GB};
        const std::string label = name + " P=" + std::to_string(processors) +
                                  " M=" + std::to_string(memory_gb);
        const Phase1Result full =
            full_search(chain, platform, quick_options());
        const Phase1Result early =
            madpipe_phase1(chain, platform, quick_options());
        EXPECT_EQ(bits(early.period), bits(full.period)) << label;
        ASSERT_EQ(early.feasible(), full.feasible()) << label;
        if (full.feasible()) {
          EXPECT_TRUE(*early.allocation == *full.allocation) << label;
        }
        EXPECT_EQ(early.uses_special, full.uses_special) << label;
        // The early trace is an exact prefix of the full one, shorter
        // exactly when the stop fired.
        ASSERT_LE(early.trace.size(), full.trace.size()) << label;
        for (std::size_t i = 0; i < early.trace.size(); ++i) {
          EXPECT_EQ(bits(early.trace[i].target), bits(full.trace[i].target))
              << label << " iterate " << i;
          EXPECT_EQ(bits(early.trace[i].achieved),
                    bits(full.trace[i].achieved))
              << label << " iterate " << i;
        }
        EXPECT_EQ(early.stats.phase1_early_stops,
                  early.trace.size() < full.trace.size() ? 1 : 0)
            << label;
        EXPECT_EQ(full.stats.phase1_early_stops, 0) << label;
        EXPECT_EQ(early.stats.phase1_probes,
                  static_cast<long long>(early.trace.size()));
        ++(early.stats.phase1_early_stops == 1 ? stopped : ran_out);
        if (!full.feasible()) continue;

        // plan_madpipe's schedule equals phase 2 run on the full search's
        // allocation, op for op.
        MadPipeOptions plan_options;
        plan_options.phase1 = quick_options();
        const auto plan = plan_madpipe(chain, platform, plan_options);
        std::optional<Plan> reference;
        if (full.allocation->contiguous()) {
          reference = plan_one_f_one_b(*full.allocation, chain, platform);
        } else {
          const PeriodSearchResult phase2 = find_min_period(
              *full.allocation, chain, platform, full.period);
          if (phase2.feasible) {
            reference = Plan{"madpipe", *full.allocation, phase2.pattern,
                             0.0, 0.0, {}};
          }
        }
        ASSERT_EQ(plan.has_value(), reference.has_value()) << label;
        if (!plan) continue;
        EXPECT_EQ(bits(plan->phase1_period), bits(full.period)) << label;
        EXPECT_EQ(bits(plan->period()), bits(reference->period())) << label;
        ASSERT_EQ(plan->pattern.ops.size(), reference->pattern.ops.size())
            << label;
        for (std::size_t i = 0; i < plan->pattern.ops.size(); ++i) {
          const PatternOp& op = plan->pattern.ops[i];
          const PatternOp& base = reference->pattern.ops[i];
          EXPECT_EQ(op.kind, base.kind) << label << " op " << i;
          EXPECT_EQ(op.stage, base.stage) << label << " op " << i;
          EXPECT_EQ(bits(op.start), bits(base.start)) << label << " op " << i;
          EXPECT_EQ(op.shift, base.shift) << label << " op " << i;
        }
      }
    }
  }
  // The grid must exercise both outcomes.
  EXPECT_GT(stopped, 0);
  EXPECT_GT(ran_out, 0);
}

TEST(Phase1, EarlyStopOffWhenIterateAllocationsKept) {
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 24 * GB, 12 * GB};
  const Phase1Result early = madpipe_phase1(chain, platform, quick_options());
  ASSERT_EQ(early.stats.phase1_early_stops, 1);
  const Phase1Result full = full_search(chain, platform, quick_options());
  EXPECT_EQ(full.stats.phase1_early_stops, 0);
  EXPECT_GT(full.trace.size(), early.trace.size());
  for (const Phase1Iteration& iterate : full.trace) {
    EXPECT_TRUE(iterate.allocation.has_value() ||
                std::isinf(iterate.achieved));
  }
}

TEST(Phase1, MemoryFreeBoundReportsItsStateBudget) {
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};
  MadPipeDPOptions dp = quick_options().dp;
  dp.max_states = 4;
  EXPECT_TRUE(madpipe_dp_memory_free_bound(chain, platform, dp)
                  .state_budget_hit);
  // Without a bound there is no stop: the full search runs.
  Phase1Options options = quick_options();
  options.dp.max_states = 4;
  const Phase1Result result = madpipe_phase1(chain, platform, options);
  EXPECT_EQ(result.stats.phase1_early_stops, 0);
  EXPECT_EQ(result.stats.dp_bound_cuts, 0);

  // Heavy activations keep every probe small while the relaxation, which
  // ignores them, needs more states: a budget between the two trips only
  // the relaxation. Its table is then dropped, so the probes run without
  // cuts and the search without its stop, and the plan stays the same.
  const Chain heavy = make_uniform_chain(16, ms(2), ms(4), 5 * MB,
                                         200 * MB, MB);
  const Platform small{2, 2 * GB, 12 * GB};
  Phase1Options heavy_options = quick_options();
  heavy_options.speculation = 1;
  const Phase1Result guided = madpipe_phase1(heavy, small, heavy_options);
  ASSERT_TRUE(guided.feasible());
  ASSERT_GT(guided.stats.dp_bound_cuts, 0);
  const Phase1Result full = full_search(heavy, small, heavy_options);
  std::size_t probe_states = 0;
  for (const Phase1Iteration& iterate : full.trace) {
    probe_states = std::max(
        probe_states,
        madpipe_dp(heavy, small, iterate.target, heavy_options.dp)
            .states_visited);
  }
  heavy_options.dp.max_states = probe_states;
  ASSERT_TRUE(madpipe_dp_memory_free_bound(heavy, small, heavy_options.dp)
                  .state_budget_hit);

  const Phase1Result unguided = madpipe_phase1(heavy, small, heavy_options);
  EXPECT_EQ(unguided.stats.state_budget_hits, 0);
  EXPECT_EQ(unguided.stats.dp_bound_cuts, 0);
  EXPECT_EQ(unguided.stats.phase1_early_stops, 0);
  EXPECT_EQ(unguided.trace.size(), full.trace.size());
  EXPECT_EQ(bits(unguided.period), bits(guided.period));
  ASSERT_TRUE(unguided.feasible());
  EXPECT_TRUE(*unguided.allocation == *guided.allocation);
  EXPECT_EQ(unguided.uses_special, guided.uses_special);
}

}  // namespace
}  // namespace madpipe
