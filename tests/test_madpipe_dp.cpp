#include "madpipe/dp.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/memory_model.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"
#include "util/expect.hpp"

namespace madpipe {
namespace {

MadPipeDPOptions fine_grid() {
  MadPipeDPOptions options;
  options.grid = Discretization{201, 41, 101, RoundingMode::Nearest};
  return options;
}

TEST(MadPipeDP, UniformChainUnlimitedMemory) {
  const Chain c = make_uniform_chain(8, ms(5), ms(10), MB, MB, MB);
  const Platform p{4, 1e6 * GB, 1e6 * GB};
  const auto result = madpipe_dp(c, p, c.total_compute() / 4, fine_grid());
  ASSERT_TRUE(result.allocation.has_value());
  // Perfect balance: 2 layers per processor, 30 ms.
  EXPECT_NEAR(result.period, ms(30), ms(0.5));
}

TEST(MadPipeDP, AllocationCoversChainExactly) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), MB, 10 * MB, MB);
  const Platform p{3, 10 * GB, 12 * GB};
  const auto result = madpipe_dp(c, p, c.total_compute() / 3, fine_grid());
  ASSERT_TRUE(result.allocation.has_value());
  const Partitioning& parts = result.allocation->partitioning();
  EXPECT_EQ(parts.stage(0).first, 1);
  EXPECT_EQ(parts.stage(parts.num_stages() - 1).last, 10);
}

TEST(MadPipeDP, NormalProcessorsHoldOneStage) {
  const Chain c = make_uniform_chain(12, ms(2), ms(4), MB, 20 * MB, MB);
  const Platform p{4, 2 * GB, 12 * GB};
  const auto result = madpipe_dp(c, p, c.total_compute() / 4, fine_grid());
  ASSERT_TRUE(result.allocation.has_value());
  for (int proc = 0; proc + 1 < p.processors; ++proc) {
    EXPECT_LE(result.allocation->stages_on(proc).size(), 1u) << proc;
  }
}

TEST(MadPipeDP, InfeasibleWhenWeightsDoNotFit) {
  const Chain c = make_uniform_chain(4, ms(5), ms(5), GB, MB, MB);
  const Platform p{2, GB, 12 * GB};
  const auto result = madpipe_dp(c, p, ms(20), fine_grid());
  EXPECT_FALSE(result.allocation.has_value());
  EXPECT_TRUE(std::isinf(result.period));
}

TEST(MadPipeDP, PeriodNonIncreasingInTargetPeriod) {
  // §4.2.3: MadPipe-DP(T̂) is non-increasing in T̂.
  const Chain c = make_uniform_chain(10, ms(2), ms(4), 10 * MB, 150 * MB, MB);
  const Platform p{4, 1.8 * GB, 12 * GB};
  double previous = std::numeric_limits<double>::infinity();
  for (double factor = 0.25; factor <= 3.0; factor *= 1.3) {
    const auto result =
        madpipe_dp(c, p, factor * c.total_compute() / 4, fine_grid());
    EXPECT_LE(result.period, previous * (1.0 + 1e-6)) << factor;
    previous = result.period;
  }
}

TEST(MadPipeDP, PeriodAtLeastLoadLowerBound) {
  const Chain c = make_uniform_chain(9, ms(3), ms(6), MB, 30 * MB, MB);
  const Platform p{3, 4 * GB, 12 * GB};
  const auto result = madpipe_dp(c, p, c.total_compute() / 3, fine_grid());
  ASSERT_TRUE(result.allocation.has_value());
  EXPECT_GE(result.period, c.total_compute() / 3 - 1e-9);
}

TEST(MadPipeDP, MatchesBruteForceOnTinyInstance) {
  // Exhaustive check of the recurrence on a 4-layer, 2-processor instance:
  // enumerate every partitioning and normal/special assignment, evaluate it
  // with the same (undiscretized) cost rules, and compare.
  const Chain c = make_uniform_chain(4, ms(4), ms(8), 5 * MB, 25 * MB, MB);
  const Platform p{2, 0.6 * GB, 12 * GB};
  const Seconds target = 0.6 * c.total_compute();

  // Brute force: stages are contiguous; assignment maps each stage to the
  // one normal processor (at most one stage) or the special one.
  double best = std::numeric_limits<double>::infinity();
  const int L = c.length();
  for (int mask = 0; mask < (1 << (L - 1)); ++mask) {
    std::vector<Stage> stages;
    int first = 1;
    for (int l = 1; l <= L; ++l) {
      if (l == L || (mask & (1 << (l - 1)))) {
        stages.push_back({first, l});
        first = l + 1;
      }
    }
    const int n = static_cast<int>(stages.size());
    for (int assign = 0; assign < (1 << n); ++assign) {
      int normals = 0;
      for (int s = 0; s < n; ++s) {
        if (!(assign & (1 << s))) ++normals;
      }
      if (normals > 1) continue;  // P−1 = 1 normal processor

      // Evaluate with exact delays, walking from the end of the chain.
      Seconds delay = 0.0;
      Seconds special_load = 0.0;
      Bytes special_memory = 0.0;
      double period = 0.0;
      bool feasible = true;
      for (int s = n - 1; s >= 0 && feasible; --s) {
        const Stage& st = stages[static_cast<std::size_t>(s)];
        const int g = activation_count(c, st.first, st.last, delay, target);
        const Seconds link =
            st.first > 1 ? p.boundary_comm_time(c, st.first - 1) : 0.0;
        if (assign & (1 << s)) {  // special
          special_load += c.compute_load(st.first, st.last);
          special_memory += stage_memory(c, st.first, st.last, g - 1);
          if (special_memory > p.memory_per_processor) feasible = false;
          period = std::max({period, special_load, link});
        } else {  // normal
          if (stage_memory(c, st.first, st.last, g) > p.memory_per_processor) {
            feasible = false;
          }
          period = std::max(
              {period, c.compute_load(st.first, st.last), link});
        }
        delay = delay_advance(
            delay_advance(delay, c.compute_load(st.first, st.last), target),
            link, target);
      }
      period = std::max(period, special_load);
      if (feasible) best = std::min(best, period);
    }
  }

  MadPipeDPOptions options;
  options.grid = Discretization{801, 401, 801, RoundingMode::Nearest};
  const auto result = madpipe_dp(c, p, target, options);
  ASSERT_TRUE(std::isfinite(best));
  EXPECT_NEAR(result.period, best, best * 0.02);
}

TEST(MadPipeDP, SpecialDisabledGivesContiguous) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), MB, 50 * MB, MB);
  const Platform p{3, 2 * GB, 12 * GB};
  MadPipeDPOptions options = fine_grid();
  options.allow_special = false;
  const auto result = madpipe_dp(c, p, c.total_compute() / 3, options);
  ASSERT_TRUE(result.allocation.has_value());
  EXPECT_TRUE(result.allocation->contiguous());
  EXPECT_FALSE(result.uses_special);
}

TEST(MadPipeDP, ValidatesInputs) {
  const Chain c = make_uniform_chain(4, ms(1), ms(1), MB, MB, MB);
  const Platform p{2, GB, 12 * GB};
  EXPECT_THROW(madpipe_dp(c, p, 0.0), ContractViolation);
  MadPipeDPOptions options;
  options.grid.load_points = 5000;
  EXPECT_THROW(madpipe_dp(c, p, ms(1), options), ContractViolation);
}

TEST(MadPipeDP, DelayVariantsBothProduceValidAllocations) {
  const Chain c = make_uniform_chain(8, ms(3), ms(6), MB, 80 * MB, MB);
  const Platform p{3, 1.5 * GB, 12 * GB};
  for (const auto variant : {DelayCommVariant::BoundaryConsistent,
                             DelayCommVariant::PaperLiteral}) {
    MadPipeDPOptions options = fine_grid();
    options.delay_comm_variant = variant;
    const auto result = madpipe_dp(c, p, c.total_compute() / 3, options);
    EXPECT_TRUE(result.allocation.has_value());
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(MadPipeDP, BoundGuidedProbeMatchesUnguided) {
  // The T_free table only skips candidates that cannot beat the incumbent:
  // at every target of the full K-probe search, the guided probe returns the
  // unguided probe's period, allocation and special flag, and evaluates no
  // more states. The first and last targets are also checked against the
  // reference engine, which never prunes.
  long long cuts = 0;
  for (const std::string& name : models::list_networks()) {
    const Chain chain = models::paper_network(name);
    for (const int processors : {2, 4, 8}) {
      for (const double memory_gb : {3.0, 5.0, 8.0, 16.0, 24.0}) {
        const Platform platform{processors, memory_gb * GB, 12 * GB};
        for (const bool allow_special : {true, false}) {
          Phase1Options search;
          search.dp.grid = Discretization::coarse();
          search.dp.allow_special = allow_special;
          search.keep_iterate_allocations = true;  // all K targets
          search.speculation = 1;
          const MadPipeDPBound bound =
              madpipe_dp_memory_free_bound(chain, platform, search.dp);
          ASSERT_FALSE(bound.state_budget_hit);
          const Phase1Result full = madpipe_phase1(chain, platform, search);
          for (std::size_t i = 0; i < full.trace.size(); ++i) {
            const Seconds target = full.trace[i].target;
            const std::string label =
                name + " P=" + std::to_string(processors) +
                " M=" + std::to_string(memory_gb) +
                " special=" + std::to_string(allow_special) +
                " target=" + std::to_string(target);
            const MadPipeDPResult guided =
                madpipe_dp(chain, platform, target, search.dp, &bound);
            const MadPipeDPResult unguided =
                madpipe_dp(chain, platform, target, search.dp);
            EXPECT_EQ(bits(guided.period), bits(unguided.period)) << label;
            ASSERT_EQ(guided.allocation.has_value(),
                      unguided.allocation.has_value())
                << label;
            if (guided.allocation) {
              EXPECT_TRUE(*guided.allocation == *unguided.allocation) << label;
            }
            EXPECT_EQ(guided.uses_special, unguided.uses_special) << label;
            EXPECT_LE(guided.states_visited, unguided.states_visited) << label;
            EXPECT_EQ(unguided.stats.dp_bound_cuts, 0) << label;
            cuts += guided.stats.dp_bound_cuts;
            if (i != 0 && i + 1 != full.trace.size()) continue;
            MadPipeDPOptions reference_options = search.dp;
            reference_options.engine = DpEngine::ReferenceRecursive;
            const MadPipeDPResult reference =
                madpipe_dp(chain, platform, target, reference_options, &bound);
            EXPECT_EQ(bits(guided.period), bits(reference.period)) << label;
            ASSERT_EQ(guided.allocation.has_value(),
                      reference.allocation.has_value())
                << label;
            if (guided.allocation) {
              EXPECT_TRUE(*guided.allocation == *reference.allocation)
                  << label;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cuts, 0);  // the grid must exercise the cut
}

TEST(MadPipeDP, ScanEndKeepsEveryState) {
  // The monotone scan end skips only candidates whose floors already reach
  // the incumbent, which pushed no child before it either: a probe without
  // the T_free table memoizes exactly the states it did before the scan end
  // existed. The counts were taken from that earlier engine.
  struct Cell {
    const char* network;
    int layers;
    int processors;
    double memory_gb;
    double target_factor;  ///< target = factor · U(1,L) / P
    bool allow_special;
    std::size_t states;
  };
  const Cell cells[] = {
      {"gpt2-xl", 48, 8, 20.0, 1.0, true, 37206},
      {"resnet50", 0, 8, 5.0, 2.0, true, 10436},
      {"densenet121", 24, 4, 7.0, 1.0, true, 8700},
      {"gpt2-xl", 48, 8, 20.0, 1.0, false, 744},
  };
  for (const Cell& cell : cells) {
    models::NetworkConfig config;
    config.network = cell.network;
    config.chain_length = cell.layers;
    const Chain chain = models::build_network(config);
    const Platform platform{cell.processors, cell.memory_gb * GB, 12 * GB};
    MadPipeDPOptions options;
    options.grid = Discretization::coarse();
    options.allow_special = cell.allow_special;
    const MadPipeDPResult result = madpipe_dp(
        chain, platform,
        cell.target_factor * chain.total_compute() / cell.processors, options);
    EXPECT_TRUE(result.allocation.has_value()) << cell.network;
    EXPECT_EQ(result.states_visited, cell.states)
        << cell.network << " P=" << cell.processors << " special="
        << cell.allow_special;
  }
}

TEST(MadPipeDP, SixtyFourGpusWithoutSpecialStageUsesAllSevenProcessorBits) {
  // With the special stage disabled the root state carries p = P itself, so
  // P = 64 needs the seventh bit of the packed processor field (planner
  // phase 1 always runs with allow_special = false). A 6-bit field would
  // alias the root onto (l + 1, p = 0).
  const Chain chain =
      make_uniform_chain(96, ms(2), ms(4), 32 * MB, 8 * MB, MB, "wide");
  const Platform platform{64, 4 * GB, 12 * GB};
  const Seconds target = chain.total_compute() / 64;

  MadPipeDPOptions options;
  options.grid = Discretization::coarse();
  options.allow_special = false;
  options.engine = DpEngine::ReferenceRecursive;
  const auto reference = madpipe_dp(chain, platform, target, options);
  ASSERT_TRUE(reference.allocation.has_value());

  options.engine = DpEngine::FlatIterative;
  const auto flat = madpipe_dp(chain, platform, target, options);
  EXPECT_EQ(flat.period, reference.period);  // bitwise, not approximate
  ASSERT_TRUE(flat.allocation.has_value());
  EXPECT_TRUE(*flat.allocation == *reference.allocation);
  EXPECT_FALSE(flat.uses_special);
}

TEST(MadPipeDP, LlmScaleChainAtSixtyFourGpus) {
  // The packed-state budget extends to L >= 2000, P = 64 (transformer
  // presets linearize to 2050 layers). A uniform 2048-layer chain with
  // weights tight against the per-GPU limit keeps the candidate scan short
  // (stage_static_memory_exceeds ends it at ~128 layers/stage), while
  // exercising the full 12-bit layer / 7-bit processor packing.
  const Chain chain =
      make_uniform_chain(2048, ms(2), ms(4), 16 * MB, 4 * MB, MB, "llm");
  const Platform platform{64, 2 * GB, 12 * GB};
  MadPipeDPOptions options;
  options.grid = Discretization::coarse();
  const auto flat =
      madpipe_dp(chain, platform, chain.total_compute() / 64, options);
  EXPECT_FALSE(flat.state_budget_hit);
  EXPECT_GT(flat.states_visited, 0u);
  ASSERT_TRUE(flat.allocation.has_value());
  const Partitioning& parts = flat.allocation->partitioning();
  EXPECT_EQ(parts.stage(0).first, 1);
  EXPECT_EQ(parts.stage(parts.num_stages() - 1).last, chain.length());
}

TEST(MadPipeDpBudget, ExhaustedBudgetWarnsOncePerEngineAcrossThreads) {
  // Regression: the state-budget warning used to be a plain per-call bool,
  // so concurrent probes (speculative bisection, serve workers) spammed one
  // log line each. It is now a per-engine atomic once-guard: every result
  // still reports state_budget_hit, but the process logs exactly once per
  // engine no matter how many threads trip the valve at the same time.
  const Chain c = make_uniform_chain(12, ms(2), ms(4), MB, 20 * MB, MB);
  const Platform p{4, 2 * GB, 12 * GB};

  for (const auto engine : {DpEngine::FlatIterative, DpEngine::ReferenceRecursive}) {
    detail::reset_state_budget_warnings();
    constexpr int kThreads = 8;
    std::atomic<int> budget_hits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        MadPipeDPOptions options = fine_grid();
        options.engine = engine;
        options.max_states = 1;  // guaranteed to trip immediately
        const auto result = madpipe_dp(c, p, c.total_compute() / 4, options);
        if (result.state_budget_hit) {
          budget_hits.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    // Every probe saw (and reported) the truncation...
    EXPECT_EQ(budget_hits.load(), kThreads) << static_cast<int>(engine);
    // ...but only one warning was emitted for the whole stampede.
    EXPECT_EQ(detail::state_budget_warning_count(), 1)
        << static_cast<int>(engine);
  }

  // The guard latches: a later hit on the same engine stays silent. (The
  // Reference engine is the one whose guard is still armed — the loop above
  // reset both guards before its Reference round.)
  MadPipeDPOptions options = fine_grid();
  options.engine = DpEngine::ReferenceRecursive;
  options.max_states = 1;
  const auto again = madpipe_dp(c, p, c.total_compute() / 4, options);
  EXPECT_TRUE(again.state_budget_hit);
  EXPECT_EQ(detail::state_budget_warning_count(), 1);
  detail::reset_state_budget_warnings();
}

}  // namespace
}  // namespace madpipe
