#include "cyclic/bb_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <thread>

#include "cyclic/period_search.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"
#include "schedule/one_f_one_b.hpp"

namespace madpipe {
namespace {

Chain random_chain(unsigned seed, int length) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dur(1.0, 15.0);
  std::uniform_real_distribution<double> size(5.0, 80.0);
  std::vector<Layer> layers;
  for (int i = 0; i < length; ++i) {
    layers.push_back(Layer{"r" + std::to_string(i), ms(dur(rng)),
                           ms(dur(rng)), size(rng) * MB, size(rng) * MB});
  }
  return Chain("random" + std::to_string(seed), size(rng) * MB,
               std::move(layers));
}

std::vector<Stage> even_split(const Chain& chain, int stages) {
  std::vector<Stage> result;
  const int per = (chain.length() + stages - 1) / stages;
  for (int first = 1; first <= chain.length(); first += per) {
    result.push_back({first, std::min(chain.length(), first + per - 1)});
  }
  return result;
}

TEST(CyclicProblem, OpCountAndLoads) {
  const Chain c = random_chain(1, 6);
  const Platform p{3, 10 * GB, 12 * GB};
  const Allocation a = make_contiguous_allocation(c, even_split(c, 3), 3);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  // 3 stages → 6 compute ops + 2 cut boundaries → 4 comm ops.
  EXPECT_EQ(problem.ops.size(), 10u);
  EXPECT_GT(problem.min_period, 0.0);
  EXPECT_GT(problem.serial_period, problem.min_period);
}

TEST(CyclicProblem, NonContiguousSharedProcessor) {
  const Chain c = random_chain(2, 6);
  const Platform p{2, 10 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 2}, {3, 4}, {5, 6}}), {0, 1, 0}, 2);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  // 6 compute + 2 cut boundaries × 2 = 10; both links are (0,1).
  EXPECT_EQ(problem.ops.size(), 10u);
  int link_ops = 0;
  for (const CyclicOp& op : problem.ops) {
    if (op.resource.kind == ResourceId::Kind::Link) {
      EXPECT_EQ(op.resource, ResourceId::link(0, 1));
      ++link_ops;
    }
  }
  EXPECT_EQ(link_ops, 4);
}

TEST(BBScheduler, FeasibleAtSerialPeriod) {
  const Chain c = random_chain(3, 8);
  const Platform p{3, 100 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 2}, {3, 5}, {6, 7}, {8, 8}}), {0, 1, 2, 0},
               3);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  const BBResult result =
      bb_schedule(problem, a, c, p, problem.serial_period);
  ASSERT_TRUE(result.feasible);
  const auto check = validate_pattern(result.pattern, a, c, p);
  EXPECT_TRUE(check.valid) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST(BBScheduler, InfeasibleBelowResourceBound) {
  const Chain c = random_chain(4, 6);
  const Platform p{3, 100 * GB, 12 * GB};
  const Allocation a = make_contiguous_allocation(c, even_split(c, 3), 3);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  const BBResult result =
      bb_schedule(problem, a, c, p, problem.min_period * 0.9);
  EXPECT_FALSE(result.feasible);
}

TEST(BBScheduler, InfeasibleWhenActivationFloorExceedsMemory) {
  // Two stages forced onto one processor whose single-batch activations
  // already exceed memory: no period can ever work.
  const Chain c = make_uniform_chain(4, ms(5), ms(5), MB, 600 * MB, 600 * MB);
  const Platform p{2, 2 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 1}, {2, 3}, {4, 4}}), {0, 1, 0}, 2);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  const BBResult result =
      bb_schedule(problem, a, c, p, problem.serial_period);
  EXPECT_FALSE(result.feasible);
}

class BBMatchesOneFOneB : public ::testing::TestWithParam<unsigned> {};

// On contiguous allocations 1F1B* gives the provably minimal feasible
// period; the generic search must reproduce it (within its bisection
// precision). This is the strongest evidence that the phase-2 engine does
// not lose quality against the paper's ILP.
TEST_P(BBMatchesOneFOneB, MinPeriodsAgree) {
  const unsigned seed = GetParam();
  const Chain c = random_chain(seed, 6 + seed % 5);
  const int procs = 2 + seed % 3;
  if (c.length() < procs) GTEST_SKIP();
  const Platform p{procs, (1.0 + seed % 5) * GB, 12 * GB};
  const Allocation a =
      make_contiguous_allocation(c, even_split(c, procs), procs);

  const auto exact = plan_one_f_one_b(a, c, p);
  PeriodSearchOptions options;
  options.relative_precision = 5e-4;
  const PeriodSearchResult search = find_min_period(a, c, p, 0.0, options);

  ASSERT_EQ(exact.has_value(), search.feasible);
  if (!exact) return;
  EXPECT_LE(search.period, exact->period() * (1.0 + 2e-3));
  EXPECT_GE(search.period, exact->period() * (1.0 - 2e-3));
  const auto check = validate_pattern(search.pattern, a, c, p);
  EXPECT_TRUE(check.valid);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BBMatchesOneFOneB, ::testing::Range(20u, 45u));

// --- Golden table: the search tree and its answers, pinned -----------------
//
// Recorded with the straightforward implementation (every leaf checked by
// validate_pattern alone, std::map resource lookups, fresh candidate
// vectors). Any speed work on the branch-and-bound must reproduce every row
// bit for bit: the same verdict, the same node count, the same budget hit
// and the same (start, shift) of every returned op. The allocations are the
// phase-1 answers of the named cells, written out so the table does not move
// when phase 1 changes.

/// FNV-1a over each op's kind, stage, start bits and shift, in pattern order.
std::uint64_t pattern_fingerprint(const PeriodicPattern& pattern) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const PatternOp& op : pattern.ops) {
    std::uint64_t start_bits = 0;
    std::memcpy(&start_bits, &op.start, sizeof(start_bits));
    mix(static_cast<std::uint64_t>(op.kind));
    mix(static_cast<std::uint64_t>(op.stage));
    mix(start_bits);
    mix(static_cast<std::uint64_t>(op.shift));
  }
  return hash;
}

struct GoldenProbe {
  double fraction;  ///< period = min + fraction · (serial − min)
  bool feasible;
  std::size_t nodes;
  bool budget_hit;
  std::size_t ops;  ///< ops in the returned pattern (0 when infeasible)
  std::uint64_t fingerprint;
};

struct GoldenCell {
  const char* network;
  int length;  ///< chain length (0 = the full chain)
  int gpus;
  double memory_gb;
  std::vector<Stage> stages;
  std::vector<int> processor_of_stage;
  std::vector<GoldenProbe> probes;
};

std::vector<GoldenCell> golden_cells() {
  return {
      {"resnet50", 0, 4, 5,
       {{1, 4}, {5, 7}, {8, 12}, {13, 17}, {18, 18}},
       {3, 0, 1, 2, 3},
       {{0, false, 60000, true, 0, 0},
        {0.02, false, 60000, true, 0, 0},
        {0.05, false, 60000, true, 0, 0},
        {0.08, false, 60000, true, 0, 0},
        {0.15, false, 60000, true, 0, 0},
        {0.25, true, 3625, false, 18, 0x643d5bfab74fcbabull},
        {1, true, 18, false, 18, 0xd357c17c64229e15ull}}},
      {"densenet121", 24, 2, 7,
       {{1, 2}, {3, 12}, {13, 18}, {19, 24}},
       {1, 0, 1, 1},
       {{0, false, 10346, false, 0, 0},
        {0.02, false, 17145, false, 0, 0},
        {0.05, true, 2117, false, 12, 0x041846f3d8bcfb08ull},
        {0.08, true, 2559, false, 12, 0x1a8086c5b119da17ull},
        {0.15, true, 12, false, 12, 0x2cbed865d754559aull},
        {0.25, true, 12, false, 12, 0x22b0fbaa0b0041f2ull},
        {1, true, 12, false, 12, 0x80fb59e8c865a736ull}}},
      {"resnet50", 0, 8, 10,
       {{1, 1}, {2, 3}, {4, 4}, {5, 6}, {7, 8}, {9, 10},
        {11, 12}, {13, 13}, {14, 15}, {16, 17}, {18, 18}},
       {7, 0, 7, 1, 2, 3, 4, 7, 5, 6, 7},
       {{0, false, 60000, true, 0, 0},
        {0.02, true, 42, false, 42, 0xbbac0c01959d32baull},
        {0.05, true, 42, false, 42, 0x8f936a36d02d9feaull},
        {0.08, true, 42, false, 42, 0x1c2d9c077008d4e1ull},
        {0.15, true, 42, false, 42, 0x3f222be14f5aa503ull},
        {0.25, true, 42, false, 42, 0xe6ba4281f8591788ull},
        {1, true, 42, false, 42, 0xa6310bd7a3c6baffull}}},
      {"resnet101", 24, 4, 8,
       {{1, 3}, {4, 8}, {9, 10}, {11, 16}, {17, 24}},
       {3, 0, 3, 1, 2},
       {{0, false, 60000, true, 0, 0},
        {0.02, false, 60000, true, 0, 0},
        {0.05, true, 18, false, 18, 0x60e4d38c825c5bfdull},
        {0.08, true, 18, false, 18, 0x9717a735e9365c96ull},
        {0.15, true, 18, false, 18, 0xbb18c8ca4dfb9b2cull},
        {0.25, true, 18, false, 18, 0x5ce4268e9ad8351dull},
        {1, true, 18, false, 18, 0x9f8ce5e5585e5616ull}}},
      {"inception_v3", 24, 8, 4,
       {{1, 1}, {2, 2}, {3, 4}, {5, 6}, {7, 8},
        {9, 9}, {10, 10}, {11, 11}, {12, 13}, {14, 14}},
       {7, 0, 1, 2, 3, 4, 5, 7, 6, 7},
       {{0, false, 60000, true, 0, 0},
        {0.02, false, 60000, true, 0, 0},
        {0.05, true, 38, false, 38, 0xbf3a924b0b873bd8ull},
        {0.08, false, 60000, true, 0, 0},
        {0.15, true, 38, false, 38, 0xce55c0b69240e325ull},
        {0.25, true, 38, false, 38, 0x168d2eafc6133948ull},
        {1, true, 38, false, 38, 0x027b6a02541016b9ull}}},
  };
}

TEST(BBSchedulerGolden, SearchTreeAndPatternsArePinned) {
  for (const GoldenCell& cell : golden_cells()) {
    models::NetworkConfig config;
    config.network = cell.network;
    config.chain_length = cell.length;
    const Chain chain = models::build_network(config);
    const Platform platform{cell.gpus, cell.memory_gb * GB, 12 * GB};
    const Allocation allocation(Partitioning(chain, cell.stages),
                                cell.processor_of_stage, cell.gpus);
    const CyclicProblem problem =
        build_cyclic_problem(allocation, chain, platform);
    for (const GoldenProbe& golden : cell.probes) {
      const Seconds period =
          problem.min_period +
          golden.fraction * (problem.serial_period - problem.min_period);
      const BBResult result =
          bb_schedule(problem, allocation, chain, platform, period);
      const std::string where = std::string(cell.network) + " P" +
                                std::to_string(cell.gpus) + " at fraction " +
                                std::to_string(golden.fraction);
      EXPECT_EQ(result.feasible, golden.feasible) << where;
      EXPECT_EQ(result.nodes_visited, golden.nodes) << where;
      EXPECT_EQ(result.node_budget_hit, golden.budget_hit) << where;
      EXPECT_EQ(result.pattern.ops.size(), golden.ops) << where;
      EXPECT_LE(result.leaves_validated, result.leaves) << where;
      if (result.feasible) {
        EXPECT_GE(result.leaves_validated, 1u) << where;
      }
      if (golden.feasible) {
        EXPECT_EQ(pattern_fingerprint(result.pattern), golden.fingerprint)
            << where;
        EXPECT_TRUE(
            validate_pattern(result.pattern, allocation, chain, platform).valid)
            << where;
      }
    }
  }
}

TEST(BBScheduler, SmallBudgetFeasibleMatchesFullBudget) {
  // The DFS order does not depend on the node budget, so a run that ends
  // within a small budget is the full-budget run: same leaf, same counters.
  // The period search's triage relies on this.
  int feasible_small = 0, budget_hit_small = 0;
  for (const GoldenCell& cell : golden_cells()) {
    models::NetworkConfig config;
    config.network = cell.network;
    config.chain_length = cell.length;
    const Chain chain = models::build_network(config);
    const Platform platform{cell.gpus, cell.memory_gb * GB, 12 * GB};
    const Allocation allocation(Partitioning(chain, cell.stages),
                                cell.processor_of_stage, cell.gpus);
    const CyclicProblem problem =
        build_cyclic_problem(allocation, chain, platform);
    const std::size_t ops = problem.ops.size();
    for (const GoldenProbe& golden : cell.probes) {
      const Seconds period =
          problem.min_period +
          golden.fraction * (problem.serial_period - problem.min_period);
      const BBResult full =
          bb_schedule(problem, allocation, chain, platform, period);
      for (const std::size_t budget : {ops, 2 * ops, 4 * ops, std::size_t{3000}}) {
        BBOptions small;
        small.max_nodes = budget;
        const BBResult result =
            bb_schedule(problem, allocation, chain, platform, period, small);
        const std::string where = std::string(cell.network) + " P" +
                                  std::to_string(cell.gpus) + " at fraction " +
                                  std::to_string(golden.fraction) +
                                  ", budget " + std::to_string(budget);
        if (result.node_budget_hit) {
          EXPECT_FALSE(result.feasible) << where;
          ++budget_hit_small;
          continue;
        }
        feasible_small += result.feasible ? 1 : 0;
        EXPECT_EQ(result.feasible, full.feasible) << where;
        EXPECT_EQ(result.nodes_visited, full.nodes_visited) << where;
        EXPECT_EQ(result.node_budget_hit, full.node_budget_hit) << where;
        EXPECT_EQ(result.leaves, full.leaves) << where;
        EXPECT_EQ(result.leaves_validated, full.leaves_validated) << where;
        EXPECT_EQ(result.pattern.ops.size(), full.pattern.ops.size()) << where;
        EXPECT_EQ(pattern_fingerprint(result.pattern),
                  pattern_fingerprint(full.pattern))
            << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(result.pattern.period),
                  std::bit_cast<std::uint64_t>(full.pattern.period))
            << where;
      }
    }
  }
  // The table holds both kinds at small budgets.
  EXPECT_GT(feasible_small, 0);
  EXPECT_GT(budget_hit_small, 0);
}

TEST(BBScheduler, CancelledProbeHasNoVerdict) {
  const Chain chain = models::paper_network("resnet50");
  const GoldenCell cell = golden_cells().front();  // resnet50 P4/M5
  const Platform platform{cell.gpus, cell.memory_gb * GB, 12 * GB};
  const Allocation allocation(Partitioning(chain, cell.stages),
                              cell.processor_of_stage, cell.gpus);
  const CyclicProblem problem =
      build_cyclic_problem(allocation, chain, platform);
  // A period the compact construction cannot settle, so the DFS runs.
  const Seconds period =
      problem.min_period + 0.25 * (problem.serial_period - problem.min_period);
  const std::atomic<bool> cancel{true};
  const BBResult result = bb_schedule(problem, allocation, chain, platform,
                                      period, BBOptions{}, cancel);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.node_budget_hit);
  EXPECT_EQ(result.nodes_visited, 0u);
  EXPECT_TRUE(result.pattern.ops.empty());

  const std::atomic<bool> go{false};
  const BBResult uncancelled = bb_schedule(problem, allocation, chain,
                                           platform, period, BBOptions{}, go);
  EXPECT_FALSE(uncancelled.cancelled);
  EXPECT_TRUE(uncancelled.feasible);  // the golden row: feasible, 3625 nodes
  EXPECT_EQ(uncancelled.nodes_visited, 3625u);
}

// --- One memory semantics: the shared sweep against validate_pattern -------

/// A pattern for `problem` with random virtual times in chain order (so
/// in-flight counts stay non-negative), or — with `backward_first` — with
/// one stage's backward moved ahead of its forward. Resource packing is not
/// respected; validate_pattern still sweeps memory on such patterns.
PeriodicPattern random_pattern(const CyclicProblem& problem, Seconds period,
                               std::mt19937& rng, bool backward_first) {
  std::uniform_real_distribution<double> gap(0.0, 1.5);
  PeriodicPattern pattern;
  pattern.period = period;
  Seconds ready = gap(rng) * period;
  for (const CyclicOp& op : problem.ops) {
    pattern.ops.push_back(PeriodicPattern::make_op(
        op.kind, op.stage, op.resource, ready, op.duration, period));
    ready += op.duration + gap(rng) * period;
  }
  if (backward_first) {
    for (PatternOp& op : pattern.ops) {
      if (op.kind == OpKind::Backward && op.stage == 0) op.shift = 0;
      if (op.kind == OpKind::Forward && op.stage == 0) op.shift += 3;
    }
  }
  return pattern;
}

bool has_error(const ValidationResult& check, const std::string& prefix) {
  return std::any_of(
      check.errors.begin(), check.errors.end(),
      [&](const std::string& e) { return e.rfind(prefix, 0) == 0; });
}

TEST(SweepInflight, MatchesValidatePatternBitwise) {
  std::mt19937 rng(12345);
  int negative = 0, over = 0, under = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Chain c = random_chain(1000u + static_cast<unsigned>(trial),
                                 4 + trial % 5);
    const int procs = 2 + trial % 2;
    // Non-contiguous: more stages than processors, round-robin placement.
    const int num_stages = std::min(c.length(), procs + 1 + trial % 2);
    std::vector<Stage> stages = even_split(c, num_stages);
    std::vector<int> owner;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      owner.push_back(static_cast<int>(s) % procs);
    }
    const Allocation a(Partitioning(c, stages), owner, procs);
    const Platform p{procs, (0.3 + 0.1 * (trial % 15)) * GB, 12 * GB};
    const CyclicProblem problem = build_cyclic_problem(a, c, p);
    const Seconds period = problem.min_period * (1.0 + 0.05 * (trial % 7));
    const PeriodicPattern pattern =
        random_pattern(problem, period, rng, trial % 10 == 9);
    const ValidationResult check = validate_pattern(pattern, a, c, p);

    const int n = a.partitioning().num_stages();
    std::vector<const PatternOp*> fwd(n, nullptr), bwd(n, nullptr);
    for (const PatternOp& op : pattern.ops) {
      if (op.kind == OpKind::Forward) fwd[op.stage] = &op;
      if (op.kind == OpKind::Backward) bwd[op.stage] = &op;
    }
    std::vector<Bytes> stage_bytes(n);
    for (int s = 0; s < n; ++s) {
      stage_bytes[s] = a.partitioning().stage_stored_activations(c, s);
    }
    const double tol = ValidationOptions{}.tolerance;
    bool any_negative = false;
    std::vector<Seconds> instants;
    for (int proc = 0; proc < procs; ++proc) {
      const std::vector<int> on = a.stages_on(proc);
      std::vector<int> max_inflight(on.size(), 0);
      completion_instants(fwd, bwd, on, period, instants);
      const InflightPeak sweep = sweep_inflight(
          fwd, bwd, on, stage_bytes, instants, period, tol, max_inflight);
      if (!sweep.ok()) {
        any_negative = true;
        break;  // validate_pattern stops at the first negative count
      }
      const Bytes peak =
          a.static_memory(c, proc) + sweep.peak_activation_bytes;
      ASSERT_LT(static_cast<std::size_t>(proc),
                check.processor_memory_peak.size());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(peak),
                std::bit_cast<std::uint64_t>(check.processor_memory_peak[proc]))
          << "trial " << trial << " processor " << proc;
      const bool exceeds = peak > p.memory_per_processor * (1.0 + tol);
      EXPECT_EQ(exceeds,
                has_error(check, "memory exceeded on processor " +
                                     std::to_string(proc) + ":"))
          << "trial " << trial << " processor " << proc;
      (exceeds ? over : under) += 1;
      const MemorySweep report = sweep_processor_memory(pattern, a, c, proc);
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(report.peak_activation_bytes),
                std::bit_cast<std::uint64_t>(sweep.peak_activation_bytes));
      EXPECT_EQ(report.stage_max_inflight, max_inflight);
    }
    EXPECT_EQ(any_negative, has_error(check, "negative in-flight count"))
        << "trial " << trial;
    negative += any_negative ? 1 : 0;
  }
  // The seeds exercise all three verdicts.
  EXPECT_GT(negative, 0);
  EXPECT_GT(over, 0);
  EXPECT_GT(under, 0);
}

TEST(PeriodSearch, NonContiguousProducesValidPattern) {
  const Chain c = random_chain(9, 8);
  const Platform p{3, 4 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 2}, {3, 5}, {6, 7}, {8, 8}}), {0, 1, 2, 0},
               3);
  const PeriodSearchResult result = find_min_period(a, c, p);
  ASSERT_TRUE(result.feasible);
  const auto check = validate_pattern(result.pattern, a, c, p);
  EXPECT_TRUE(check.valid) << (check.errors.empty() ? "" : check.errors[0]);
  EXPECT_GE(result.period, a.period_lower_bound(c, p) - 1e-12);
}

TEST(PeriodSearch, BranchAndBoundCountersAreConsistent) {
  const Chain c = random_chain(9, 8);
  const Platform p{3, 4 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 2}, {3, 5}, {6, 7}, {8, 8}}), {0, 1, 2, 0},
               3);
  const PeriodSearchResult result = find_min_period(a, c, p);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.bb_nodes, 0);
  EXPECT_GE(result.bb_leaves, 1);  // the feasible probe reached a leaf
  EXPECT_LE(result.budget_hit_probes, result.probes);

  // The sums cover exactly the consumed probes: a width-1 search consumes
  // the same probes, so it reports the same totals.
  PeriodSearchOptions sequential;
  sequential.speculation = 1;
  const PeriodSearchResult one = find_min_period(a, c, p, 0.0, sequential);
  EXPECT_EQ(one.probes, result.probes);
  EXPECT_EQ(one.bb_nodes, result.bb_nodes);
  EXPECT_EQ(one.bb_leaves, result.bb_leaves);
  EXPECT_EQ(one.budget_hit_probes, result.budget_hit_probes);
}

TEST(PeriodSearch, LowerHintIsRespected) {
  const Chain c = random_chain(10, 6);
  const Platform p{3, 100 * GB, 12 * GB};
  const Allocation a = make_contiguous_allocation(c, even_split(c, 3), 3);
  const Seconds hint = c.total_compute();  // deliberately too high
  const PeriodSearchResult result = find_min_period(a, c, p, hint);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.period, hint * (1.0 - 1e-9));
}

TEST(PeriodSearch, ResultInvariantInWidth) {
  // Tight cells whose searches include budget-bound probes: the consumed
  // probes, and so the period, pattern and counters, must not depend on how
  // many probes run at once or how many lanes run them.
  struct TightCell {
    const char* network;
    int length;
    int gpus;
    double memory_gb;
  };
  for (const TightCell& cell : {TightCell{"resnet50", 0, 4, 5},
                                TightCell{"resnet101", 24, 4, 8},
                                TightCell{"inception_v3", 24, 8, 3}}) {
    models::NetworkConfig config;
    config.network = cell.network;
    config.chain_length = cell.length;
    const Chain chain = models::build_network(config);
    const Platform platform{cell.gpus, cell.memory_gb * GB, 12 * GB};
    const Phase1Result phase1 = madpipe_phase1(chain, platform);
    ASSERT_TRUE(phase1.feasible()) << cell.network;
    ASSERT_FALSE(phase1.allocation->contiguous()) << cell.network;

    const auto search = [&](int width, std::size_t workers) {
      PeriodSearchOptions options;
      options.speculation = width;
      options.workers = workers;
      return find_min_period(*phase1.allocation, chain, platform,
                             phase1.period, options);
    };
    // The reference: the same bisection with no triage, every probe run
    // once with the full node budget, one at a time.
    const CyclicProblem problem =
        build_cyclic_problem(*phase1.allocation, chain, platform);
    const Seconds lb = std::max(problem.min_period, phase1.period);
    const PeriodProbe full = [&](Seconds period, std::size_t max_nodes,
                                 const std::atomic<bool>& cancel) {
      BBOptions bb;
      bb.max_nodes = max_nodes;
      return bb_schedule(problem, *phase1.allocation, chain, platform, period,
                         bb, cancel);
    };
    PeriodSearchOptions sequential;
    sequential.speculation = 1;
    const PeriodSearchResult base = bisect_min_period(
        lb, std::max(problem.serial_period, lb), full,
        sequential.bb.max_nodes, sequential);
    ASSERT_TRUE(base.feasible) << cell.network;
    EXPECT_GT(base.budget_hit_probes, 0) << cell.network;
    EXPECT_EQ(base.speculative_probes, 0) << cell.network;
    EXPECT_EQ(base.cancelled_probes, 0) << cell.network;
    for (const int width : {1, 2, 4}) {
      for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        const PeriodSearchResult r = search(width, workers);
        const std::string where = std::string(cell.network) + " P" +
                                  std::to_string(cell.gpus) + " W=" +
                                  std::to_string(width) + " workers=" +
                                  std::to_string(workers);
        ASSERT_TRUE(r.feasible) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.period),
                  std::bit_cast<std::uint64_t>(base.period))
            << where;
        ASSERT_EQ(r.pattern.ops.size(), base.pattern.ops.size()) << where;
        for (std::size_t i = 0; i < base.pattern.ops.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(r.pattern.ops[i].start),
                    std::bit_cast<std::uint64_t>(base.pattern.ops[i].start))
              << where << " op " << i;
          EXPECT_EQ(r.pattern.ops[i].shift, base.pattern.ops[i].shift)
              << where << " op " << i;
        }
        EXPECT_EQ(r.probes, base.probes) << where;
        EXPECT_EQ(r.bb_nodes, base.bb_nodes) << where;
        EXPECT_EQ(r.bb_leaves, base.bb_leaves) << where;
        EXPECT_EQ(r.budget_hit_probes, base.budget_hit_probes) << where;
        // Launched = probes + speculative_probes − speculative_hits, and a
        // cancelled probe is a launched speculative one that was not used.
        EXPECT_LE(r.speculative_hits, r.probes) << where;
        EXPECT_LE(r.speculative_hits, r.speculative_probes) << where;
        EXPECT_LE(r.cancelled_probes,
                  r.speculative_probes - r.speculative_hits)
            << where;
      }
    }
  }
}

TEST(PeriodSearch, CancelledProbesAreNeverConsumed) {
  // A scripted probe over [1, 2]: periods ≥ 1.37 are feasible. Triage never
  // settles, so every probe takes the full path. A full probe on a period
  // the sequential search consumes answers after a short delay; any other
  // period waits for its cancel flag. A probe that finds its flag set
  // answers *feasible* with a poison node count and pattern size, so
  // consuming or caching a cancelled answer would change the result.
  constexpr std::size_t kTriage = 10, kFull = 1000;
  constexpr std::size_t kPoison = 1'000'000;
  const auto verdict = [](Seconds period) {
    BBResult result;
    result.feasible = period >= 1.37;
    result.nodes_visited = 7;
    result.leaves = result.feasible ? 1 : 0;
    if (result.feasible) result.pattern.ops.resize(3);
    return result;
  };
  PeriodSearchOptions options;
  options.bb.max_nodes = kFull;
  options.relative_precision = 1e-2;

  std::mutex mutex;
  std::vector<Seconds> full_probes;  // periods the sequential search probed
  const PeriodProbe sequential = [&](Seconds period, std::size_t max_nodes,
                                     const std::atomic<bool>&) {
    BBResult result;
    if (max_nodes == kTriage) {
      result.node_budget_hit = true;
      result.nodes_visited = kTriage;
      return result;
    }
    full_probes.push_back(period);
    return verdict(period);
  };
  options.speculation = 1;
  const PeriodSearchResult base =
      bisect_min_period(1.0, 2.0, sequential, kTriage, options);
  ASSERT_TRUE(base.feasible);
  ASSERT_GE(base.probes, 5);
  EXPECT_EQ(base.cancelled_probes, 0);

  int cancelled_answers = 0, needed_cancelled = 0;
  std::vector<Seconds> answered;
  const PeriodProbe scripted = [&](Seconds period, std::size_t max_nodes,
                                   const std::atomic<bool>& cancel) {
    BBResult result;
    if (max_nodes == kTriage) {
      result.node_budget_hit = true;
      result.nodes_visited = kTriage;
      return result;
    }
    const bool needed = std::find(full_probes.begin(), full_probes.end(),
                                  period) != full_probes.end();
    if (needed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } else {
      while (!cancel.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (!cancel.load()) {
      answered.push_back(period);
      return verdict(period);
    }
    needed_cancelled += needed ? 1 : 0;
    result.cancelled = true;
    result.feasible = true;
    result.nodes_visited = kPoison;
    result.pattern.ops.resize(5);
    ++cancelled_answers;
    return result;
  };
  for (const int width : {2, 4}) {
    cancelled_answers = needed_cancelled = 0;
    answered.clear();
    options.speculation = width;
    const PeriodSearchResult r =
        bisect_min_period(1.0, 2.0, scripted, kTriage, options);
    EXPECT_EQ(r.feasible, base.feasible) << "W=" << width;
    EXPECT_EQ(r.period, base.period) << "W=" << width;
    EXPECT_EQ(r.pattern.ops.size(), base.pattern.ops.size()) << "W=" << width;
    EXPECT_EQ(r.probes, base.probes) << "W=" << width;
    EXPECT_EQ(r.bb_nodes, base.bb_nodes) << "W=" << width;
    EXPECT_EQ(r.bb_leaves, base.bb_leaves) << "W=" << width;
    // Every wrong guess was started and then cancelled: the search
    // alternates verdicts, so the lanes' infeasible-first guesses miss.
    EXPECT_GT(r.cancelled_probes, 0) << "W=" << width;
    EXPECT_EQ(r.cancelled_probes, cancelled_answers) << "W=" << width;
    // Only probes the search could no longer demand were cancelled.
    EXPECT_EQ(needed_cancelled, 0) << "W=" << width;
    EXPECT_LE(r.cancelled_probes, r.speculative_probes - r.speculative_hits)
        << "W=" << width;
    // Each consumed period was probed once and its answer used.
    std::sort(answered.begin(), answered.end());
    EXPECT_EQ(answered.size(), static_cast<std::size_t>(base.probes))
        << "W=" << width;
    EXPECT_TRUE(std::adjacent_find(answered.begin(), answered.end()) ==
                answered.end())
        << "W=" << width;
  }
}

}  // namespace
}  // namespace madpipe
