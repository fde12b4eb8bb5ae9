#include "cyclic/bb_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <random>

#include "cyclic/period_search.hpp"
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

}  // namespace
}  // namespace madpipe
