// Planner runtime microbenchmarks (google-benchmark): the cost of
// MadPipe-DP as a function of chain length, processor count and grid
// granularity, plus the supporting machinery (1F1B*, the cyclic scheduler
// and the simplex). The paper reports "several seconds … up to 15 minutes"
// at its discretization on its (longer) profiled chains; these measurements
// document where our implementation stands.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "cyclic/ilp_scheduler.hpp"
#include "cyclic/period_search.hpp"
#include "cyclic/stage_graph.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"
#include "pipedream/pipedream.hpp"
#include "schedule/one_f_one_b.hpp"
#include "solver/lp.hpp"
#include "solver/milp.hpp"

namespace {

using namespace madpipe;

Chain bench_chain(int length) {
  models::NetworkConfig config;
  config.network = "resnet101";
  config.image_size = 1000;
  config.batch = 8;
  config.chain_length = length;
  return models::build_network(config);
}

void BM_MadPipeDP_ChainLength(benchmark::State& state) {
  const Chain chain = bench_chain(static_cast<int>(state.range(0)));
  const Platform platform{4, 8 * GB, 12 * GB};
  MadPipeDPOptions options;
  options.grid = Discretization::paper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        madpipe_dp(chain, platform, chain.total_compute() / 4, options));
  }
}
BENCHMARK(BM_MadPipeDP_ChainLength)->Arg(8)->Arg(16)->Arg(24)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_MadPipeDP_Processors(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{static_cast<int>(state.range(0)), 8 * GB, 12 * GB};
  MadPipeDPOptions options;
  options.grid = Discretization::paper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(madpipe_dp(
        chain, platform, chain.total_compute() / platform.processors,
        options));
  }
}
BENCHMARK(BM_MadPipeDP_Processors)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MadPipeDP_GridPoints(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{4, 8 * GB, 12 * GB};
  MadPipeDPOptions options;
  const int scale = static_cast<int>(state.range(0));
  options.grid = Discretization{25 * scale + 1, 5 * scale + 1, 12 * scale + 1,
                                RoundingMode::Nearest};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        madpipe_dp(chain, platform, chain.total_compute() / 4, options));
  }
}
BENCHMARK(BM_MadPipeDP_GridPoints)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MadPipePhase1_Full(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{static_cast<int>(state.range(0)), 8 * GB, 12 * GB};
  Phase1Options options;
  options.dp.grid = Discretization::paper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(madpipe_phase1(chain, platform, options));
  }
}
BENCHMARK(BM_MadPipePhase1_Full)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// One DP probe at paper discretization with state-rate and cache-behaviour
// counters: the unit of work every phase-1 iteration repeats.
void BM_MadPipeDPProbe(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{static_cast<int>(state.range(0)), 8 * GB, 12 * GB};
  MadPipeDPOptions options;
  options.grid = Discretization::paper();
  const Seconds target = chain.total_compute() / platform.processors;
#if defined(MADPIPE_PLANNER_STATS)
  PlannerStats total;
#endif
  std::size_t states = 0;
  for (auto _ : state) {
    const MadPipeDPResult dp = madpipe_dp(chain, platform, target, options);
    benchmark::DoNotOptimize(dp.period);
    states += dp.states_visited;
#if defined(MADPIPE_PLANNER_STATS)
    total.absorb(dp.stats);
#endif
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
#if defined(MADPIPE_PLANNER_STATS)
  if (total.memo_child_lookups > 0) {
    state.counters["memo_hit%"] =
        100.0 * static_cast<double>(total.memo_hits) /
        static_cast<double>(total.memo_child_lookups);
  }
  if (total.transition_lookups > 0) {
    state.counters["trans_hit%"] =
        100.0 * static_cast<double>(total.transition_hits) /
        static_cast<double>(total.transition_lookups);
  }
#endif
}
BENCHMARK(BM_MadPipeDPProbe)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Full Algorithm-1 bisection with the probe-level counters aggregated, so a
// states/s regression is visible end to end and not only per probe.
void BM_Phase1(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{static_cast<int>(state.range(0)), 8 * GB, 12 * GB};
  Phase1Options options;
  options.dp.grid = Discretization::paper();
#if defined(MADPIPE_PLANNER_STATS)
  PlannerStats total;
#endif
  for (auto _ : state) {
    const Phase1Result phase1 = madpipe_phase1(chain, platform, options);
    benchmark::DoNotOptimize(phase1.period);
#if defined(MADPIPE_PLANNER_STATS)
    total.absorb(phase1.stats);
#endif
  }
#if defined(MADPIPE_PLANNER_STATS)
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(total.dp_states), benchmark::Counter::kIsRate);
  state.counters["dp_probes"] = static_cast<double>(total.dp_probes);
  state.counters["spec_hits"] =
      static_cast<double>(total.phase1_speculative_hits);
#endif
}
BENCHMARK(BM_Phase1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_PipeDreamPartition(benchmark::State& state) {
  const Chain chain = bench_chain(static_cast<int>(state.range(0)));
  const Platform platform{8, 8 * GB, 12 * GB};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipedream_partition(chain, platform));
  }
}
BENCHMARK(BM_PipeDreamPartition)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_OneFOneBPlan(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{8, 8 * GB, 12 * GB};
  const auto partition = pipedream_partition(chain, platform);
  if (!partition) {
    state.SkipWithError("no partition");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan_one_f_one_b(partition->allocation, chain, platform));
  }
}
BENCHMARK(BM_OneFOneBPlan)->Unit(benchmark::kMicrosecond);

void BM_CyclicScheduler(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{4, 8 * GB, 12 * GB};
  // A representative non-contiguous allocation: split the PipeDream
  // partition's first stage off to a shared processor.
  Phase1Options options;
  options.dp.grid = Discretization::paper();
  const Phase1Result phase1 = madpipe_phase1(chain, platform, options);
  if (!phase1.feasible()) {
    state.SkipWithError("phase 1 infeasible");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_min_period(*phase1.allocation, chain,
                                             platform, phase1.period));
  }
}
BENCHMARK(BM_CyclicScheduler)->Unit(benchmark::kMillisecond);

void BM_SimplexDense(benchmark::State& state) {
  // Random-but-fixed LP of the given size.
  const int n = static_cast<int>(state.range(0));
  solver::Model model;
  model.set_sense(solver::Sense::Maximize);
  unsigned value = 12345;
  const auto next = [&value] {
    value = value * 1103515245u + 12345u;
    return static_cast<double>((value >> 16) & 0x7fff) / 32768.0;
  };
  for (int i = 0; i < n; ++i) {
    model.add_variable("x" + std::to_string(i), 0.0, 10.0, next());
  }
  for (int r = 0; r < n; ++r) {
    solver::LinearExpr expr;
    for (int i = 0; i < n; ++i) expr.add(i, next());
    model.add_constraint(std::move(expr), solver::Relation::LessEqual,
                         1.0 + 5.0 * next());
  }
  long long pivots = 0;
  for (auto _ : state) {
    const solver::LPResult lp = solver::solve_lp(model);
    pivots += lp.stats.pivots;
    benchmark::DoNotOptimize(lp);
  }
  state.counters["pivots/s"] =
      benchmark::Counter(static_cast<double>(pivots), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimplexDense)->Arg(10)->Arg(30)->Arg(60)
    ->Unit(benchmark::kMicrosecond);

void BM_MILPKnapsack(benchmark::State& state) {
  // Branchy 0/1 knapsack at ~45% capacity: the B&B tree, not any single
  // relaxation, dominates. Same generator as bench_solver's workload.
  const int items = static_cast<int>(state.range(0));
  solver::Model model;
  model.set_sense(solver::Sense::Maximize);
  unsigned value = 12345;
  const auto next = [&value] {
    value = value * 1103515245u + 12345u;
    return static_cast<double>((value >> 16) & 0x7fff) / 32768.0;
  };
  solver::LinearExpr total;
  double capacity = 0.0;
  for (int i = 0; i < items; ++i) {
    const double weight = 1.0 + 9.0 * next();
    const double worth = 1.0 + 9.0 * next();
    const int x = model.add_variable("x" + std::to_string(i), 0.0, 1.0, worth,
                                     solver::VarType::Integer);
    total.add(x, weight);
    capacity += weight;
  }
  model.add_constraint(std::move(total), solver::Relation::LessEqual,
                       0.45 * capacity);
  long long nodes = 0;
  long long pivots = 0;
  for (auto _ : state) {
    const solver::MILPResult milp = solver::solve_milp(model);
    nodes += milp.stats.nodes_explored;
    pivots += milp.stats.pivots;
    benchmark::DoNotOptimize(milp);
  }
  state.counters["nodes/s"] =
      benchmark::Counter(static_cast<double>(nodes), benchmark::Counter::kIsRate);
  state.counters["pivots/s"] =
      benchmark::Counter(static_cast<double>(pivots), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MILPKnapsack)->Arg(16)->Arg(20)->Unit(benchmark::kMicrosecond);

void BM_ILPSchedulerProbe(benchmark::State& state) {
  // End-to-end solve_milp wall clock on the real phase-2 MILP: one
  // ilp_schedule probe at 1.05× the phase-1 period lower bound (the same
  // workload bench_solver records in BENCH_solver.json).
  const Chain& chain = bench::evaluation_chain("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};
  Phase1Options options;
  options.dp.grid = Discretization::paper();
  const Phase1Result phase1 = madpipe_phase1(chain, platform, options);
  if (!phase1.feasible()) {
    state.SkipWithError("phase 1 infeasible");
    return;
  }
  const CyclicProblem problem =
      build_cyclic_problem(*phase1.allocation, chain, platform);
  const Seconds period = phase1.period * 1.05;
  long long nodes = 0;
  for (auto _ : state) {
    const ILPScheduleResult probe = ilp_schedule(problem, *phase1.allocation,
                                                 chain, platform, period);
    nodes += probe.stats.nodes_explored;
    benchmark::DoNotOptimize(probe);
  }
  state.counters["nodes/s"] =
      benchmark::Counter(static_cast<double>(nodes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ILPSchedulerProbe)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
