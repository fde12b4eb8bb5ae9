// plan_tight and plan_roomy: one caller in a closed loop of cold
// plan_madpipe calls over a fixed deck of cells from the paper's chains.
// Every round plans the whole deck once, in an order drawn from the seed,
// so each run plans the same mix and only the order and the number of
// rounds vary.
#include <algorithm>
#include <map>

#include "madpipe/planner.hpp"
#include "planner_layers.hpp"
#include "serve/request.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace madpipe;

namespace {

const NetSpec kResnet50{"resnet50", 0};
const NetSpec kResnet101{"resnet101", 24};
const NetSpec kInception{"inception_v3", 24};
const NetSpec kDensenet{"densenet121", 24};
const NetSpec kGpt2{"gpt2-xl", 48};

/// M from 3 to 10 GB, where most allocations are non-contiguous and the
/// cyclic period search spends most of the plan. Cells whose single plan
/// takes more than about 1.5 s on a 4-CPU Xeon (the same budget-bound
/// phase-2 probes, only more of them) are left out so that a 30-second run
/// holds about 100 plans.
std::vector<Cell> tight_deck() {
  return {
      {kResnet50, 2, 4},   {kResnet50, 2, 5},   {kResnet50, 2, 6},
      {kResnet50, 2, 10},  {kResnet50, 4, 5},   {kResnet50, 4, 7},
      {kResnet50, 4, 10},  {kResnet50, 8, 5},   {kResnet50, 8, 10},
      {kResnet101, 2, 6},  {kResnet101, 2, 7},  {kResnet101, 4, 3},
      {kResnet101, 4, 8},  {kResnet101, 4, 10}, {kInception, 4, 3},
      {kInception, 4, 4},  {kInception, 8, 3},  {kInception, 8, 4},
      {kInception, 8, 5},  {kDensenet, 2, 3},   {kDensenet, 2, 5},
      {kDensenet, 2, 6},   {kDensenet, 2, 7},   {kDensenet, 2, 8},
      {kDensenet, 2, 10},  {kDensenet, 4, 7},
  };
}

/// M from 14 to 24 GB on 4 and 8 GPUs: the DP does the work and the period
/// search ends in a couple of probes. Three deeper gpt2-xl cells (48
/// layers) stress the DP's per-state cost.
std::vector<Cell> roomy_deck() {
  std::vector<Cell> deck;
  for (const NetSpec& net : {kResnet50, kResnet101, kInception, kDensenet}) {
    for (const int gpus : {4, 8}) {
      for (const double memory_gb : {16.0, 20.0, 24.0}) {
        deck.push_back({net, gpus, memory_gb});
      }
    }
  }
  deck.push_back({kGpt2, 4, 16});
  deck.push_back({kGpt2, 4, 24});
  deck.push_back({kGpt2, 8, 20});
  return deck;
}

/// Four rounds of a 26-cell deck put at least ten plans beyond the p90.
constexpr int kMinRounds = 4;

/// A set-up takes a few milliseconds, so it is repeated often enough to
/// span a few tenths of a second; `setup_s` is the median.
constexpr int kSetupRepeats = 45;

/// Planned in every set-up, so thread start-up and first-touch costs are
/// paid before the first timed plan; its network is in both decks.
const Cell kWarmup{kInception, 4, 16};

}  // namespace

RunResult run_plan_workload(const RunConfig& config) {
  const bool tight = config.workload == "plan_tight";
  const std::vector<Cell> deck = tight ? tight_deck() : roomy_deck();
  RunResult result;
  Tracer tracer(config.trace);

  // --- set-up: load every network of the deck, plan the warm-up cell ---
  std::map<std::string, Chain> chains;
  std::vector<double> setup_seconds, setup_cpu_seconds;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const double cpu_start = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    chains.clear();
    for (const Cell& cell : deck) {
      if (!chains.count(cell.net.label())) {
        chains.emplace(cell.net.label(), load_network(cell.net, tracer, result));
      }
    }
    const std::optional<Plan> warm =
        plan_madpipe(chains.at(kWarmup.net.label()), kWarmup.platform());
    result.check(warm.has_value(), "warm-up cell has no plan");
    setup_seconds.push_back(seconds_between(start, Clock::now()));
    setup_cpu_seconds.push_back(process_cpu_seconds() - cpu_start);
  }

  // --- closed loop ---
  util::Rng rng(config.seed);
  std::vector<std::size_t> order(deck.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::map<std::size_t, Plan> first_plan;  // deck index -> round-1 plan
  std::vector<std::vector<double>> walls(deck.size());  // per cell, per round
  std::vector<std::vector<double>> cpu(deck.size());
  std::vector<double> speedups;
  double phase2_wall = 0.0, planning_wall = 0.0;
  long long contiguous = 0;
  PlannerLedger ledger;
  const Clock::time_point loop_start = Clock::now();
  int rounds = 0;
  for (;;) {
    shuffle(order, rng);
    for (const std::size_t index : order) {
      const Cell& cell = deck[index];
      const Chain& chain = chains.at(cell.net.label());
      const Platform platform = cell.platform();
      const long long request = result.attempted++;
      std::optional<Plan> plan;
      try {
        if (config.trace) {
          std::optional<Plan> recomposed;
          const double cpu_start = process_cpu_seconds();
          const Clock::time_point start = Clock::now();
          {
            Scoped span(tracer, "plan.recomposed", request);
            recomposed = recompose_plan(chain, platform, request, tracer, ledger);
          }
          walls[index].push_back(seconds_between(start, Clock::now()));
          cpu[index].push_back(process_cpu_seconds() - cpu_start);
          if (recomposed) {
            probe_branch_and_bound(*recomposed, chain, platform, request, tracer,
                                   ledger);
          }
          {
            Scoped span(tracer, "check.plan_madpipe", request);
            plan = plan_madpipe(chain, platform);
          }
          result.check(recomposed.has_value() == plan.has_value() &&
                           (!plan || serve::plans_bit_identical(*recomposed, *plan)),
                       cell.label() + ": recomposed plan differs from plan_madpipe");
        } else {
          const double cpu_start = process_cpu_seconds();
          const Clock::time_point start = Clock::now();
          plan = plan_madpipe(chain, platform);
          walls[index].push_back(seconds_between(start, Clock::now()));
          cpu[index].push_back(process_cpu_seconds() - cpu_start);
        }
      } catch (const std::exception& exception) {
        ++result.failed;
        result.check(false, cell.label() + ": threw " + exception.what());
        continue;
      }
      if (!plan) {
        ++result.failed;
        result.check(false, cell.label() + ": no plan");
        continue;
      }
      if (!validate(*plan, chain, platform, request, tracer)) {
        ++result.failed;
        result.check(false, cell.label() + ": invalid pattern");
        continue;
      }
      // Periods and allocations must not depend on timing or on which
      // round planned the cell.
      const auto [it, inserted] = first_plan.emplace(index, *plan);
      result.check(inserted || serve::plans_bit_identical(it->second, *plan),
                   cell.label() + ": plan changed between rounds");
      speedups.push_back(plan->speedup(chain));
      phase2_wall += plan->stats.phase2_wall_seconds;
      planning_wall += plan->planning_seconds;
      contiguous += plan->allocation.contiguous() ? 1 : 0;
    }
    ++rounds;
    // Start another round only while its predicted end is nearer the run
    // length than stopping now would be, or while fewer than kMinRounds ran.
    const double elapsed = seconds_between(loop_start, Clock::now());
    const double round_seconds = elapsed / rounds;
    if ((rounds >= kMinRounds && elapsed + round_seconds / 2 > config.seconds) ||
        elapsed + round_seconds > kMaxLoopSeconds) {
      break;
    }
  }

  result.context["rounds"] = rounds;
  result.context["deck_cells"] = static_cast<double>(deck.size());
  result.context["plans"] = static_cast<double>(speedups.size());
  result.context["cyclic.share"] =
      planning_wall == 0 ? 0.0 : phase2_wall / planning_wall;
  result.context["schedule.contiguous_share"] =
      speedups.empty() ? 0.0
                       : static_cast<double>(contiguous) / speedups.size();
  // Each cell's typical cost is its median wall time over the rounds, so
  // one disturbed round does not move the result; the rate and p50 are
  // taken over those per-cell medians, the p90 over every plan. Wall time
  // is what the caller waits for; CPU time of every planner thread goes to
  // the context, and their ratio is the planner's parallelism. The traced
  // run times the recomposed plan instead of plan_madpipe.
  const auto per_cell = [](const std::vector<std::vector<double>>& samples) {
    std::vector<double> medians;
    for (const std::vector<double>& cell : samples) {
      if (!cell.empty()) medians.push_back(median(cell));
    }
    return medians;
  };
  const auto total = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum;
  };
  const std::vector<double> cell_wall = per_cell(walls);
  const std::vector<double> cell_cpu = per_cell(cpu);
  std::vector<double> plan_wall;
  for (const std::vector<double>& cell : walls) {
    plan_wall.insert(plan_wall.end(), cell.begin(), cell.end());
  }
  const double plan_s_p90 = quantile(plan_wall, 0.9);
  result.context["op_s_tail_plans_beyond"] = static_cast<double>(
      std::count_if(plan_wall.begin(), plan_wall.end(),
                    [&](double seconds) { return seconds > plan_s_p90; }));
  result.context["plan_cpu_s_p50"] = median(cell_cpu);
  result.context["parallelism"] =
      cell_wall.empty() ? 0.0 : total(cell_cpu) / total(cell_wall);
  result.context["setup_cpu_s"] = median(setup_cpu_seconds);
  if (config.trace) {
    planner_layer_metrics(tracer, ledger, result);
    result.metrics["trace.op_s_p50"] = median(cell_wall);
  } else {
    result.metrics["setup_s"] = median(setup_seconds);
    // plans_per_s, plan_s_p50 and plan_s_p90; every plan is cold.
    result.metrics["ops_per_s"] =
        cell_wall.empty() ? 0.0 : cell_wall.size() / total(cell_wall);
    result.metrics["op_s_p50"] = median(cell_wall);
    result.metrics["op_s_tail"] = plan_s_p90;
    result.metrics["cold_s_p50"] = median(cell_wall);
    result.metrics["speedup_geomean"] = geomean(speedups);
  }
  finish_trace(config, tracer, result);
  return result;
}

}  // namespace perfbench
