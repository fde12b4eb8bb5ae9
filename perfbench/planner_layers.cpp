#include "planner_layers.hpp"

#include <cstdio>

#include "core/pattern.hpp"
#include "core/types.hpp"
#include "cyclic/bb_scheduler.hpp"
#include "cyclic/period_search.hpp"
#include "cyclic/stage_graph.hpp"
#include "madpipe/search.hpp"
#include "models/profile_io.hpp"
#include "models/zoo.hpp"
#include "schedule/one_f_one_b.hpp"

namespace perfbench {

using namespace madpipe;

std::string NetSpec::label() const {
  return length == 0 ? name : name + "-" + std::to_string(length);
}

std::string Cell::label() const {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s P%d M%g", net.label().c_str(),
                gpus, memory_gb);
  return buffer;
}

Platform Cell::platform() const { return Platform{gpus, memory_gb * GB, 12 * GB}; }

Chain load_network(const NetSpec& net, Tracer& tracer, RunResult& result) {
  models::NetworkConfig config;
  config.network = net.name;
  config.chain_length = net.length;
  std::optional<Chain> built;
  {
    Scoped span(tracer, "models.build_network", 0);
    built = models::build_network(config);
  }
  const std::string text = models::profile_to_json_string(*built);
  models::ProfileParseResult parsed;
  {
    Scoped span(tracer, "models.profile_parse", 0);
    parsed = models::try_profile_from_string(text);
  }
  result.check(parsed.ok(), net.label() + ": profile parse failed: " +
                                parsed.error);
  if (!parsed.ok()) return *built;
  // The v2 profile drops nothing the planner reads, so the parsed chain
  // must equal the built one.
  result.check(*parsed.chain == *built,
               net.label() + ": profile round trip changed the chain");
  return std::move(*parsed.chain);
}

std::optional<Plan> recompose_plan(const Chain& chain, const Platform& platform,
                                   long long request, Tracer& tracer,
                                   PlannerLedger& ledger) {
  std::optional<Phase1Result> phase1;
  {
    Scoped span(tracer, "madpipe.phase1", request);
    phase1 = madpipe_phase1(chain, platform);
  }
  const PlannerStats& s = phase1->stats;
  ledger.dp_probes += s.dp_probes;
  ledger.phase1_probes += s.phase1_probes;
  ledger.dp_states += s.dp_states;
  ledger.memo_hits += s.memo_hits;
  ledger.memo_lookups += s.memo_probes + s.memo_child_lookups;
  ledger.transition_hits += s.transition_hits;
  ledger.transition_lookups += s.transition_lookups;
  ledger.state_budget_hits += s.state_budget_hits;
  ++ledger.plans;
  if (!phase1->feasible()) return std::nullopt;

  const Allocation& allocation = *phase1->allocation;
  std::optional<Plan> plan;
  if (allocation.contiguous()) {
    ++ledger.contiguous;
    Scoped span(tracer, "schedule.one_f_one_b", request);
    plan = plan_one_f_one_b(allocation, chain, platform);
  } else {
    std::optional<PeriodSearchResult> phase2;
    {
      Scoped span(tracer, "cyclic.phase2", request);
      phase2 = find_min_period(allocation, chain, platform, phase1->period);
    }
    ++ledger.phase2_runs;
    ledger.phase2_probes += phase2->probes;
    ledger.phase2_speculative_probes += phase2->speculative_probes;
    ledger.phase2_speculative_hits += phase2->speculative_hits;
    if (phase2->feasible) {
      plan = Plan{"madpipe", allocation, phase2->pattern, 0.0, 0.0, {}};
    }
  }
  if (!plan) return std::nullopt;
  plan->planner = "madpipe";
  plan->phase1_period = phase1->period;
  return plan;
}

void probe_branch_and_bound(const Plan& plan, const Chain& chain,
                            const Platform& platform, long long request,
                            Tracer& tracer, PlannerLedger& ledger) {
  if (plan.allocation.contiguous()) return;
  const CyclicProblem problem =
      build_cyclic_problem(plan.allocation, chain, platform);
  for (const double factor : {1.0, 1.0 - 2e-3}) {
    const std::int64_t start = now_ns();
    const BBResult probe = bb_schedule(problem, plan.allocation, chain, platform,
                                       plan.period() * factor);
    tracer.add(probe.feasible ? "cyclic.bb_feasible" : "cyclic.bb_infeasible",
               start, now_ns(), -1, request);
    const long long nodes = static_cast<long long>(probe.nodes_visited);
    if (probe.feasible) {
      ++ledger.bb_feasible;
      ledger.bb_nodes_feasible += nodes;
    } else {
      ++ledger.bb_infeasible;
      ledger.bb_nodes_infeasible += nodes;
    }
    ledger.bb_budget_hits += probe.node_budget_hit ? 1 : 0;
  }
}

bool validate(const Plan& plan, const Chain& chain, const Platform& platform,
              long long request, Tracer& tracer) {
  Scoped span(tracer, "core.validate", request);
  return validate_pattern(plan.pattern, plan.allocation, chain, platform).valid;
}

namespace {

double ratio(long long num, long long den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void planner_layer_metrics(const Tracer& tracer, const PlannerLedger& ledger,
                           RunResult& result) {
  auto& m = result.metrics;
  const double phase1_total = tracer.total_seconds("madpipe.phase1");
  const double phase2_total = tracer.total_seconds("cyclic.phase2");
  const double one_f_one_b_total = tracer.total_seconds("schedule.one_f_one_b");
  const double plans = static_cast<double>(ledger.plans);
  m["madpipe.phase1_s"] = tracer.mean_seconds("madpipe.phase1");
  m["madpipe.dp_probe_s"] =
      ledger.phase1_probes == 0 ? 0.0 : phase1_total / ledger.phase1_probes;
  m["madpipe.dp_states"] = plans == 0 ? 0.0 : ledger.dp_states / plans;
  m["madpipe.states_per_s"] =
      phase1_total == 0 ? 0.0 : ledger.dp_states / phase1_total;
  m["madpipe.probes"] = plans == 0 ? 0.0 : ledger.phase1_probes / plans;
  m["madpipe.speculative_waste"] =
      ratio(ledger.dp_probes - ledger.phase1_probes, ledger.dp_probes);
  m["madpipe.memo_hit_ratio"] = ratio(ledger.memo_hits, ledger.memo_lookups);
  m["madpipe.transition_hit_ratio"] =
      ratio(ledger.transition_hits, ledger.transition_lookups);
  m["madpipe.state_budget_hits"] = static_cast<double>(ledger.state_budget_hits);

  const long long phase2_launched = ledger.phase2_probes +
                                    ledger.phase2_speculative_probes -
                                    ledger.phase2_speculative_hits;
  m["cyclic.phase2_s"] = tracer.mean_seconds("cyclic.phase2");
  m["cyclic.probes"] = ratio(ledger.phase2_probes, ledger.phase2_runs);
  m["cyclic.speculative_waste"] =
      ratio(phase2_launched - ledger.phase2_probes, phase2_launched);
  m["cyclic.bb_feasible_s"] = tracer.mean_seconds("cyclic.bb_feasible");
  m["cyclic.bb_infeasible_s"] = tracer.mean_seconds("cyclic.bb_infeasible");
  m["cyclic.bb_nodes_feasible"] =
      ratio(ledger.bb_nodes_feasible, ledger.bb_feasible);
  m["cyclic.bb_nodes_infeasible"] =
      ratio(ledger.bb_nodes_infeasible, ledger.bb_infeasible);
  m["cyclic.budget_hit_ratio"] =
      ratio(ledger.bb_budget_hits, ledger.bb_feasible + ledger.bb_infeasible);
  const double plan_wall = phase1_total + phase2_total + one_f_one_b_total;
  m["cyclic.share"] = plan_wall == 0 ? 0.0 : phase2_total / plan_wall;

  m["schedule.one_f_one_b_s"] = tracer.mean_seconds("schedule.one_f_one_b");
  m["schedule.contiguous_share"] = ratio(ledger.contiguous, ledger.plans);
  m["core.validate_s"] = tracer.mean_seconds("core.validate");
  m["models.build_network_s"] = tracer.mean_seconds("models.build_network");
  m["models.profile_parse_s"] = tracer.mean_seconds("models.profile_parse");
}

}  // namespace perfbench
