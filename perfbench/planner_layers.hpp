// The planner's layers as the benchmark sees them from outside: loading a
// network (models), and a plan recomposed from the planner's public phase
// functions (madpipe phase 1, then schedule 1F1B* or the cyclic period
// search, then the core verifier), each call under its own span.
#pragma once

#include <optional>
#include <string>

#include "core/chain.hpp"
#include "core/plan.hpp"
#include "core/platform.hpp"
#include "harness.hpp"

namespace perfbench {

struct NetSpec {
  std::string name;
  int length = 0;  ///< coarsen to this many layers; 0 = the full chain
  std::string label() const;
};

struct Cell {
  NetSpec net;
  int gpus = 2;
  double memory_gb = 8.0;
  std::string label() const;
  madpipe::Platform platform() const;
};

/// Build `net` through models::build_network, write it as a v2 JSON profile
/// and parse it back, as a user loading a profile would. Both calls are
/// spans (models.build_network, models.profile_parse); the parsed chain must
/// equal the built one.
madpipe::Chain load_network(const NetSpec& net, Tracer& tracer,
                            RunResult& result);

/// Counters summed over recomposed plans, taken from the phase results
/// (Phase1Result::stats, PeriodSearchResult), never from Plan::stats.
struct PlannerLedger {
  long long plans = 0;
  long long contiguous = 0;
  long long dp_probes = 0;  ///< launched, speculative ones included
  long long phase1_probes = 0;
  long long dp_states = 0;
  long long memo_hits = 0;
  long long memo_lookups = 0;
  long long transition_hits = 0;
  long long transition_lookups = 0;
  long long state_budget_hits = 0;
  long long phase2_runs = 0;
  long long phase2_probes = 0;
  long long phase2_speculative_probes = 0;
  long long phase2_speculative_hits = 0;
  long long bb_feasible = 0;
  long long bb_infeasible = 0;
  long long bb_nodes_feasible = 0;
  long long bb_nodes_infeasible = 0;
  long long bb_budget_hits = 0;
};

/// Plan as plan_madpipe does, one public phase at a time: spans
/// madpipe.phase1, then schedule.one_f_one_b (contiguous allocation) or
/// cyclic.phase2 (find_min_period from the phase-1 period). Returns nullopt
/// when no plan exists.
std::optional<madpipe::Plan> recompose_plan(const madpipe::Chain& chain,
                                            const madpipe::Platform& platform,
                                            long long request, Tracer& tracer,
                                            PlannerLedger& ledger);

/// Time the two kinds of branch-and-bound probe a period search is made of:
/// bb_schedule on the plan's cyclic problem at its period (spans
/// cyclic.bb_feasible) and 0.2% below it (usually cyclic.bb_infeasible).
/// Contiguous plans have no cyclic problem and are skipped.
void probe_branch_and_bound(const madpipe::Plan& plan,
                            const madpipe::Chain& chain,
                            const madpipe::Platform& platform, long long request,
                            Tracer& tracer, PlannerLedger& ledger);

/// validate_pattern under a core.validate span; false when invalid.
bool validate(const madpipe::Plan& plan, const madpipe::Chain& chain,
              const madpipe::Platform& platform, long long request,
              Tracer& tracer);

/// Fill the madpipe/cyclic/schedule/core/models per-layer metrics from the
/// recorded spans and the ledger.
void planner_layer_metrics(const Tracer& tracer, const PlannerLedger& ledger,
                           RunResult& result);

}  // namespace perfbench
