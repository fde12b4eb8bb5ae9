#include "cyclic/period_search.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/threading.hpp"

namespace madpipe {

namespace {

std::uint64_t period_key(Seconds period) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(period));
  std::memcpy(&bits, &period, sizeof(bits));
  return bits;
}

/// A node of the bisection's outcome tree: the period to probe plus the loop
/// state that determines both children. `phase` 0 = the initial ub probe,
/// 1 = the lb probe, 2 = a midpoint probe of the main loop.
struct Node {
  Seconds period;
  int phase;
  Seconds lb, ub;
  int probes;  ///< consumed count *after* this probe
};

/// The node the search probes next when `node`'s probe returns `feasible`,
/// or nothing when the search stops there — with the sequential loop's own
/// guards and floating-point expressions, so every period is bit-identical
/// to the one a sequential run would probe.
std::optional<Node> next_node(const Node& node, bool feasible,
                              const PeriodSearchOptions& options) {
  Seconds lb = node.lb, ub = node.ub;
  switch (node.phase) {
    case 0:
      // The serial period is schedulable whenever anything is: if it fails,
      // the allocation's activation floor alone exceeds memory.
      if (!feasible) return std::nullopt;
      return Node{lb, 1, lb, ub, node.probes + 1};
    case 1:
      if (feasible) return std::nullopt;  // lower bound feasible: optimal
      break;
    default:
      // Invariant: lb infeasible, ub feasible (with its pattern retained).
      (feasible ? ub : lb) = node.period;
      break;
  }
  if (node.probes >= options.max_probes ||
      ub - lb <= options.relative_precision * ub) {
    return std::nullopt;
  }
  return Node{0.5 * (lb + ub), 2, lb, ub, node.probes + 1};
}

/// Whether the search can still reach `node` from `root`. Midpoint
/// intervals of a bisection are nested or disjoint, so a loop node descends
/// from a loop root exactly when its interval lies inside the root's.
bool descends(const Node& node, const Node& root) {
  switch (root.phase) {
    case 0:
      return true;
    case 1:
      return node.phase >= 1;
    default:
      return node.phase == 2 && node.lb >= root.lb && node.ub <= root.ub;
  }
}

/// Odds that a probe whose verdict is not yet known ends infeasible. Triage
/// settles the cheap probes within moments, so the open ones are nearly all
/// expensive, and those mostly end infeasible: 108 of 156 on the plan_tight
/// cells.
constexpr double kPredictInfeasible = 0.7;

/// Speculative branch-and-bound probe runner.
///
/// The bisection's control flow depends on each probe only through its
/// boolean verdict, so the periods it may demand form a two-way outcome
/// tree (next_node). Up to W lanes share one search state. A lane that is
/// free takes the most likely period nobody has started: a best-first walk
/// from the period the search demands now, following the known verdicts
/// and weighting the two children of every open probe by
/// kPredictInfeasible. It probes that period with `triage_nodes` nodes
/// first — exact whenever it ends within them, since the DFS order does not
/// depend on the budget — and with the full budget only when it did not.
/// Whenever a verdict arrives, the search consumes every verdict it now
/// can, in its own order, and cancels the probes it can no longer reach.
/// Consumed results — pattern, period and counters — are those of a
/// sequential run for every W.
class ProbeRunner {
 public:
  ProbeRunner(const PeriodProbe& probe, std::size_t triage_nodes,
              const PeriodSearchOptions& options, const Node& root)
      : probe_(probe),
        triage_nodes_(std::min(triage_nodes, options.bb.max_nodes)),
        options_(options),
        root_(root) {}

  PeriodSearchResult run() {
    const int width = par::speculation_width(options_.speculation);
    const std::size_t lanes =
        options_.workers != 0
            ? std::min<std::size_t>(options_.workers, width)
            : static_cast<std::size_t>(width);
    if (lanes <= 1) {
      lane();
    } else {
      par::ThreadPool::shared().run(
          lanes,
          [](void* self, std::size_t) {
            static_cast<ProbeRunner*>(self)->lane();
          },
          this);
    }
    return std::move(result_);
  }

 private:
  struct Entry {
    Node node;
    bool speculative;  ///< launched before the search demanded it
    bool done = false;
    bool consumed = false;
    BBResult result;
    std::atomic<bool> cancel{false};
  };

  void lane() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (root_) {
      Entry* entry = pick();
      if (entry == nullptr) {
        wake_.wait(lock);
        continue;
      }
      lock.unlock();
      BBResult result;
      try {
        result = probe(*entry);
      } catch (...) {
        lock.lock();
        stop();
        throw;
      }
      lock.lock();
      if (result.cancelled) ++result_.cancelled_probes;
      if (entry->cancel.load(std::memory_order_relaxed)) {
        entries_.erase(period_key(entry->node.period));
      } else {
        entry->result = std::move(result);
        entry->done = true;
        advance();
      }
      wake_.notify_all();
    }
  }

  BBResult probe(Entry& entry) const {
    const Seconds period = entry.node.period;
    BBResult result = probe_(period, triage_nodes_, entry.cancel);
    if (result.node_budget_hit && triage_nodes_ < options_.bb.max_nodes) {
      result = probe_(period, options_.bb.max_nodes, entry.cancel);
    }
    return result;
  }

  /// The most likely period no lane has started, registered as started; or
  /// null when every period the search can reach is started or settled.
  Entry* pick() {
    struct Candidate {
      double odds;
      int depth;
      Node node;
      bool operator<(const Candidate& other) const {
        return odds != other.odds ? odds < other.odds : depth > other.depth;
      }
    };
    std::priority_queue<Candidate> frontier;
    frontier.push({1.0, 0, *root_});
    while (!frontier.empty()) {
      const Candidate c = frontier.top();
      frontier.pop();
      const auto it = entries_.find(period_key(c.node.period));
      if (it == entries_.end()) {
        auto entry = std::make_unique<Entry>();
        entry->node = c.node;
        entry->speculative = c.depth > 0;
        if (entry->speculative) ++result_.speculative_probes;
        Entry* started = entry.get();
        entries_.emplace(period_key(c.node.period), std::move(entry));
        return started;
      }
      const Entry& entry = *it->second;
      for (const bool feasible : {false, true}) {
        if (entry.done && entry.result.feasible != feasible) continue;
        const double odds =
            entry.done ? 1.0
                       : (feasible ? 1.0 - kPredictInfeasible
                                   : kPredictInfeasible);
        if (const auto child = next_node(c.node, feasible, options_)) {
          frontier.push({c.odds * odds, c.depth + 1, *child});
        }
      }
    }
    return nullptr;
  }

  /// Consume every verdict the search can consume now, in its own order,
  /// then drop or cancel the entries it can no longer reach.
  void advance() {
    while (root_) {
      const auto it = entries_.find(period_key(root_->period));
      if (it == entries_.end() || !it->second->done) break;
      Entry& entry = *it->second;
      const BBResult& bb = entry.result;
      ++result_.probes;
      if (entry.speculative || entry.consumed) ++result_.speculative_hits;
      entry.consumed = true;
      result_.bb_nodes += static_cast<long long>(bb.nodes_visited);
      result_.bb_leaves += static_cast<long long>(bb.leaves);
      if (bb.node_budget_hit) {
        ++result_.budget_hit_probes;
        log::debug("cyclic probe at T=", root_->period,
                   " hit the node budget");
      }
      if (bb.feasible) {
        result_.feasible = true;
        result_.pattern = bb.pattern;
        result_.period = root_->period;
      }
      root_ = next_node(*root_, bb.feasible, options_);
    }
    if (!root_) {
      stop();
      return;
    }
    const std::uint64_t root_key = period_key(root_->period);
    for (auto it = entries_.begin(); it != entries_.end();) {
      Entry& entry = *it->second;
      if (it->first == root_key || descends(entry.node, *root_)) {
        ++it;
      } else if (entry.done) {
        it = entries_.erase(it);
      } else {
        entry.cancel.store(true, std::memory_order_relaxed);
        ++it;
      }
    }
  }

  /// End the search: cancel every running probe.
  void stop() {
    root_.reset();
    for (auto& [key, entry] : entries_) {
      entry->cancel.store(true, std::memory_order_relaxed);
    }
    wake_.notify_all();
  }

  const PeriodProbe& probe_;
  const std::size_t triage_nodes_;
  const PeriodSearchOptions& options_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::optional<Node> root_;  ///< the probe the search demands; empty = done
  /// Started probes by period bits; a running entry is erased only by the
  /// lane that runs it.
  std::unordered_map<std::uint64_t, std::unique_ptr<Entry>> entries_;
  PeriodSearchResult result_;
};

}  // namespace

PeriodSearchResult bisect_min_period(Seconds lb, Seconds ub,
                                     const PeriodProbe& probe,
                                     std::size_t triage_nodes,
                                     const PeriodSearchOptions& options) {
  MP_EXPECT(lb <= ub, "period search needs lb <= ub");
  ProbeRunner runner(probe, triage_nodes, options, Node{ub, 0, lb, ub, 1});
  return runner.run();
}

PeriodSearchResult find_min_period(const Allocation& allocation,
                                   const Chain& chain, const Platform& platform,
                                   Seconds lower_hint,
                                   const PeriodSearchOptions& options) {
  obs::Span span("phase2_period_search", obs::kCatPlanner);
  const auto t0 = std::chrono::steady_clock::now();
  const CyclicProblem problem =
      build_cyclic_problem(allocation, chain, platform);
  const Seconds lb = std::max(problem.min_period, lower_hint);
  const Seconds ub = std::max(problem.serial_period, lb);

  const PeriodProbe probe = [&](Seconds period, std::size_t max_nodes,
                                const std::atomic<bool>& cancel) {
    BBOptions bb = options.bb;
    bb.max_nodes = max_nodes;
    return bb_schedule(problem, allocation, chain, platform, period, bb,
                       cancel);
  };
  // A feasible probe usually succeeds within its first DFS descent (one node
  // per op); twice that settles most cheap probes without the full budget.
  PeriodSearchResult result =
      bisect_min_period(lb, ub, probe, 2 * problem.ops.size(), options);

  span.arg("probes", result.probes);
  span.arg("feasible", result.feasible ? 1 : 0);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace madpipe
