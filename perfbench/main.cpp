// The repo benchmark: runs one named workload from a seed, checks every
// output, and prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). See README.md in this directory.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Standard output: one context line (host stamp, workload-property shares,
// sample counts, failed checks), then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, in BENCHMARK.json order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"ops_per_s", "1/s"},
    {"op_s_p50", "s"},      {"op_s_tail", "s"},
    {"cold_s_p50", "s"},    {"speedup_geomean", "x"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics, in BENCHMARK.json order. A traced run prints all
/// of them; a layer the workload does not reach reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"madpipe.phase1_s", "s"}, {"madpipe.dp_probe_s", "s"},
    {"madpipe.dp_states", "count"}, {"madpipe.states_per_s", "1/s"},
    {"madpipe.probes", "count"}, {"madpipe.speculative_waste", "ratio"},
    {"madpipe.memo_hit_ratio", "ratio"}, {"madpipe.transition_hit_ratio", "ratio"},
    {"madpipe.state_budget_hits", "count"}, {"cyclic.phase2_s", "s"},
    {"cyclic.probes", "count"}, {"cyclic.speculative_waste", "ratio"},
    {"cyclic.bb_feasible_s", "s"}, {"cyclic.bb_infeasible_s", "s"},
    {"cyclic.bb_nodes_feasible", "count"}, {"cyclic.bb_nodes_infeasible", "count"},
    {"cyclic.budget_hit_ratio", "ratio"}, {"cyclic.share", "ratio"},
    {"schedule.one_f_one_b_s", "s"}, {"schedule.contiguous_share", "ratio"},
    {"core.validate_s", "s"}, {"models.build_network_s", "s"},
    {"models.profile_parse_s", "s"}, {"serve.parse_s", "s"},
    {"serve.canonicalize_s", "s"}, {"serve.serialize_s", "s"},
    {"serve.cache_s", "s"}, {"serve.queue_s", "s"},
    {"serve.plan_s", "s"}, {"serve.hit_ratio", "ratio"},
    {"serve.coalesced", "count"}, {"serve.inline_share", "ratio"},
    {"net.overhead_s", "s"}, {"net.gen_lag_s_p99", "s"},
    {"net.bytes_in", "bytes"}, {"net.bytes_out", "bytes"},
    {"net.shed", "count"}, {"trace.op_s_p50", "s"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "plan_tight|plan_roomy|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               message);
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty()) usage("--workload is required");
  if (!(config.seconds > 0)) usage("--seconds must be positive");
  return config;
}

void print_context(const RunConfig& config, const RunResult& result) {
  madpipe::json::Writer w;
  w.begin_object();
  w.key("perfbench");
  w.value("context");
  w.key("host");
  w.begin_object();
  w.key("cpu_model");
  w.value(cpu_model());
  w.key("nproc");
  w.value(static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.key("hardware_concurrency");
  w.value(static_cast<long long>(std::thread::hardware_concurrency()));
  w.key("build_type");
  w.value(PERFBENCH_BUILD_TYPE);
  w.key("compiler");
  w.value(PERFBENCH_COMPILER);
  w.end_object();
  w.key("workload");
  w.value(config.workload);
  w.key("seed");
  w.value(static_cast<long long>(config.seed));
  w.key("seconds");
  w.value(config.seconds);
  w.key("trace");
  w.value(config.trace);
  w.key("fail_frac");
  w.value(result.attempted == 0
              ? 0.0
              : static_cast<double>(result.failed) / result.attempted);
  w.key("properties");
  w.begin_object();
  for (const auto& [name, value] : result.context) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("check_failures");
  w.begin_array();
  for (const std::string& failure : result.check_failures) w.value(failure);
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

void print_result(const RunConfig& config, RunResult& result) {
  madpipe::json::Writer w;
  w.begin_object();
  w.key("correct");
  w.value(result.check_failures.empty());
  w.key("attempted");
  w.value(result.attempted);
  w.key("failed");
  w.value(result.failed);
  w.key("metrics");
  w.begin_object();
  auto metric = [&](const std::string& name, const std::string& unit) {
    w.key(name);
    w.begin_object();
    w.key("value");
    w.value(result.metrics.count(name) ? result.metrics.at(name) : 0.0);
    w.key("unit");
    w.value(unit);
    w.end_object();
  };
  if (config.trace) {
    for (const MetricSpec& spec : kPerLayer) metric(spec.name, spec.unit);
  } else {
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    for (const MetricSpec& spec : kEndToEnd) metric(spec.name, spec.unit);
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

namespace perfbench {

void finish_trace(const RunConfig& config, const Tracer& tracer,
                  RunResult& result) {
  if (!config.trace) return;
  for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
    result.context["self_s." + layer] = seconds;
  }
  if (config.trace_dir.empty()) return;
  const std::string path = config.trace_dir + "/trace-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  result.check(tracer.write(path), "cannot write " + path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const RunConfig config = parse_args(argc, argv);
  RunResult result;
  try {
    if (config.workload == "plan_tight" || config.workload == "plan_roomy") {
      result = run_plan_workload(config);
    } else if (config.workload == "serve_mixed") {
      result = run_serve_workload(config);
    } else {
      usage(("unknown workload " + config.workload).c_str());
    }
  } catch (const std::exception& exception) {
    std::fprintf(stderr, "perfbench: %s\n", exception.what());
    return 1;
  }
  print_context(config, result);
  print_result(config, result);
  std::fflush(stdout);
  return 0;
}
