// Shared pieces of the repo benchmark: the run configuration, the result a
// workload fills in, an in-memory span recorder for the traced run, and the
// small statistics helpers every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// What one run reports. `metrics` holds the end-to-end metrics (untraced
/// run) or the per-layer metrics (traced run); `context` holds the
/// workload-property shares and sample counts printed beside them.
struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> check_failures;  ///< output checks that failed
  std::map<std::string, double> metrics;
  std::map<std::string, double> context;

  void check(bool ok, const std::string& what);
};

/// One span: a call into a layer's public function, timed from outside.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "cyclic.phase2"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
  long long request = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Keeps spans in memory; written out once, when the run ends. Single
/// threaded: every workload drives the library from one caller thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int open(const std::string& name, long long request);
  void close(int index);
  /// Record an already-measured interval (e.g. a server-reported phase);
  /// returns its index, -1 when disabled.
  int add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
           int parent, long long request);

  const std::vector<Span>& spans() const { return spans_; }
  /// Mean duration of the spans called `name` (0 when there are none).
  double mean_seconds(const std::string& name) const;
  double total_seconds(const std::string& name) const;
  long long count(const std::string& name) const;
  /// Self time per layer: each span's duration minus the part its children
  /// cover, summed by the layer prefix of the span name.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Write every span as one JSON document; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call; a no-op when the tracer is disabled.
class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name, long long request)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name, request) : -1) {}
  ~Scoped() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

std::int64_t now_ns();

/// CPU time of the whole process (every thread), in seconds.
double process_cpu_seconds();

/// On-CPU seconds of each thread of this process, by thread id, from
/// /proc/self/task (clock-tick resolution).
std::map<int, double> thread_cpu_seconds();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double geomean(const std::vector<double>& values);
double mean(const std::vector<double>& values);

double peak_rss_mb();

/// Fisher-Yates shuffle driven by a seeded generator (util::Rng).
template <typename Rng>
void shuffle(std::vector<std::size_t>& order, Rng& rng) {
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
  }
}

}  // namespace perfbench
