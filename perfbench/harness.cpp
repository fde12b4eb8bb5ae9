#include "harness.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace perfbench {

void RunResult::check(bool ok, const std::string& what) {
  if (!ok && check_failures.size() < 20) check_failures.push_back(what);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::map<int, double> thread_cpu_seconds() {
  std::map<int, double> seconds;
  const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return seconds;
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid <= 0) continue;
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised name: state is field 3, utime 14,
    // stime 15.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int index = 3; index <= 15 && fields >> field; ++index) {
      if (index == 14) utime = std::atof(field.c_str());
      if (index == 15) stime = std::atof(field.c_str());
    }
    seconds[tid] = (utime + stime) * tick;
  }
  closedir(dir);
  return seconds;
}

int Tracer::open(const std::string& name, long long request) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

int Tracer::add(const std::string& name, std::int64_t start_ns,
                std::int64_t end_ns, int parent, long long request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.seconds();
  }
  return total;
}

long long Tracer::count(const std::string& name) const {
  return std::count_if(spans_.begin(), spans_.end(),
                       [&](const Span& span) { return span.name == name; });
}

double Tracer::mean_seconds(const std::string& name) const {
  const long long n = count(name);
  return n == 0 ? 0.0 : total_seconds(name) / static_cast<double>(n);
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_seconds[static_cast<std::size_t>(span.parent)] += span.seconds();
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += std::max(0.0, spans_[i].seconds() - child_seconds[i]);
  }
  return self;
}

bool Tracer::write(const std::string& path) const {
  madpipe::json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value("perfbench-trace-v1");
  w.key("spans");
  w.begin_array();
  for (const Span& span : spans_) {
    w.begin_object();
    w.key("name");
    w.value(span.name);
    w.key("start_ns");
    w.value(static_cast<long long>(span.start_ns));
    w.key("end_ns");
    w.value(static_cast<long long>(span.end_ns));
    w.key("parent");
    w.value(span.parent);
    w.key("request");
    w.value(span.request);
    w.end_object();
  }
  w.end_array();
  w.key("self_seconds_by_layer");
  w.begin_object();
  for (const auto& [layer, seconds] : self_seconds_by_layer()) {
    w.key(layer);
    w.value(seconds);
  }
  w.end_object();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(position));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
