// serve_mixed: an open loop at one fixed rate against an in-process
// NetServer/PlanService over loopback, then a saturated phase of pipelined
// hits, then an in-process replay of the loop's requests. One generator
// thread drives at most four connections.
//
// The seeded mix: hits on a hot key set, sent as `network` requests and as
// inline v2 `profile_text`; power-of-two-rescaled inline profiles (scaled
// hits); a small share of cold misses on cheap roomy cells, each a new key;
// and memory-infeasible requests (negative hits). Cold misses go on their
// own connection, so in-order delivery on a connection never makes a hit
// wait behind a plan.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <set>

#include "madpipe/planner.hpp"
#include "models/profile_io.hpp"
#include "planner_layers.hpp"
#include "serve/net/server.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace madpipe;

namespace {


/// Open-loop requests per second. On a 4-CPU Xeon this keeps the busiest
/// server thread about half busy (context `server_busiest_thread_share`),
/// where queueing shows but the server keeps up: 1500/s left it about 22%
/// busy, 6000/s 67%, and at 12000/s the queue grew without bound (README.md).
constexpr double kRate = 4000.0;
constexpr int kConnections = 4;
constexpr int kSaturatedWindow = 16;  ///< frames in flight per connection
constexpr double kDrainSeconds = 10.0;
/// Set-ups per run (about 0.1 s each); `setup_s` is the median.
constexpr int kSetupRepeats = 15;
/// Cold misses re-planned in-process after the loop for the bit-identity
/// check.
constexpr int kMissSamples = 16;
/// Size of the hit-replay mix (cycled for a fifth of the run), and fresh
/// miss keys planned the same way, spread through the replay.
constexpr int kReplays = 5000;
constexpr int kColdReplays = 32;

enum class Kind { Network, Inline, Scaled, Negative, Miss };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::Network: return "network";
    case Kind::Inline: return "inline";
    case Kind::Scaled: return "scaled";
    case Kind::Negative: return "negative";
    case Kind::Miss: return "miss";
  }
  return "?";
}

/// Shares of the open-loop mix, in draw order; the rest are network hits.
/// Misses come at about 8/s, a few milliseconds of planning each, so the
/// planner worker is a few percent busy.
constexpr double kMissShare = 0.002;
constexpr double kNegativeShare = 0.045;
constexpr double kScaledShare = 0.20;
constexpr double kInlineShare = 0.35;

const NetSpec kResnet50{"resnet50", 0};
const NetSpec kInception{"inception_v3", 24};

/// Hot keys: cheap roomy cells, planned during set-up.
std::vector<Cell> hot_cells() {
  std::vector<Cell> cells;
  for (const NetSpec& net : {kResnet50, kInception}) {
    for (const int gpus : {4, 8}) {
      for (const double memory_gb : {16.0, 24.0}) {
        cells.push_back({net, gpus, memory_gb});
      }
    }
  }
  return cells;
}

/// Memory-infeasible cells: planned (and negatively cached) during set-up.
std::vector<Cell> negative_cells() {
  return {{kResnet50, 2, 0.5}, {kResnet50, 4, 0.25},
          {kInception, 2, 0.5}, {kInception, 4, 0.25}};
}

/// Cold misses: this shape with a fresh M in [14, 24) GB each time, a few
/// milliseconds of planning.
const Cell kMissShape{kInception, 4, 0.0};

/// Latency statistics are taken per slice of the open loop (by due time),
/// so one burst of interference on the host moves one slice, not the
/// result.
constexpr int kSlices = 10;

/// Power-of-two unit changes applied to hot chains: times x 2^a, bytes x 2^b.
const std::pair<int, int> kScales[] = {{1, 0}, {-1, 1}, {2, -1}, {0, 2}};

Chain rescale(const Chain& chain, double time_factor, double byte_factor) {
  std::vector<Layer> layers;
  for (int l = 1; l <= chain.length(); ++l) {
    Layer layer = chain.layer(l);
    layer.forward_time *= time_factor;
    layer.backward_time *= time_factor;
    layer.weight_bytes *= byte_factor;
    layer.output_bytes *= byte_factor;
    layer.scratch_bytes *= byte_factor;
    layers.push_back(layer);
  }
  return Chain(chain.name(), chain.activation(0) * byte_factor, std::move(layers));
}

/// One distinct request body (everything but the id).
struct Variant {
  Kind kind = Kind::Network;
  std::string body;  ///< `"field":...` members after the id
  Chain chain;       ///< the chain the request describes
  Platform platform;
  int hot = -1;      ///< index into the hot cells (hits and scaled hits)
  double time_factor = 1.0;
};

std::string network_body(const Cell& cell) {
  json::Writer w;
  w.begin_object();
  w.key("network");
  w.begin_object();
  w.key("name");
  w.value(cell.net.name);
  w.key("length");
  w.value(cell.net.length);
  w.end_object();
  w.key("gpus");
  w.value(cell.gpus);
  w.key("memory_gb");
  w.value(cell.memory_gb);
  w.key("bandwidth_gbs");
  w.value(12.0);
  w.end_object();
  return w.str();
}

std::string inline_body(const Chain& chain, const Platform& platform) {
  json::Writer w;
  w.begin_object();
  w.key("profile_text");
  w.value(models::profile_to_json_string(chain));
  w.key("gpus");
  w.value(platform.processors);
  w.key("memory_gb");
  w.value(platform.memory_per_processor / GB);
  w.key("bandwidth_gbs");
  w.value(platform.bandwidth / GB);
  w.end_object();
  return w.str();
}

/// `{"id":"<id>",<members of body>[,"options":{"timings":true}]}\n`
std::string frame(const std::string& id, const std::string& body, bool timings) {
  std::string out = "{\"id\":\"" + id + "\",";
  out.append(body, 1, body.size() - 2);
  if (timings) out += ",\"options\":{\"timings\":true}";
  out += "}\n";
  return out;
}

/// One loopback client connection with its in-order reply queue.
struct Connection {
  net::FdGuard fd;
  std::string carry;
  std::deque<std::size_t> waiting;  ///< request indices awaiting a reply
};

struct Request {
  std::size_t variant = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t reply_ns = 0;
  std::string reply;
};

/// Read whatever is available on `conn` and hand each complete line to
/// `on_line(request index, line, now)`. Returns false on EOF or error.
template <typename OnLine>
bool drain(Connection& conn, OnLine&& on_line) {
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd.get(), buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    conn.carry.append(buffer, static_cast<std::size_t>(n));
    const std::int64_t now = now_ns();
    std::size_t start = 0;
    for (std::size_t nl; (nl = conn.carry.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      if (conn.waiting.empty()) return false;  // a reply nobody asked for
      const std::size_t index = conn.waiting.front();
      conn.waiting.pop_front();
      on_line(index, conn.carry.substr(start, nl - start), now);
    }
    conn.carry.erase(0, start);
  }
}

/// Wait until a connection is readable or `deadline_ns` passes.
void wait_readable(std::vector<Connection>& conns, std::int64_t deadline_ns) {
  pollfd fds[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    fds[c] = pollfd{conns[static_cast<std::size_t>(c)].fd.get(), POLLIN, 0};
  }
  const std::int64_t wait = std::max<std::int64_t>(0, deadline_ns - now_ns());
  const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                         static_cast<long>(wait % 1'000'000'000)};
  ::ppoll(fds, kConnections, &timeout, nullptr);
}

/// The server side of one set-up: a service, its TCP front-end and the
/// generator's connections, with the hot and negative keys planned.
struct Server {
  std::unique_ptr<serve::PlanService> service;
  std::unique_ptr<serve::net::NetServer> net;
  std::vector<Connection> conns;
};

}  // namespace

RunResult run_serve_workload(const RunConfig& config) {
  RunResult result;
  Tracer tracer(config.trace);
  util::Rng rng(config.seed);

  // --- set-up: chains, request variants, server, warm hot/negative keys ---
  std::vector<Variant> variants;
  std::vector<Cell> hot = hot_cells();
  std::vector<std::size_t> hit_variants, scaled_variants, negative_variants;
  std::map<std::string, Chain> chains;
  std::unique_ptr<Server> server;
  std::vector<double> setup_seconds, setup_cpu_seconds;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    server.reset();  // stop the previous repeat's server first
    const double cpu_start = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    variants.clear();
    hit_variants.clear();
    scaled_variants.clear();
    negative_variants.clear();
    chains.clear();
    for (const NetSpec& net : {kResnet50, kInception}) {
      chains.emplace(net.label(), load_network(net, tracer, result));
    }
    for (std::size_t h = 0; h < hot.size(); ++h) {
      const Chain& chain = chains.at(hot[h].net.label());
      const Platform platform = hot[h].platform();
      hit_variants.push_back(variants.size());
      variants.push_back({Kind::Network, network_body(hot[h]), chain, platform,
                          static_cast<int>(h), 1.0});
      hit_variants.push_back(variants.size());
      variants.push_back({Kind::Inline, inline_body(chain, platform), chain,
                          platform, static_cast<int>(h), 1.0});
      for (const auto& [a, b] : kScales) {
        const double tf = std::ldexp(1.0, a), bf = std::ldexp(1.0, b);
        Chain scaled = rescale(chain, tf, bf);
        const Platform sp{platform.processors, platform.memory_per_processor * bf,
                          platform.bandwidth * bf / tf};
        scaled_variants.push_back(variants.size());
        variants.push_back({Kind::Scaled, inline_body(scaled, sp),
                            std::move(scaled), sp, static_cast<int>(h), tf});
      }
    }
    for (const Cell& cell : negative_cells()) {
      negative_variants.push_back(variants.size());
      variants.push_back({Kind::Negative, network_body(cell),
                          chains.at(cell.net.label()), cell.platform(), -1, 1.0});
    }

    server = std::make_unique<Server>();
    serve::ServiceOptions service_options;
    service_options.workers = 1;
    server->service = std::make_unique<serve::PlanService>(service_options);
    serve::net::NetServerOptions net_options;
    net_options.dispatch_workers = 1;
    server->net =
        std::make_unique<serve::net::NetServer>(*server->service, net_options);
    for (int c = 0; c < kConnections; ++c) {
      Connection conn;
      conn.fd = net::connect_tcp("127.0.0.1", server->net->port());
      result.check(conn.fd.valid(), "cannot connect to the server");
      server->conns.push_back(std::move(conn));
    }
    // Plan the hot and negative keys: one blocking round trip each.
    Connection& warm = server->conns[0];
    for (std::size_t v = 0; v < variants.size(); ++v) {
      if (variants[v].kind != Kind::Network && variants[v].kind != Kind::Negative)
        continue;
      const std::string f = frame("warm" + std::to_string(v), variants[v].body, false);
      std::string line;
      const bool ok = net::write_all(warm.fd.get(), f.data(), f.size()) &&
                      net::read_line(warm.fd.get(), line, warm.carry);
      result.check(ok, "warm-up request got no reply");
    }
    setup_seconds.push_back(seconds_between(start, Clock::now()));
    setup_cpu_seconds.push_back(process_cpu_seconds() - cpu_start);
  }
  result.context["setup_cpu_s"] = median(setup_cpu_seconds);
  std::vector<Connection>& conns = server->conns;

  // --- the seeded open-loop schedule ---
  const double open_seconds = 0.55 * config.seconds;
  std::vector<Request> requests;
  std::set<long long> miss_keys;
  // A new key every time: M off the integer grid the hot keys use.
  auto new_miss = [&]() -> std::size_t {
    long long milli;
    do {
      milli = static_cast<long long>(rng.below(10'000));
    } while (!miss_keys.insert(milli).second);
    Cell cell = kMissShape;
    cell.memory_gb = 14.0005 + 1e-3 * static_cast<double>(milli);
    variants.push_back({Kind::Miss, network_body(cell),
                        chains.at(cell.net.label()), cell.platform(), -1, 1.0});
    return variants.size() - 1;
  };
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / kRate;
    if (t >= open_seconds) break;
    const double u = rng.uniform();
    std::size_t v;
    if (u < kMissShare) {
      v = new_miss();
    } else if (u < kMissShare + kNegativeShare) {
      v = negative_variants[rng.below(negative_variants.size())];
    } else if (u < kMissShare + kNegativeShare + kScaledShare) {
      v = scaled_variants[rng.below(scaled_variants.size())];
    } else {
      // Hot hits: inline or network, one hot key uniformly.
      const std::size_t h = rng.below(hot.size());
      const bool inline_text =
          u < kMissShare + kNegativeShare + kScaledShare + kInlineShare;
      v = hit_variants[2 * h + (inline_text ? 1 : 0)];
    }
    requests.push_back({v, static_cast<std::int64_t>(t * 1e9), 0, 0, {}});
  }
  std::vector<std::size_t> saturated_mix;  // seeded hit mix for phase 2
  for (int i = 0; i < 4096; ++i) {
    saturated_mix.push_back(rng.uniform() < 0.5
                                ? hit_variants[rng.below(hit_variants.size())]
                                : scaled_variants[rng.below(scaled_variants.size())]);
  }
  std::vector<std::size_t> cold_replays;  // fresh keys for cold_s_p50
  for (int i = 0; i < kColdReplays; ++i) cold_replays.push_back(new_miss());
  // The replay's hits follow the open loop's shares with each variant's
  // count fixed rather than drawn: about half the mix is cheap `network`
  // requests and half costlier inline ones, so a drawn sample's quantiles
  // would move as a seed moves the mix by a percent.
  std::vector<std::size_t> replay_mix;
  {
    std::vector<std::size_t> network_hits, inline_hits;
    for (std::size_t i = 0; i < hit_variants.size(); ++i) {
      (i % 2 == 0 ? network_hits : inline_hits).push_back(hit_variants[i]);
    }
    const double network_share =
        1.0 - kMissShare - kNegativeShare - kScaledShare - kInlineShare;
    for (const auto& [pool, share] :
         {std::pair{&network_hits, network_share}, {&inline_hits, kInlineShare},
          {&scaled_variants, kScaledShare}, {&negative_variants, kNegativeShare}}) {
      const long each = std::lround(share * kReplays / static_cast<double>(pool->size()));
      for (const std::size_t v : *pool) replay_mix.insert(replay_mix.end(), each, v);
    }
    shuffle(replay_mix, rng);
  }

  // --- phase 1: open loop, each request timed from its due time ---
  const serve::net::NetServerStats stats_before = server->net->stats();
  // The generator wakes for each due time with 1 ns of timer slack rather
  // than the default 50 us; the server's threads, started earlier, keep
  // theirs.
  const int default_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  const std::map<int, double> threads_before = thread_cpu_seconds();
  const std::int64_t origin = now_ns();
  for (Request& r : requests) r.due_ns += origin;
  const std::int64_t give_up =
      origin + static_cast<std::int64_t>((open_seconds + kDrainSeconds) * 1e9);
  std::size_t next = 0, replied = 0;
  int round_robin = 0;
  bool broken = false;
  auto on_reply = [&](std::size_t index, std::string line, std::int64_t now) {
    requests[index].reply = std::move(line);
    requests[index].reply_ns = now;
    ++replied;
  };
  while (replied < requests.size() && now_ns() < give_up && !broken) {
    for (std::int64_t now = now_ns();
         next < requests.size() && requests[next].due_ns <= now; ++next) {
      Request& r = requests[next];
      const Variant& variant = variants[r.variant];
      Connection& conn =
          variant.kind == Kind::Miss
              ? conns[0]
              : conns[static_cast<std::size_t>(1 + round_robin++ % (kConnections - 1))];
      const std::string f = frame("r" + std::to_string(next), variant.body, config.trace);
      r.sent_ns = now_ns();
      if (!net::write_all(conn.fd.get(), f.data(), f.size())) broken = true;
      conn.waiting.push_back(next);
    }
    wait_readable(conns, next < requests.size() ? requests[next].due_ns
                                                : now_ns() + 5'000'000);
    for (Connection& conn : conns) {
      if (!drain(conn, on_reply)) broken = true;
    }
  }
  result.check(!broken, "a connection failed during the open loop");
  const serve::net::NetServerStats stats_after = server->net->stats();
  {
    // Utilisation of the busiest server thread (the event loop, dispatch or
    // planner worker) over the open loop: the load the rate puts on it.
    const double loop_seconds = static_cast<double>(now_ns() - origin) * 1e-9;
    const int generator = static_cast<int>(::gettid());
    double busiest = 0.0;
    for (const auto& [tid, seconds] : thread_cpu_seconds()) {
      if (tid == generator) continue;
      const auto before = threads_before.find(tid);
      busiest = std::max(busiest, seconds - (before == threads_before.end()
                                                 ? 0.0
                                                 : before->second));
    }
    result.context["server_busiest_thread_share"] = busiest / loop_seconds;
  }
  prctl(PR_SET_TIMERSLACK, default_slack, 0, 0, 0);

  // --- phase 2: saturated pipelined hits on every connection ---
  const double saturated_seconds = 0.15 * config.seconds;
  long long saturated_replies = 0;
  std::size_t mix_next = 0;
  {
    std::vector<std::string> frames;
    for (std::size_t v : saturated_mix) {
      frames.push_back(frame("s", variants[v].body, false));
    }
    auto send_next = [&](Connection& conn) {
      const std::string& f = frames[mix_next++ % frames.size()];
      conn.waiting.push_back(0);
      return net::write_all(conn.fd.get(), f.data(), f.size());
    };
    bool ok = true;
    const double cpu_start = process_cpu_seconds();
    const std::int64_t start = now_ns();
    const std::int64_t stop = start + static_cast<std::int64_t>(saturated_seconds * 1e9);
    for (Connection& conn : conns) {
      for (int i = 0; i < kSaturatedWindow; ++i) ok = ok && send_next(conn);
    }
    std::vector<long long> per_slice(kSlices, 0);
    const std::int64_t hard_stop = stop + static_cast<std::int64_t>(kDrainSeconds * 1e9);
    while (ok && now_ns() < hard_stop) {
      bool pending = false;
      for (Connection& conn : conns) pending = pending || !conn.waiting.empty();
      if (!pending) break;
      wait_readable(conns, now_ns() + 5'000'000);
      for (Connection& conn : conns) {
        ok = ok && drain(conn, [&](std::size_t, std::string line, std::int64_t now) {
          ++saturated_replies;
          if (now < stop) {
            ++per_slice[static_cast<std::size_t>((now - start) * kSlices / (stop - start))];
          }
          if (line.find("\"status\":\"ok\"") == std::string::npos &&
              line.find("\"status\":\"infeasible\"") == std::string::npos) {
            ++result.failed;
            result.check(false, "saturated phase: " + line.substr(0, 200));
          }
        });
        if (now_ns() < stop && ok) {
          while (conn.waiting.size() < kSaturatedWindow && ok) ok = send_next(conn);
        }
      }
    }
    result.check(ok, "a connection failed during the saturated phase");
    const double cpu_seconds = process_cpu_seconds() - cpu_start;
    result.attempted += static_cast<long long>(mix_next);
    result.failed += static_cast<long long>(mix_next) - saturated_replies;
    std::vector<double> rates;
    for (long long n : per_slice) rates.push_back(n * kSlices / saturated_seconds);
    result.context["hit_rps_peak"] = median(rates);
    // Replies per CPU-second of the whole process: the cost of the full
    // hit path (client, TCP front end, parse, service, serialise), which
    // the host's scheduling delays do not move (README.md).
    result.metrics["ops_per_s"] =
        cpu_seconds > 0 ? static_cast<double>(saturated_replies) / cpu_seconds : 0.0;
  }

  // --- checks: every reply against a direct in-process plan ---
  PlannerLedger ledger;
  std::vector<std::optional<Plan>> direct(hot.size());  // by hot index
  std::optional<Plan> miss_direct;
  auto direct_plan = [&](const Chain& chain, const Platform& platform,
                         long long id) -> std::optional<Plan> {
    std::optional<Plan> plan;
    if (config.trace) {
      {
        Scoped span(tracer, "plan.recomposed", id);
        plan = recompose_plan(chain, platform, id, tracer, ledger);
      }
      if (plan) probe_branch_and_bound(*plan, chain, platform, id, tracer, ledger);
    } else {
      plan = plan_madpipe(chain, platform);
    }
    result.check(!plan || validate(*plan, chain, platform, id, tracer),
                 "direct plan has an invalid pattern");
    return plan;
  };
  for (std::size_t h = 0; h < hot.size(); ++h) {
    direct[h] = direct_plan(chains.at(hot[h].net.label()), hot[h].platform(),
                            static_cast<long long>(h));
    result.check(direct[h].has_value(), hot[h].label() + ": hot key has no plan");
  }
  std::vector<double> latencies, miss_latencies, speedups, gen_lag;
  // Per slice of the open loop: latency from due time as the client saw
  // it, which covers the generator's send, the TCP front end, request
  // parsing, the service and the reply (context only, README.md); and
  // in-service latency as the server reported it (`latency_ms`, submit to
  // return), whose p50 is op_s_p50.
  std::vector<std::vector<double>> slice_latencies(kSlices), slice_service(kSlices);
  const double open_ns = open_seconds * 1e9;
  std::vector<double> cache_s, queue_s, plan_s, overhead_s, miss_service;
  long long hits = 0, coalesced = 0, inline_sent = 0, misses_checked = 0;
  std::map<Kind, bool> in_process_checked;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const Variant& variant = variants[r.variant];
    ++result.attempted;
    if (variant.kind == Kind::Inline || variant.kind == Kind::Scaled) ++inline_sent;
    if (r.reply.empty()) {
      ++result.failed;
      result.check(false, std::string("no reply to a ") + kind_name(variant.kind));
      continue;
    }
    const json::ParseResult parsed = json::parse(r.reply);
    const std::string status =
        parsed.ok() ? parsed.value.string_or("status", "") : "unparsable";
    const std::string cache = parsed.ok() ? parsed.value.string_or("cache", "") : "";
    const double latency = static_cast<double>(r.reply_ns - r.due_ns) * 1e-9;
    const auto slice = static_cast<std::size_t>(
        static_cast<double>(r.due_ns - origin) * kSlices / open_ns);
    latencies.push_back(latency);
    slice_latencies[slice].push_back(latency);
    if (parsed.ok()) {
      slice_service[slice].push_back(parsed.value.number_or("latency_ms", 0) * 1e-3);
    }
    gen_lag.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-9);
    if (status != "ok" && status != "infeasible") {
      ++result.failed;
      result.check(false, "reply: " + r.reply.substr(0, 200));
      continue;
    }
    hits += cache == "hit" ? 1 : 0;
    coalesced += cache == "coalesced" ? 1 : 0;
    const bool want_miss = variant.kind == Kind::Miss;
    const char* want_status = variant.kind == Kind::Negative ? "infeasible" : "ok";
    result.check(status == want_status && cache == (want_miss ? "miss" : "hit"),
                 std::string(kind_name(variant.kind)) + " request answered " +
                     status + "/" + cache);
    if (want_miss) {
      miss_latencies.push_back(latency);
      miss_service.push_back(parsed.value.number_or("latency_ms", 0) * 1e-3);
    }
    if (const json::Value* phases = parsed.value.find("phases")) {
      const double c = phases->number_or("cache_ms", 0) * 1e-3;
      const double q = phases->number_or("queue_ms", 0) * 1e-3;
      const double p = phases->number_or("plan_ms", 0) * 1e-3;
      cache_s.push_back(c);
      queue_s.push_back(q);
      plan_s.push_back(p);
      const double round_trip = static_cast<double>(r.reply_ns - r.sent_ns) * 1e-9;
      overhead_s.push_back(round_trip - c - q - p);
      const int root = tracer.add("net.request", r.due_ns, r.reply_ns, -1,
                                  static_cast<long long>(i));
      // Server-reported phases, laid end to end from the send instant.
      std::int64_t at = r.sent_ns;
      for (const auto& [name, seconds] :
           {std::pair{"serve.cache", c}, {"serve.queue", q}, {"serve.plan", p}}) {
        const std::int64_t end = at + static_cast<std::int64_t>(seconds * 1e9);
        tracer.add(name, at, end, root, static_cast<long long>(i));
        at = end;
      }
    }
    if (status != "ok") continue;
    const json::Value* plan = parsed.value.find("plan");
    const double period = plan ? plan->number_or("period", 0) : 0;
    if (!(period > 0)) {
      result.check(false, "ok reply without a plan period");
      continue;
    }
    const std::string allocation = plan->string_or("allocation", "");
    speedups.push_back(variant.chain.total_compute() / period);
    std::optional<Plan>* expected = nullptr;
    if (variant.hot >= 0) {
      expected = &direct[static_cast<std::size_t>(variant.hot)];
    } else if (want_miss && misses_checked < kMissSamples) {
      ++misses_checked;
      miss_direct =
          direct_plan(variant.chain, variant.platform, static_cast<long long>(i));
      expected = &miss_direct;
    }
    if (expected != nullptr) {
      result.check(expected->has_value() &&
                       period == (*expected)->period() * variant.time_factor &&
                       allocation ==
                           serve::allocation_fingerprint((*expected)->allocation),
                   std::string(kind_name(variant.kind)) +
                       " reply differs from the direct plan");
    }
  }
  // Sampled in-process answers must be bit-identical to direct planning:
  // one request of each kind, through the same service and cache.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Variant& variant = variants[requests[i].variant];
    if (in_process_checked[variant.kind]) continue;
    in_process_checked[variant.kind] = true;
    const json::ParseResult parsed =
        json::parse(frame("check", variant.body, false));
    const serve::RequestParse request = serve::request_from_json(parsed.value);
    if (!request.ok()) {
      result.check(false, "request_from_json: " + request.error);
      continue;
    }
    const serve::PlanResponse response = server->service->plan(*request.request);
    const std::optional<Plan> want = plan_madpipe(variant.chain, variant.platform);
    const bool same = response.plan.has_value() == want.has_value() &&
                      (!want || serve::plans_bit_identical(*response.plan, *want));
    result.check(same, std::string(kind_name(variant.kind)) +
                           ": served plan is not bit-identical to direct planning");
  }

  // --- in-process replay: the request path without the thread hand-offs ---
  // Each replayed frame is processed on this thread as the server does it:
  // parse, request_from_json, PlanService::plan, response_to_json. The
  // open loop's hit mix gives op_s_tail; fresh miss keys give cold_s_p50.
  auto replay = [&](std::size_t v, long long id, bool want_miss) {
    const Variant& variant = variants[v];
    const std::int64_t start = now_ns();
    Scoped root(tracer, "serve.offline_request", id);
    const std::string text = frame("p" + std::to_string(id), variant.body, config.trace);
    serve::RequestParse request;
    {
      Scoped span(tracer, "serve.parse", id);
      const json::ParseResult parsed = json::parse(text);
      request = serve::request_from_json(parsed.value);
    }
    if (!request.ok()) {
      ++result.failed;
      result.check(false, "replay request_from_json: " + request.error);
      return -1.0;
    }
    if (config.trace) {
      Scoped span(tracer, "serve.canonicalize", id);
      (void)serve::canonicalize(*request.request);
    }
    serve::PlanResponse response;
    {
      Scoped span(tracer, "serve.plan_service", id);
      response = server->service->plan(*request.request);
    }
    {
      Scoped span(tracer, "serve.serialize", id);
      (void)serve::response_to_json(response);
    }
    const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
    const bool ok = response.status == (variant.kind == Kind::Negative
                                            ? serve::ResponseStatus::Infeasible
                                            : serve::ResponseStatus::Ok) &&
                    response.cache == (want_miss ? serve::CacheOutcome::Miss
                                                 : serve::CacheOutcome::Hit);
    if (!ok) {
      ++result.failed;
      result.check(false, std::string("replayed ") + kind_name(variant.kind) +
                              " request answered wrongly");
    }
    return seconds;
  };
  // The replay runs for a fifth of the run, cycling through the hit mix
  // with the cold keys spread evenly through it; hit statistics are taken
  // per tenth of that time, then the median over tenths. The host's speed
  // changes over seconds, so a short burst would sample one state of it.
  // A cold plan is timed in CPU seconds of every thread: its wall time
  // depends on how many CPUs the host grants its speculative workers, which
  // moved it up to threefold between runs (README.md).
  std::vector<std::vector<double>> replay_blocks(kSlices);
  std::vector<double> replay_s, cold_s, cold_cpu_s;
  {
    const std::int64_t start = now_ns();
    const auto length = static_cast<std::int64_t>(0.2 * config.seconds * 1e9);
    std::size_t cold_next = 0;
    for (std::size_t i = 0;; ++i) {
      const std::int64_t elapsed = now_ns() - start;
      if (elapsed >= length && cold_next == cold_replays.size()) break;
      ++result.attempted;
      if (cold_next < cold_replays.size() &&
          (elapsed >= length ||
           elapsed >= static_cast<std::int64_t>(cold_next) * length / kColdReplays)) {
        const double cpu_start = process_cpu_seconds();
        const double seconds =
            replay(cold_replays[cold_next++], static_cast<long long>(i), true);
        if (seconds >= 0) {
          cold_s.push_back(seconds);
          cold_cpu_s.push_back(process_cpu_seconds() - cpu_start);
        }
        continue;
      }
      const double seconds =
          replay(replay_mix[i % replay_mix.size()], static_cast<long long>(i), false);
      if (seconds < 0) continue;
      replay_s.push_back(seconds);
      replay_blocks[static_cast<std::size_t>(elapsed * kSlices / length)].push_back(seconds);
    }
  }

  const double sent = static_cast<double>(requests.size());
  result.context["requests"] = sent;
  result.context["misses"] = static_cast<double>(miss_latencies.size());
  result.context["serve.hit_ratio"] = sent == 0 ? 0 : hits / sent;
  result.context["serve.inline_share"] = sent == 0 ? 0 : inline_sent / sent;
  result.context["saturated_replies"] = static_cast<double>(saturated_replies);
  result.context["replays"] = static_cast<double>(replay_s.size());
  result.context["cold_replays"] = static_cast<double>(cold_s.size());
  std::vector<double> block_p50s, block_p90s;
  for (const std::vector<double>& block : replay_blocks) {
    if (block.empty()) continue;
    block_p50s.push_back(median(block));
    block_p90s.push_back(quantile(block, 0.9));
  }
  std::vector<double> client_p50s, client_p90s, client_p99s, p50s, p90s, p99s;
  for (int k = 0; k < kSlices; ++k) {
    const auto slice = static_cast<std::size_t>(k);
    client_p50s.push_back(median(slice_latencies[slice]));
    client_p90s.push_back(quantile(slice_latencies[slice], 0.9));
    client_p99s.push_back(quantile(slice_latencies[slice], 0.99));
    p50s.push_back(median(slice_service[slice]));
    p90s.push_back(quantile(slice_service[slice], 0.9));
    p99s.push_back(quantile(slice_service[slice], 0.99));
  }
  result.context["replay_s_p50"] = median(block_p50s);
  result.context["cold_wall_s_p50"] = median(cold_s);
  result.context["service_s_p90"] = median(p90s);
  result.context["service_s_p99"] = median(p99s);
  result.context["miss_service_s_p50"] = median(miss_service);
  result.context["req_s_p50_slice_median"] = median(client_p50s);
  result.context["req_s_p90"] = median(client_p90s);
  result.context["req_s_p99"] = median(client_p99s);
  // The quietest slice's p50: delays the host adds to a slice only raise
  // it, so the lowest slice is the one least disturbed.
  result.context["req_s_p50"] =
      *std::min_element(client_p50s.begin(), client_p50s.end());
  result.context["miss_req_s_p50"] = median(miss_latencies);
  auto& m = result.metrics;
  if (config.trace) {
    planner_layer_metrics(tracer, ledger, result);
    m["serve.parse_s"] = tracer.mean_seconds("serve.parse");
    m["serve.canonicalize_s"] = tracer.mean_seconds("serve.canonicalize");
    m["serve.serialize_s"] = tracer.mean_seconds("serve.serialize");
    m["serve.cache_s"] = mean(cache_s);
    m["serve.queue_s"] = mean(queue_s);
    m["serve.plan_s"] = mean(plan_s);
    m["serve.hit_ratio"] = result.context["serve.hit_ratio"];
    m["serve.coalesced"] = static_cast<double>(coalesced);
    m["serve.inline_share"] = result.context["serve.inline_share"];
    m["net.overhead_s"] = mean(overhead_s);
    m["net.gen_lag_s_p99"] = quantile(gen_lag, 0.99);
    m["net.bytes_in"] = static_cast<double>(stats_after.bytes_in - stats_before.bytes_in);
    m["net.bytes_out"] =
        static_cast<double>(stats_after.bytes_out - stats_before.bytes_out);
    m["net.shed"] = static_cast<double>(
        stats_after.shed_rate + stats_after.shed_depth - stats_before.shed_rate -
        stats_before.shed_depth);
    m["trace.op_s_p50"] = median(p50s);
    double plan_total = 0.0, latency_total = 0.0;
    for (double p : plan_s) plan_total += p;
    for (double l : latencies) latency_total += l;
    result.context["serve.plan_share_of_latency"] =
        latency_total == 0 ? 0 : plan_total / latency_total;
  } else {
    m["setup_s"] = median(setup_seconds);
    m["op_s_p50"] = median(p50s);  // service_s_p50
    m["op_s_tail"] = median(block_p90s);
    m["cold_s_p50"] = median(cold_cpu_s);
    m["speedup_geomean"] = geomean(speedups);
  }
  result.context["net.gen_lag_s_p99"] = quantile(gen_lag, 0.99);
  server->net->stop();
  server.reset();
  finish_trace(config, tracer, result);
  return result;
}

}  // namespace perfbench
