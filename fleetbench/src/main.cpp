/// \file main.cpp
/// fleetbench: the one end-to-end benchmark of a pipeopt fleet.
///
///   fleetbench --workload wire-small|solve-heavy|replay-zipf --seed N
///              --seconds S --trace 0|1 [--out-dir DIR]
///
/// Draws the workload from the seed and answers every request in-process
/// first (the reference), then launches the deployed stack,
/// `pipeopt route --spawn 2 --jobs 1 --cache-entries 256`, and drives it for
/// S seconds after a warm-up over 3 closed-loop connections (each sends
/// its next request only when the previous response is complete). Every
/// response is compared byte for byte, `wall_s` aside, with the reference.
///
/// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
/// reports the per-layer ones, a third of S each: a fleet pass (fleet
/// `stats` deltas, /proc), the fleet against a second one with its own span
/// logs on (trace.overhead_share), and the traced in-process ladder
/// (ladder.hpp). The last stdout line is one JSON object:
/// {"correct","attempted","failed","metrics"}. A fleet window that lost more
/// than kMaxStealShare of the host's CPU time to other guests is measured
/// again once the host is quiet, within a time budget, and the window that
/// lost least is reported.

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ladder.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace fleetbench {
namespace {

using namespace pipeopt;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 3;
/// Fleet launches per run; setup_s is their median.
constexpr int kSetupLaunches = 9;
constexpr auto kResponseTimeout = std::chrono::seconds(30);
/// Traffic before the timed window: connections settle, caches fill.
constexpr double kWarmupSeconds = 2.0;
/// Host CPU steal share above which a window is measured again. Between
/// windows, the load goes on in probes of kProbeSeconds until one shows a
/// quiet host. All of it fits in kWindowBudget times warm-up plus window.
constexpr double kMaxStealShare = 0.01;
constexpr double kProbeSeconds = 1.0;
constexpr double kWindowBudget = 3.0;
/// trace.overhead_share alternates this many chunks per fleet. Each chunk,
/// and each window measured again, has a short warm-up of its own.
constexpr int kOverheadRounds = 4;
constexpr double kChunkWarmupSeconds = 0.5;

struct Options {
  Mix mix = Mix::WireSmall;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// What one closed-loop pass over the fleet saw.
struct Pass {
  std::vector<double> rtts_us;  ///< successful in-window exchanges
  std::uint64_t attempted = 0;  ///< sent and answered inside the window
  std::uint64_t sweeps = 0;     ///< of them, Pareto sweeps
  std::uint64_t energy = 0;     ///< of them, energy solves
  std::uint64_t failed = 0;     ///< typed errors, timeouts, torn lines
  std::uint64_t mismatched = 0;  ///< answers whose bytes differ (any time)
  std::uint64_t exchanges = 0;   ///< every request sent, warm-up included
  std::uint64_t router_errors = 0;  ///< error lines the router made itself
  std::string first_mismatch;
  double window_s = 0.0;
  double fleet_cpu_s = 0.0;   ///< router + shards over the window
  std::vector<double> shard_cpu_s;
  double peak_rss_mb = 0.0;   ///< Σ VmHWM over router and shards
  double host_steal_share = 0.0;  ///< CPU time other guests took, window
  io::JsonFields stats_before, stats_after;  ///< around the window
};

struct ClientTally {
  std::vector<double> rtts_us;
  std::uint64_t attempted = 0, sweeps = 0, energy = 0, failed = 0, mismatched = 0,
                exchanges = 0, router_errors = 0;
  std::string first_mismatch;
  std::string error;
};

void drive_client(const Workload& workload, std::uint16_t port,
                  std::atomic<std::uint64_t>& next, Clock::time_point t0,
                  Clock::time_point t1, ClientTally& tally) {
  try {
    auto conn = std::make_unique<Conn>(port, kResponseTimeout);
    std::vector<std::string> response;
    for (;;) {
      const auto sent = Clock::now();
      if (sent >= t1) break;
      const std::uint64_t n = next.fetch_add(1, std::memory_order_relaxed);
      const PoolEntry& entry = workload.pool[workload.order[n % workload.order.size()]];
      const bool ok = exchange(*conn, entry.line, entry.pareto, response);
      const auto done = Clock::now();
      ++tally.exchanges;
      const bool counted = sent >= t0 && done <= t1;
      if (counted) {
        ++tally.attempted;
        tally.sweeps += entry.pareto;
        tally.energy += entry.energy;
      }
      if (!ok) {  // timeout, torn line or a dropped connection
        if (counted) ++tally.failed;
        conn = std::make_unique<Conn>(port, kResponseTimeout);
        continue;
      }
      if (line_type(response.back()) == "error") {
        if (counted) ++tally.failed;
        if (!field(io::parse_flat_json(response.back()), "code").empty()) {
          ++tally.router_errors;
        }
        continue;
      }
      if (!matches(response, entry)) {
        ++tally.mismatched;
        if (counted) ++tally.failed;
        if (tally.first_mismatch.empty()) {
          tally.first_mismatch = "sent " + entry.line.substr(0, 120) + "... got " +
                                 response.front().substr(0, 300) + " expected " +
                                 entry.expected.front().substr(0, 300);
        }
        continue;
      }
      if (counted) {
        tally.rtts_us.push_back(std::chrono::duration<double, std::micro>(done - sent).count());
      }
    }
  } catch (const std::exception& e) {
    tally.error = e.what();
  }
}

Pass drive(const Workload& workload, Fleet& fleet, double warmup_s,
           double seconds) {
  Pass pass;
  Conn control(fleet.port(), kResponseTimeout);
  std::vector<pid_t> pids = {fleet.router_pid()};
  pids.insert(pids.end(), fleet.shard_pids().begin(), fleet.shard_pids().end());
  const auto sample_all = [&] {
    std::vector<ProcSample> samples;
    for (const pid_t pid : pids) samples.push_back(sample_process(pid));
    return samples;
  };

  std::atomic<std::uint64_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto t0 = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(warmup_s));
  const auto t1 = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> clients;
  // Joins the clients on every way out, exceptions included; they stop at
  // t1 on their own.
  struct Joiner {
    std::vector<std::thread>& threads;
    ~Joiner() {
      for (auto& thread : threads) {
        if (thread.joinable()) thread.join();
      }
    }
  } joiner{clients};
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(drive_client, std::cref(workload), fleet.port(),
                         std::ref(next), t0, t1, std::ref(tallies[c]));
  }
  std::this_thread::sleep_until(t0);
  const std::vector<ProcSample> before = sample_all();
  const HostTicks host_before = sample_host();
  pass.stats_before = ask(control, "stats");
  std::this_thread::sleep_until(t1);
  const std::vector<ProcSample> after = sample_all();
  const HostTicks host_after = sample_host();
  pass.stats_after = ask(control, "stats");
  for (auto& client : clients) client.join();

  pass.window_s = seconds;
  const double host_ticks = host_after.total - host_before.total;
  pass.host_steal_share =
      host_ticks > 0 ? (host_after.steal - host_before.steal) / host_ticks : 0.0;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const double cpu = after[i].cpu_seconds - before[i].cpu_seconds;
    pass.fleet_cpu_s += cpu;
    if (i > 0) pass.shard_cpu_s.push_back(cpu);
    pass.peak_rss_mb += after[i].hwm_mb;
  }
  for (ClientTally& tally : tallies) {
    if (!tally.error.empty()) throw std::runtime_error("client: " + tally.error);
    pass.rtts_us.insert(pass.rtts_us.end(), tally.rtts_us.begin(), tally.rtts_us.end());
    pass.attempted += tally.attempted;
    pass.sweeps += tally.sweeps;
    pass.energy += tally.energy;
    pass.failed += tally.failed;
    pass.mismatched += tally.mismatched;
    pass.exchanges += tally.exchanges;
    pass.router_errors += tally.router_errors;
    if (pass.first_mismatch.empty()) pass.first_mismatch = tally.first_mismatch;
  }
  return pass;
}

double count_delta(const Pass& pass, const char* key) {
  return std::strtod(field(pass.stats_after, key).c_str(), nullptr) -
         std::strtod(field(pass.stats_before, key).c_str(), nullptr);
}

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"rtt_p50_us", "us"},       {"rtt_p99_us", "us"},
    {"throughput_rps", "1/s"},  {"cpu_us_per_req", "us"},
    {"peak_rss_mb", "MB"},      {"setup_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"router.relay_us", "us"},
    {"router.fanout_us", "us"},
    {"router.shard_cpu_imbalance", "ratio"},
    {"router.retries", "count"},
    {"router.shed", "count"},
    {"server.self_us", "us"},
    {"io.parse_us", "us"},
    {"io.format_us", "us"},
    {"api.executor.hop_us", "us"},
    {"api.plan.bind_us", "us"},
    {"api.cache.hit_ratio", "ratio"},
    {"api.cache.lookup_us", "us"},
    {"api.cache.evictions", "count"},
    {"api.sweep.execute_us", "us"},
    {"api.sweep.points_per_req", "count"},
    {"algorithms.execute_us", "us"},
    {"exact.execute_us", "us"},
    {"exact.nodes_per_req", "count"},
    {"exact.nodes_per_s", "1/s"},
    {"exact.burn_share", "ratio"},
    {"heuristics.execute_us", "us"},
    {"heuristics.evals_per_s", "1/s"},
    {"core.full_eval_ns", "ns"},
    {"core.delta_eval_ns", "ns"},
    {"unattributed_us", "us"},
    {"trace.overhead_share", "ratio"},
};

/// Asserts over the wire that `fleet`'s router routed exactly the requests
/// sent to it, its own error lines aside: nothing dropped or double-sent.
/// Returns the final `stats` line.
io::JsonFields check_routed(Fleet& fleet, const char* label, std::uint64_t sent,
                            std::uint64_t router_errors, bool& ok) {
  Conn control(fleet.port(), kResponseTimeout);
  io::JsonFields stats = ask(control, "stats");
  const auto routed = std::strtoull(field(stats, "routed").c_str(), nullptr, 10);
  const bool match = routed + router_errors == sent;
  std::printf("%s: router routed %llu of %llu requests sent (+%llu router errors): %s\n",
              label, static_cast<unsigned long long>(routed),
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(router_errors), match ? "ok" : "MISMATCH");
  ok = ok && match;
  return stats;
}

/// Folds a pass's counts (not its timings) into a running total.
void add_counts(Pass& total, const Pass& pass) {
  total.attempted += pass.attempted;
  total.failed += pass.failed;
  total.mismatched += pass.mismatched;
  total.exchanges += pass.exchanges;
  total.router_errors += pass.router_errors;
  if (total.first_mismatch.empty()) total.first_mismatch = pass.first_mismatch;
}

/// One fleet window of `seconds`. A window in which other guests took much
/// of the host's CPU measured the host as much as the fleet: the load then
/// goes on in short probes until the host is quiet, and the window is
/// measured again while the time budget allows. Returns the window that
/// lost least; `counts` collects every exchange, probes included.
Pass measure(const Workload& workload, Fleet& fleet, double seconds, Pass& counts) {
  const auto since = [start = Clock::now()] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const double budget = kWindowBudget * (kWarmupSeconds + seconds);
  Pass best;
  double warmup = kWarmupSeconds;
  for (bool first = true;; first = false) {
    Pass next = drive(workload, fleet, warmup, seconds);
    add_counts(counts, next);
    const double steal = next.host_steal_share;
    if (first || steal < best.host_steal_share) best = std::move(next);
    if (steal <= kMaxStealShare) break;
    std::printf("window: %.1f%% of the host's CPU time went to other guests (limit %.0f%%)\n",
                100.0 * steal, 100.0 * kMaxStealShare);
    bool quiet = false;
    while (!quiet && since() + kProbeSeconds + kChunkWarmupSeconds + seconds <= budget) {
      const Pass probe = drive(workload, fleet, 0.0, kProbeSeconds);
      add_counts(counts, probe);
      quiet = probe.host_steal_share <= kMaxStealShare;
    }
    if (!quiet) break;
    warmup = kChunkWarmupSeconds;
  }
  return best;
}

/// trace.overhead_share: the fleet's median round trip with its own span
/// logs on (`route --trace-log --shard-trace-log`) over the same with them
/// off, minus 1. The two fleets take turns in short chunks so that host
/// drift falls on both alike. `untraced` is the fleet of the main pass;
/// `traced_counts` and `untraced_counts` collect the exchanges.
double trace_overhead_share(const Workload& workload, Fleet& untraced, Fleet& traced,
                            double seconds, Pass& untraced_counts, Pass& traced_counts) {
  const double chunk_s = seconds / (2.0 * kOverheadRounds);
  std::vector<double> off, on;
  for (int round = 0; round < kOverheadRounds; ++round) {
    for (Fleet* fleet : {&untraced, &traced}) {
      const Pass chunk = drive(workload, *fleet, kChunkWarmupSeconds, chunk_s);
      add_counts(fleet == &traced ? traced_counts : untraced_counts, chunk);
      std::vector<double>& rtts = fleet == &traced ? on : off;
      rtts.insert(rtts.end(), chunk.rtts_us.begin(), chunk.rtts_us.end());
    }
  }
  const double off_p50 = quantile(off, 0.5);
  const double on_p50 = quantile(on, 0.5);
  std::printf("trace overhead: rtt p50 %.1f us with fleet span logs (n=%zu), %.1f us "
              "without (n=%zu), %d alternating chunks of %.2f s each\n",
              on_p50, on.size(), off_p50, off.size(), kOverheadRounds, chunk_s);
  return off_p50 > 0 ? on_p50 / off_p50 - 1.0 : 0.0;
}

int run(const Options& options) {
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  const char* name = mix_name(options.mix);
  std::printf("fleetbench: workload %s, seed %llu, %g s, trace %d\n", name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  auto clock = Clock::now();
  const Workload workload = make_workload(options.mix, options.seed, threads);
  std::printf("workload: %zu distinct requests, %zu sends in order, references in %.2f s\n",
              workload.pool.size(), workload.order.size(),
              std::chrono::duration<double>(Clock::now() - clock).count());

  // Set-up: launch the fleet several times; the last one takes the load.
  const std::string log = options.out_dir + "/fleet.log";
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  bool clean_stops = true;
  for (int i = 0; i < kSetupLaunches; ++i) {
    if (fleet) clean_stops = fleet->stop() && clean_stops;
    fleet = std::make_unique<Fleet>(FLEETBENCH_CLI, kShards, kCacheEntries, log);
    setups.push_back(fleet->setup_seconds());
  }
  // A traced run splits its time between the fleet pass, the tracing
  // overhead comparison and the ladder.
  const double fleet_s = options.trace ? options.seconds / 3 : options.seconds;
  Pass untraced_counts;  // every exchange with the main fleet
  const Pass pass = measure(workload, *fleet, fleet_s, untraced_counts);

  std::map<std::string, double> values;
  Pass traced_counts;  // every exchange with the traced fleet (--trace 1)
  bool routed_ok = true;
  bool traces_ok = true;
  if (options.trace) {
    // The same fleet with its own span logs on, against the main one.
    const std::string span_log = options.out_dir + "/fleet-spans";
    const std::string router_log = span_log + ".router.jsonl";
    const std::string span_logs[] = {router_log, span_log + ".0.jsonl",
                                     span_log + ".1.jsonl"};
    for (const std::string& path : span_logs) std::remove(path.c_str());  // they append
    Fleet traced(FLEETBENCH_CLI, kShards, kCacheEntries, log,
                 {"--trace-log", router_log, "--shard-trace-log", span_log});
    values["trace.overhead_share"] = trace_overhead_share(
        workload, *fleet, traced, fleet_s, untraced_counts, traced_counts);
    check_routed(traced, "traced fleet", traced_counts.exchanges,
                 traced_counts.router_errors, routed_ok);
    clean_stops = traced.stop() && clean_stops;
    // The span logs prove the traced fleet traced; they are not kept.
    for (const std::string& path : span_logs) {
      std::error_code missing;
      traces_ok = traces_ok && std::filesystem::file_size(path, missing) > 0 && !missing;
      std::remove(path.c_str());
    }
    if (!traces_ok) std::printf("traced fleet: a span log is missing or empty\n");
  }
  const io::JsonFields final_stats = check_routed(
      *fleet, "fleet", untraced_counts.exchanges, untraced_counts.router_errors, routed_ok);
  clean_stops = fleet->stop() && clean_stops;
  fleet.reset();
  const auto stat = [&](const char* key) {
    return std::strtod(field(final_stats, key).c_str(), nullptr);
  };
  Pass totals = untraced_counts;  // counts over every pass of the run
  add_counts(totals, traced_counts);

  const std::uint64_t ok = pass.rtts_us.size();
  const double sends = static_cast<double>(std::max<std::uint64_t>(pass.attempted, 1));
  const double hits = count_delta(pass, "cache_hits");
  const double misses = count_delta(pass, "cache_misses");
  std::printf("fleet: %llu attempted in %.1f s after %.1f s warm-up, %llu ok, %llu failed "
              "(error_share %.6f), %llu mismatched, %zu clients\n",
              static_cast<unsigned long long>(pass.attempted), pass.window_s, kWarmupSeconds,
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(pass.failed),
              pass.attempted ? static_cast<double>(pass.failed) / pass.attempted : 0.0,
              static_cast<unsigned long long>(pass.mismatched), kClients);
  std::printf("fleet: of the window's sends, %.1f%% Pareto sweeps, %.1f%% energy solves; "
              "%.3f solve-cache hits per send (%.0f hits, %.0f misses)\n",
              100.0 * static_cast<double>(pass.sweeps) / sends,
              100.0 * static_cast<double>(pass.energy) / sends, hits / sends, hits, misses);
  // Steal is CPU time the hypervisor gave to other guests; a run with much
  // of it measured the host as much as the fleet.
  std::printf("host: %.1f%% of CPU time stolen by other guests during the window\n",
              100.0 * pass.host_steal_share);
  std::printf("fleet: solve cache %.0f hits, %.0f misses, %.0f evictions since launch\n",
              stat("cache_hits"), stat("cache_misses"), stat("cache_evictions"));
  if (!totals.first_mismatch.empty()) {
    std::printf("first mismatch: %s\n", totals.first_mismatch.c_str());
  }
  if (!clean_stops) std::printf("fleet: a router needed SIGKILL to stop\n");

  bool correct = totals.mismatched == 0 && routed_ok && traces_ok && ok > 0;
  std::uint64_t attempted = totals.attempted;
  std::uint64_t failed = totals.failed;
  if (!options.trace) {
    values["rtt_p50_us"] = quantile(pass.rtts_us, 0.5);
    values["rtt_p99_us"] = quantile(pass.rtts_us, 0.99);
    values["throughput_rps"] = static_cast<double>(ok) / pass.window_s;
    values["cpu_us_per_req"] = ok ? pass.fleet_cpu_s * 1e6 / static_cast<double>(ok) : 0.0;
    values["peak_rss_mb"] = pass.peak_rss_mb;
    values["setup_s"] = quantile(setups, 0.5);
    std::printf("rtt_p50_us %.1f (n=%llu), rtt_p99_us %.1f (n=%llu), throughput_rps %.1f "
                "(%llu responses in %.1f s)\n",
                values["rtt_p50_us"], static_cast<unsigned long long>(ok),
                values["rtt_p99_us"], static_cast<unsigned long long>(ok),
                values["throughput_rps"], static_cast<unsigned long long>(ok), pass.window_s);
    std::printf("rtt_us quantiles over the window:");
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      std::printf(" p%g %.0f", q * 100, quantile(pass.rtts_us, q));
    }
    std::printf("\nsetup_s median of %d launches:", kSetupLaunches);
    for (const double s : setups) std::printf(" %.4f", s);
    std::printf("\n");
  } else {
    double shard_max = 0.0, shard_sum = 0.0;
    for (const double cpu : pass.shard_cpu_s) {
      shard_max = std::max(shard_max, cpu);
      shard_sum += cpu;
    }
    const double shard_mean = shard_sum / static_cast<double>(pass.shard_cpu_s.size());
    values["router.shard_cpu_imbalance"] = shard_mean > 0 ? shard_max / shard_mean : 0.0;
    values["router.retries"] = count_delta(pass, "retries");
    values["router.shed"] = count_delta(pass, "shed");
    values["api.cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    values["api.cache.evictions"] = count_delta(pass, "cache_evictions");

    const std::string trace_path = options.out_dir + "/trace-" + name + "-" +
                                   std::to_string(options.seed) + ".jsonl";
    const LadderReport ladder =
        run_ladder(workload, options.seconds - 2 * fleet_s, trace_path);
    for (const auto& [key, value] : ladder.metrics) values[key] = value;
    for (const std::string& note : ladder.notes) std::printf("%s\n", note.c_str());
    std::printf("ladder: %llu requests, %llu failed, %llu mismatched, self times %s; "
                "spans in %s\n",
                static_cast<unsigned long long>(ladder.requests),
                static_cast<unsigned long long>(ladder.failed),
                static_cast<unsigned long long>(ladder.mismatched),
                ladder.adds_up ? "add up" : "DO NOT ADD UP", trace_path.c_str());
    correct = correct && ladder.mismatched == 0 && ladder.adds_up;
    attempted += ladder.requests;
    failed += ladder.failed;
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : options.trace ? std::span<const Metric>(kPerLayer)
                                            : std::span<const Metric>(kEndToEnd)) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", values.at(metric.name));
    json += std::string(first ? "" : ", ") + "\"" + metric.name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload wire-small|solve-heavy|replay-zipf "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  ::signal(SIGPIPE, SIG_IGN);
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto mix = parse_mix(value);
      if (!mix) return usage();
      options.mix = *mix;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      if (!(options.seconds > 0.0)) return usage();
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
