#include "server/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "api/cache.hpp"
#include "io/json.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "util/cancel.hpp"
#include "util/fdio.hpp"
#include "util/timing.hpp"

namespace pipeopt::server {

namespace {

/// How often an in-flight solve's session polls for client disconnect.
constexpr auto kWatchInterval = std::chrono::milliseconds(10);

using util::FdLineReader;
using util::write_line;

std::string error_line(const std::string& id, const io::ParseError& error) {
  return io::format_error(error.what(), id, error.code());
}

/// Best-effort id extraction so even a semantically broken request gets
/// its error echoed back under the right tag.
std::string peek_id(const io::JsonFields& fields) {
  for (const auto& [key, value] : fields) {
    if (key == "id") return value;
  }
  return {};
}

/// The optional wire trace id ("" when the request is untraced).
std::string peek_trace(const io::JsonFields& fields) {
  for (const auto& [key, value] : fields) {
    if (key == "trace") return value;
  }
  return {};
}

bool ends_with(const std::string& text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      executor_(api::ExecutorOptions{.jobs = options_.jobs,
                                     .cache_entries = options_.cache_entries}),
      requests_(metrics_.counter("requests")),
      solves_(metrics_.counter("solves")),
      sweeps_(metrics_.counter("sweeps")),
      errors_(metrics_.counter("errors")),
      cancelled_(metrics_.counter("cancelled")),
      disconnect_cancels_(metrics_.counter("disconnect_cancels")),
      connections_(metrics_.counter("connections")),
      started_(std::chrono::steady_clock::now()) {
  if (!options_.trace_log.empty()) {
    trace_log_ = std::make_unique<obs::TraceLog>(options_.trace_log);
  }
  if (!options_.fault_spec.empty()) {
    const auto spec = net::parse_fault_spec(options_.fault_spec);
    if (!spec) {
      throw std::runtime_error("pipeopt-server: bad --fault-spec '" +
                               options_.fault_spec +
                               "' (want seed:prob:kind[,kind...])");
    }
    fault_ = std::make_unique<net::FaultInjector>(*spec);
    session_hooks_ = &fault_->front_io();
  }
}

std::uint16_t Server::listen() {
  return listener_.bind(options_.host, options_.port);
}

void Server::serve() {
  listen();
  listener_.run(
      [this](int fd) {
        connections_.add();
        session_loop(fd, fd, /*is_socket=*/true);
      },
      fault_.get());
}

void Server::serve_stream(int in_fd, int out_fd) {
  connections_.add();
  session_loop(in_fd, out_fd, /*is_socket=*/false);
}

void Server::shutdown() { listener_.stop(); }

void Server::install_signal_handlers(Server& server) {
  server.listener_.route_signals();
}

void Server::session_loop(int in_fd, int out_fd, bool is_socket) {
  FdLineReader reader(in_fd, session_hooks_);
  std::string line;
  while (reader.next_line(line)) {
    // A socket stream that dies mid-line left a torn prefix, not a
    // request: never parse (let alone execute) it. Stdio keeps the
    // historical final-unterminated-line behavior.
    if (is_socket && !reader.last_terminated()) break;
    if (line.empty() || line == "\r") continue;
    handle_line(line, out_fd, in_fd, is_socket, reader.buffered());
    if (listener_.stopping() && is_socket) break;
  }
  if (reader.line_too_long()) {
    errors_.add();
    send_line(out_fd, io::format_line_too_long());
  }
}

bool Server::send_line(int out_fd, std::string line) const {
  return write_line(out_fd, std::move(line), session_hooks_);
}

void Server::record_result(const api::SolveResult& result) {
  if (result.was_cancelled()) cancelled_.add();
  const std::string solver = result.solver.empty() ? "(none)" : result.solver;
  const double wall_us = std::max(0.0, result.wall_seconds) * 1e6;
  metrics_.histogram("solver." + solver + ".latency")
      .record_us(static_cast<std::uint64_t>(wall_us));
  for (const auto& [key, value] : result.diagnostics) {
    if (key == "evals") {
      metrics_.counter("solver." + solver + ".evals")
          .add(std::strtoull(value.c_str(), nullptr, 10));
      break;
    }
  }
}

io::JsonFields Server::stats_fields() const {
  std::uint64_t evals = 0;
  io::JsonFields per_solver;
  for (auto& [key, value] : metrics_.snapshot()) {
    if (key.rfind("solver.", 0) != 0) continue;
    if (ends_with(key, ".evals")) {
      evals += std::strtoull(value.c_str(), nullptr, 10);
    } else if (constexpr std::string_view kCount = ".latency.n";
               ends_with(key, kCount)) {
      per_solver.emplace_back(key.substr(0, key.size() - kCount.size()),
                              std::move(value));
    }
  }
  io::JsonFields fields = {
      {"requests", std::to_string(requests_.value())},
      {"solves", std::to_string(solves_.value())},
      {"evals", std::to_string(evals)},
      {"sweeps", std::to_string(sweeps_.value())},
      {"errors", std::to_string(errors_.value())},
      {"cancelled", std::to_string(cancelled_.value())},
      {"disconnect_cancels", std::to_string(disconnect_cancels_.value())},
      {"connections", std::to_string(connections_.value())}};
  // Cache fields iff the cache exists, so a cache-disabled server's stats
  // line keeps its exact historical bytes.
  if (const api::SolveCache* cache = executor_.cache()) {
    const api::CacheCounters counters = cache->counters();
    fields.emplace_back("cache_hits", std::to_string(counters.hits));
    fields.emplace_back("cache_misses", std::to_string(counters.misses));
    fields.emplace_back("cache_evictions", std::to_string(counters.evictions));
    fields.emplace_back("cache_entries", std::to_string(counters.entries));
  }
  std::move(per_solver.begin(), per_solver.end(), std::back_inserter(fields));
  fields.emplace_back("jobs", std::to_string(executor_.jobs()));
  fields.emplace_back("pending", std::to_string(executor_.pending()));
  return fields;
}

void Server::handle_line(const std::string& line, int out_fd, int watch_fd,
                         bool is_socket, bool input_buffered) {
  requests_.add();
  // Zero point for the request's end-to-end latency histogram and its
  // parse span (everything until the work is dispatched counts as parse).
  const util::Stopwatch request_watch;
  io::JsonFields fields;
  try {
    fields = io::parse_flat_json(line);
  } catch (const io::ParseError& e) {
    errors_.add();
    send_line(out_fd, error_line("", e));
    return;
  }
  const std::string id = peek_id(fields);

  std::string type = "solve";
  for (const auto& [key, value] : fields) {
    if (key == "type") type = value;
  }
  if (type == "ping") {
    io::FlatJsonWriter out;
    out.field("type", "pong");
    if (!id.empty()) out.field("id", id);
    send_line(out_fd, std::move(out).str());
    return;
  }
  if (type == "health") {
    // Constant-time by contract: the router probes this at every health
    // interval, so it must answer instantly even when the pool is buried.
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    io::FlatJsonWriter out;
    out.field("type", "health");
    if (!id.empty()) out.field("id", id);
    out.field("pid", std::to_string(::getpid()));
    out.field("uptime_s", io::format_double_exact(uptime));
    out.field("in_flight", std::to_string(executor_.pending()));
    send_line(out_fd, std::move(out).str());
    return;
  }
  if (type == "stats") {
    io::FlatJsonWriter out;
    out.field("type", "stats");
    if (!id.empty()) out.field("id", id);
    for (const auto& [key, value] : stats_fields()) out.field(key, value);
    send_line(out_fd, std::move(out).str());
    return;
  }
  if (type == "metrics") {
    // The registry snapshot: summable counter/gauge/bucket fields (what a
    // router merges field-wise across the fleet) with the derived
    // p50/p90/p99 fields appended per histogram.
    metrics_.gauge("in_flight").set(executor_.pending());
    io::FlatJsonWriter out;
    out.field("type", "metrics");
    if (!id.empty()) out.field("id", id);
    for (const auto& [key, value] : obs::with_quantiles(metrics_.snapshot())) {
      out.field(key, value);
    }
    send_line(out_fd, std::move(out).str());
    return;
  }
  if (type == "pareto") {
    std::optional<io::WireParetoRequest> wire;
    try {
      wire = io::parse_pareto_request(fields);
    } catch (const io::ParseError& e) {
      errors_.add();
      send_line(out_fd, error_line(id, e));
      return;
    }
    // Reject unusable sweeps before spawning any work (the driver would
    // re-check, but an error line beats an empty front).
    if (const std::string error = api::validate_sweep(wire->request);
        !error.empty()) {
      errors_.add();
      send_line(out_fd, io::format_error(error, id));
      return;
    }

    // One source per sweep; the sweep-wide deadline arms inside the
    // driver. Executor::sweep blocks, so it runs on a session-side thread
    // (its grid points ride the shared pool — it must not run *on* the
    // pool) while this thread keeps the disconnect watch.
    util::CancelSource source;
    wire->request.base.cancel = source.token();
    // Everything up to the dispatch was parsing/validation; sweep point
    // requests inherit the context, so their cache_lookup/queue_wait/
    // bind/solve spans aggregate into this one trace.
    obs::TraceContext trace(peek_trace(fields), &metrics_);
    trace.record("parse", request_watch.elapsed_micros());
    wire->request.base.trace = &trace;
    sweeps_.add();
    std::future<api::ParetoFront> future =
        std::async(std::launch::async, [this, w = std::move(*wire)] {
          return executor_.sweep(w.problem, w.request);
        });
    const bool watching = is_socket && !input_buffered;
    await_with_watch(
        [&future](std::chrono::milliseconds interval) {
          return future.wait_for(interval) == std::future_status::ready;
        },
        source, watch_fd, watching);

    const api::ParetoFront front = future.get();
    // Every grid point was one solve through the pool: count each (a
    // disconnect mid-sweep is thus observable as `cancelled` growing by
    // the number of grid points it killed).
    for (const api::SweepEvaluation& evaluation : front.evaluations) {
      solves_.add();
      record_result(evaluation.result);
    }
    {
      const obs::SpanTimer format_span(&trace, "format");
      for (const std::size_t index : front.front) {
        const api::SweepEvaluation& evaluation = front.evaluations[index];
        send_line(
            out_fd,
            io::format_front_point(evaluation.result, evaluation.bound, id));
      }
      send_line(out_fd, io::format_pareto_summary(front, id));
    }
    const std::uint64_t total_us = request_watch.elapsed_micros();
    metrics_.histogram("request").record_us(total_us);
    if (trace_log_) trace_log_->write(trace, "pareto", id, total_us);
    return;
  }

  if (type != "solve") {
    errors_.add();
    send_line(out_fd,
              io::format_error("unknown request type '" + type + "'", id));
    return;
  }

  std::optional<io::WireSolveRequest> wire;
  try {
    wire = io::parse_solve_request(fields);
  } catch (const io::ParseError& e) {
    errors_.add();
    send_line(out_fd, error_line(id, e));
    return;
  }

  // Every solve runs under its own source: the deadline (if any) arms
  // inside the plan, and the disconnect watch fires this source.
  util::CancelSource source;
  wire->request.cancel = source.token();
  // The context lives on this session stack until the future resolves —
  // exactly the lifetime request.hpp's trace contract requires.
  obs::TraceContext trace(peek_trace(fields), &metrics_);
  trace.record("parse", request_watch.elapsed_micros());
  wire->request.trace = &trace;
  solves_.add();
  std::future<api::SolveResult> future = executor_.solve_async(
      std::move(wire->problem), std::move(wire->request));

  await_with_watch(
      [&future](std::chrono::milliseconds interval) {
        return future.wait_for(interval) == std::future_status::ready;
      },
      source, watch_fd, is_socket && !input_buffered);

  const api::SolveResult result = future.get();
  record_result(result);
  {
    const obs::SpanTimer format_span(&trace, "format");
    send_line(out_fd, io::format_result(result, id));
  }
  const std::uint64_t total_us = request_watch.elapsed_micros();
  metrics_.histogram("request").record_us(total_us);
  if (trace_log_) trace_log_->write(trace, "solve", id, total_us);
}

bool Server::await_with_watch(
    const std::function<bool(std::chrono::milliseconds)>& ready,
    util::CancelSource& source, int watch_fd, bool watching) {
  // While the work is in flight, watch the connection. The watch only
  // makes sense on sockets: closing a TCP connection signals the client
  // abandoned its pending responses (the protocol contract — keep the
  // write side open until the answers arrive), whereas in --stdio mode
  // EOF on stdin merely ends the request stream while the stdout reader
  // is usually still there. Pipelined input means the client is
  // demonstrably alive (and the probe would misread the buffered bytes),
  // so the watch only runs on an idle connection.
  bool cancelled_by_disconnect = false;
  for (;;) {
    if (ready(kWatchInterval)) return cancelled_by_disconnect;
    if (!watching || cancelled_by_disconnect || listener_.stopping()) {
      continue;  // graceful drain: let the work finish, never cancel it
    }
    const net::Peer peer = net::probe_peer(watch_fd);
    if (peer == net::Peer::Busy) {
      watching = false;  // a pipelined request arrived: alive
      continue;
    }
    if (peer == net::Peer::Gone && !listener_.stopping()) {
      source.request_cancel();
      cancelled_by_disconnect = true;
      disconnect_cancels_.add();
      // Keep waiting: the worker returns a typed cancelled result, which
      // record_result counts even though the client will never read it.
    }
  }
}

}  // namespace pipeopt::server
