#pragma once

/// \file server.hpp
/// pipeopt-server: a long-lived JSONL-over-TCP solve service on top of
/// `api::Executor` — the ROADMAP's server front end.
///
/// Protocol: newline-delimited JSON, one flat object per line (json.hpp
/// dialect). Request lines:
///
///  * `{"type":"solve", ...}` — a request_io.hpp solve request (instance
///    inline or by path). Answered with one result_io.hpp
///    `{"type":"result", ...}` line; the optional `id` is echoed back.
///  * `{"type":"pareto", ...}` — a Pareto-front sweep (api/sweep.hpp over
///    the wire). Answered with one `{"type":"result", ...}` line *per
///    front point* (each carrying its producing `bound`), streamed in
///    front order on the same connection, then one terminal
///    `{"type":"pareto", ...}` summary line. `deadline_ms` bounds the
///    whole sweep; grid points ride the shared executor pool.
///  * `{"type":"stats"}` — answered with `{"type":"stats", ...}`: an
///    ordered projection of the metric registry (request, solve and
///    cancellation counters, evaluations, per-solver counts, the cache's
///    counters) plus the executor pool's size and occupancy.
///  * `{"type":"metrics"}` — answered with `{"type":"metrics", ...}`: the
///    server's obs::MetricsRegistry snapshot — the `stats` counters,
///    request/phase/per-solver latency histograms as fleet-summable bucket
///    fields, with derived p50/p90/p99 quantile fields appended
///    (obs/metrics.hpp).
///  * `{"type":"health"}` — answered with `{"type":"health", ...}`: pid,
///    uptime and in-flight count, assembled in constant time (no pool
///    round trip, no per-solver scan) — the probe the router's health
///    loop beats on, cheap enough to answer at any load.
///  * `{"type":"ping"}` — answered with `{"type":"pong"}` (liveness).
///
/// A malformed or unsupported line is answered with a structured
/// `{"type":"error","message":...}` line — the connection (and the server)
/// survives. Requests on one connection are served strictly in order;
/// concurrency comes from concurrent connections multiplexed over one
/// shared `api::Executor` pool.
///
/// Cancellation: each solve or sweep runs under its own
/// `util::CancelSource`. The wire `deadline_ms` arms a wall-clock deadline
/// inside the plan (`SolveRequest::deadline_ms`; sweep-wide for pareto),
/// and while a solve or sweep is in flight the session watches its TCP
/// connection — a client that disconnects cancels its in-flight work
/// within one watch interval (for a sweep, the remaining grid points come
/// back as typed cancelled results and never reach the front), without
/// touching other connections. Both paths surface as the typed LimitExceeded "cancelled"
/// result (the disconnected client just never reads it). The protocol
/// contract for TCP clients is therefore: keep the write side open until
/// every pending response has arrived — closing the connection (half- or
/// full-close alike; the two are indistinguishable at FIN time) tells the
/// server the answers are unwanted. In --stdio mode there is no such
/// watch: EOF on stdin only ends the request stream, and everything
/// already read is still solved and flushed to stdout.
///
/// Shutdown: `shutdown()` (also wired to SIGINT/SIGTERM by
/// `install_signal_handlers`) stops accepting, half-closes every session
/// so no further requests are read, lets in-flight solves finish and their
/// responses flush, then `serve()` returns — the executor pool drains, no
/// future is abandoned.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "api/executor.hpp"
#include "io/json.hpp"
#include "net/fault.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"

namespace pipeopt::server {

struct ServerOptions {
  /// Listen address (TCP mode).
  std::string host = "127.0.0.1";
  /// Listen port; 0 picks an ephemeral port (read it back via `port()`).
  std::uint16_t port = 0;
  /// Executor pool size; 0 = hardware concurrency.
  std::size_t jobs = 0;
  /// Solve-cache capacity in entries (`serve --cache-entries N`); 0 = off.
  /// When on, repeated byte-identical requests — including every grid
  /// point of a replayed sweep — are answered from the executor's
  /// `api::SolveCache` with the stored result verbatim, and the
  /// `{"type":"stats"}` response grows `cache_hits` / `cache_misses` /
  /// `cache_evictions` / `cache_entries` counters.
  std::size_t cache_entries = 0;
  /// Span-log path (`serve --trace-log FILE`); empty = tracing off. When
  /// set, every completed solve/pareto request appends one JSONL line with
  /// its trace id and phase breakdown (obs/trace.hpp). Response bytes are
  /// unchanged either way.
  std::string trace_log{};
  /// Deterministic fault injection (`serve --fault-spec seed:prob:kinds`,
  /// net/fault.hpp grammar); empty = off. Applies to the session sockets:
  /// `close` drops freshly accepted connections, `truncate`/`partial`/
  /// `delay` hook the session read/write paths. Chaos testing only — the
  /// flag is rejected at construction when malformed.
  std::string fault_spec{};
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens; returns the bound port (the ephemeral one when
  /// options.port was 0). \throws std::runtime_error on bind failures.
  std::uint16_t listen();

  /// Accept loop: serves connections until `shutdown()`. Call from the
  /// thread that owns the server's lifetime; sessions run on their own
  /// threads. Implies `listen()` when not yet listening. When this
  /// returns, every session is joined and every response flushed.
  void serve();

  /// Serves one already-open stream (the --stdio mode: in_fd = stdin,
  /// out_fd = stdout) until EOF on in_fd. Does not require listen().
  void serve_stream(int in_fd, int out_fd);

  /// Initiates graceful shutdown: stop accepting, half-close sessions,
  /// finish in-flight solves. Thread-safe, idempotent, returns
  /// immediately; `serve()` returning marks the drain complete.
  void shutdown();

  /// Routes SIGINT/SIGTERM to this server's `shutdown()` (one server per
  /// process; the last call wins). SIGPIPE is already ignored
  /// (net/socket.hpp), so a client that vanishes mid-response surfaces as
  /// a write error.
  static void install_signal_handlers(Server& server);

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }
  [[nodiscard]] api::Executor& executor() noexcept { return executor_; }
  /// The server's metric registry — the one store behind both
  /// `{"type":"stats"}` and `{"type":"metrics"}`.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// The fault injector behind `--fault-spec`; nullptr when injection is
  /// off (chaos tests assert on its injected() counters).
  [[nodiscard]] net::FaultInjector* fault_injector() noexcept {
    return fault_.get();
  }

 private:
  /// One connection's read-dispatch-respond loop. `is_socket` enables the
  /// disconnect watch (TCP sessions only; see the file comment).
  void session_loop(int in_fd, int out_fd, bool is_socket);

  /// Handles one request line. Every request type answers with exactly one
  /// response line except `pareto`, which streams one line per front point
  /// plus a terminal summary.
  void handle_line(const std::string& line, int out_fd, int watch_fd,
                   bool is_socket, bool input_buffered);

  /// Waits until `ready(interval)` reports the in-flight work done,
  /// watching the client connection meanwhile (`watching`: TCP sessions
  /// with no pipelined input only): a client that disconnects has `source`
  /// fired, and the wait continues until the worker's typed cancelled
  /// result lands. Returns true when the watch cancelled.
  bool await_with_watch(
      const std::function<bool(std::chrono::milliseconds)>& ready,
      util::CancelSource& source, int watch_fd, bool watching);

  /// Records one finished solve into the metric registry: `cancelled`
  /// when the result carries the "cancelled" diagnostic (expired
  /// deadline, fired token or vanished client alike), the per-solver
  /// latency histogram (`solver.<name>.latency`, from the result's solve
  /// wall; its sample count is the solver's dispatch count) and the
  /// per-solver `solver.<name>.evals` counter.
  void record_result(const api::SolveResult& result);

  /// The `stats` response fields in docs/PROTOCOL.md's emission order,
  /// projected from the registry: the counters below, `evals` summed over
  /// `solver.<name>.evals`, the cache counters (cache on only), one
  /// `solver.<name>` count per `solver.<name>.latency` histogram in its
  /// creation (= first-dispatch) order, then the pool's `jobs`/`pending`.
  [[nodiscard]] io::JsonFields stats_fields() const;

  /// Session-socket write that honors the fault hooks (all responses go
  /// through here so injected truncation hits real traffic paths).
  bool send_line(int out_fd, std::string line) const;

  ServerOptions options_;
  api::Executor executor_;
  obs::MetricsRegistry metrics_;
  // The `stats` counters, bound once from metrics_ (declared after it).
  obs::Counter& requests_;            ///< request lines handled, any type
  obs::Counter& solves_;              ///< dispatches; a sweep counts per point
  obs::Counter& sweeps_;              ///< pareto sweeps accepted
  obs::Counter& errors_;              ///< lines answered with an error line
  obs::Counter& cancelled_;           ///< results carrying "cancelled"
  obs::Counter& disconnect_cancels_;  ///< solves cancelled by a vanished client
  obs::Counter& connections_;         ///< TCP accepts and --stdio streams
  std::unique_ptr<obs::TraceLog> trace_log_;  ///< null = tracing off
  std::unique_ptr<net::FaultInjector> fault_;  ///< null = injection off
  const util::IoHooks* session_hooks_ = nullptr;  ///< fault_'s front_io()
  /// Construction time — the zero point of the health response's uptime.
  std::chrono::steady_clock::time_point started_;
  /// Declared last, so it is destroyed first: no session outlives the
  /// members it serves with.
  net::Listener listener_{"pipeopt-server"};
};

}  // namespace pipeopt::server
