#include "router/router.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "io/stats_io.hpp"
#include "util/timing.hpp"

namespace pipeopt::router {

namespace {

/// How often an in-flight forward's session polls for client disconnect,
/// and how often a slot waiter rechecks the fleet.
constexpr auto kWatchInterval = std::chrono::milliseconds(10);
constexpr auto kSlotWaitInterval = std::chrono::milliseconds(50);
/// How long a spawned child gets to announce its port before the spawn
/// counts as failed (solver registration is cheap; this is pure margin).
constexpr auto kSpawnDeadline = std::chrono::seconds(10);

using util::FdLineReader;
using util::write_line;

/// The "type" of a server response line. Every server-written line starts
/// with `{"type":"..."` (FlatJsonWriter field order), so a prefix scan is
/// enough — and cheap enough to run per relayed line.
std::string response_type(const std::string& line) {
  constexpr const char kPrefix[] = "{\"type\":\"";
  constexpr std::size_t kPrefixLen = sizeof kPrefix - 1;
  if (line.compare(0, kPrefixLen, kPrefix) != 0) return {};
  const std::size_t end = line.find('"', kPrefixLen);
  if (end == std::string::npos) return {};
  return line.substr(kPrefixLen, end - kPrefixLen);
}

std::size_t line_hash(const std::string& text) {
  return std::hash<std::string>{}(text);
}

/// `line` with `"trace":"<id>"` spliced in as the first field. Only called
/// on lines that parsed (so byte 0 is '{'); the splice point right after
/// the brace keeps every original byte — shard-side parsing is order-free.
std::string splice_trace(const std::string& line, const std::string& id) {
  std::string traced = line;
  traced.insert(1, "\"trace\":\"" + id + "\",");
  return traced;
}

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      started_(std::chrono::steady_clock::now()),
      routed_(metrics_.counter("routed")),
      shed_(metrics_.counter("shed")),
      shed_expired_(metrics_.counter("shed_expired")),
      retries_connect_(metrics_.counter("retries_by_code.connect")),
      retries_transport_(metrics_.counter("retries_by_code.transport")),
      restarts_(metrics_.counter("restarts")),
      shard_lost_errors_(metrics_.counter("shard_lost_errors")) {
  const bool endpoint_mode = !options_.shards.empty();
  const bool spawn_mode = options_.spawn > 0;
  if (endpoint_mode == spawn_mode) {
    throw std::runtime_error(
        "pipeopt-router: configure either --shards or --spawn (exactly one)");
  }
  if (options_.window == 0) {
    throw std::runtime_error("pipeopt-router: --window must be positive");
  }
  if (options_.breaker_threshold == 0 || options_.breaker_close_successes == 0) {
    throw std::runtime_error(
        "pipeopt-router: breaker threshold/close-successes must be positive");
  }
  if (!options_.fault_spec.empty()) {
    const auto spec = net::parse_fault_spec(options_.fault_spec);
    if (!spec) {
      throw std::runtime_error("pipeopt-router: bad --fault-spec '" +
                               options_.fault_spec +
                               "' (want seed:prob:kind[,kind...])");
    }
    fault_ = std::make_unique<net::FaultInjector>(*spec);
    front_hooks_ = &fault_->front_io();
    relay_hooks_ = &fault_->relay_io();
  }
  if (spawn_mode) {
    for (std::size_t i = 0; i < options_.spawn; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->host = "127.0.0.1";
      shard->healthy = false;  // up once spawned and announced
      shard->breaker = BreakerState::Open;
      shards_.push_back(std::move(shard));
    }
  } else {
    for (const ShardAddress& address : options_.shards) {
      auto shard = std::make_unique<Shard>();
      shard->host = address.host;
      shard->port = address.port;
      shards_.push_back(std::move(shard));
    }
  }
  if (!options_.trace_log.empty()) {
    trace_log_ = std::make_unique<obs::TraceLog>(options_.trace_log);
  }
}

Router::~Router() {
  shutdown();
  stop_health_thread();
  terminate_children();
}

std::size_t Router::shard_count() const noexcept { return shards_.size(); }

std::vector<ShardInfo> Router::shard_infos() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<ShardInfo> infos;
  infos.reserve(shards_.size());
  for (const auto& shard : shards_) {
    infos.push_back(ShardInfo{shard->host, shard->port, shard->pid,
                              shard->healthy, shard->in_flight,
                              shard->breaker, shard->up_transitions,
                              shard->down_transitions});
  }
  return infos;
}

std::uint64_t Router::up_transitions() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->up_transitions;
  return total;
}

std::uint64_t Router::down_transitions() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->down_transitions;
  return total;
}

std::uint16_t Router::listen() {
  if (listener_.bound()) return listener_.port();
  listener_.bind(options_.host, options_.port);

  // Spawn before serving: a front tier with no backend would shed every
  // request of its first clients for one health interval.
  if (options_.spawn > 0) {
    for (std::size_t i = 0; i < shards_.size(); ++i) spawn_shard(i);
  }
  health_thread_ = std::thread([this] { health_loop(); });
  return listener_.port();
}

void Router::serve() {
  listen();
  // Drain in dependency order: the listener refuses new connections,
  // half-closes the sessions so no further requests are read and lets the
  // in-flight forwards finish and flush — and only then does the shard
  // fleet go down, so every accepted request that can complete does.
  listener_.run([this](int fd) { session_loop(fd); }, fault_.get());
  stop_health_thread();
  terminate_children();
}

void Router::shutdown() { listener_.stop(); }

void Router::install_signal_handlers(Router& router) {
  router.listener_.route_signals();
}

void Router::session_loop(int fd) {
  Session session{fd, std::vector<ShardConn>(shards_.size())};
  FdLineReader reader(fd, front_hooks_);
  std::string line;
  while (reader.next_line(line)) {
    // A client stream that dies mid-line left a torn prefix, not a
    // request: never forward it (the shard would execute a request the
    // client never finished sending).
    if (!reader.last_terminated()) break;
    if (line.empty() || line == "\r") continue;
    if (handle_line(line, session, reader.buffered()) == Relay::ClientGone) {
      break;
    }
    if (listener_.stopping()) break;
  }
  if (reader.line_too_long()) send_front(fd, io::format_line_too_long());
  // Closing the shard connections first propagates the disconnect: a shard
  // still computing for this client sees its own session vanish and
  // cancels, exactly as if the client had connected to it directly.
  for (ShardConn& conn : session.conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

Router::Relay Router::handle_line(const std::string& line, Session& session,
                                  bool input_buffered) {
  // Zero point of the request's relative deadline: the moment its line
  // arrived (time spent in backpressure waits or retry backoff counts
  // against it).
  const util::Stopwatch arrival;
  io::JsonFields fields;
  bool parsed = true;
  try {
    fields = io::parse_flat_json(line);
  } catch (const io::ParseError&) {
    parsed = false;  // forward anyway: the shard's error line is the answer
  }
  std::string id;
  std::string type = "solve";
  std::uint64_t deadline_ms = 0;
  if (parsed) {
    for (const auto& [key, value] : fields) {
      if (key == "id") id = value;
      if (key == "type") type = value;
      if (key == "deadline_ms") {
        deadline_ms = std::strtoull(value.c_str(), nullptr, 10);
      }
    }
  }
  if (parsed && type == "ping") {
    io::FlatJsonWriter out;
    out.field("type", "pong");
    if (!id.empty()) out.field("id", id);
    return send_front(session.fd, std::move(out).str()) ? Relay::Done
                                                        : Relay::ClientGone;
  }
  if (parsed && type == "health") {
    answer_health(id, session.fd);
    return Relay::Done;
  }
  if (parsed && type == "stats") {
    answer_stats(id, session.fd);
    return Relay::Done;
  }
  if (parsed && type == "metrics") {
    answer_metrics(id, session.fd);
    return Relay::Done;
  }

  // The routing key: canonical request bytes where the line parses (so
  // wire-presentation differences — field order, whitespace, an `id` —
  // cannot split byte-equivalent work across shards), raw bytes otherwise
  // (identical garbage still lands on one shard).
  std::size_t key_hash = line_hash(line);
  bool streamed = false;
  if (parsed && type == "solve") {
    try {
      const io::WireSolveRequest wire = io::parse_solve_request(fields);
      key_hash = line_hash(io::format_solve_key(wire.problem, wire.request));
    } catch (const std::exception&) {
    }
  } else if (parsed && type == "pareto") {
    streamed = true;
    try {
      const io::WireParetoRequest wire = io::parse_pareto_request(fields);
      key_hash = line_hash(io::format_pareto_request(wire.problem, wire.request));
    } catch (const std::exception&) {
    }
  }
  // The router's own phase is `relay`: forward plus response stream,
  // recorded per solve/pareto line. With a trace log configured the
  // request additionally carries a fleet-wide id — reused from the wire
  // when the client sent one, generated and spliced into the forwarded
  // bytes otherwise — so the router's span line and the shard's join on
  // it. The splice happens after key_hash was computed, so sticky routing
  // sees identical bytes with tracing on or off.
  const bool traceable = parsed && (type == "solve" || type == "pareto");
  if (trace_log_ != nullptr && traceable) {
    std::string trace_id;
    for (const auto& [key, value] : fields) {
      if (key == "trace") trace_id = value;
    }
    const bool splice = trace_id.empty();
    obs::TraceContext trace(std::move(trace_id), &metrics_);
    const util::Stopwatch watch;
    const Relay relay =
        forward_line(splice ? splice_trace(line, trace.id()) : line, id,
                     streamed, key_hash, session, input_buffered, deadline_ms,
                     arrival);
    const auto total_us = static_cast<std::uint64_t>(watch.elapsed_micros());
    trace.record("relay", total_us);
    trace_log_->write(trace, type, id, total_us);
    return relay;
  }
  const util::Stopwatch watch;
  const Relay relay = forward_line(line, id, streamed, key_hash, session,
                                   input_buffered, deadline_ms, arrival);
  if (traceable) {
    metrics_.histogram("phase.relay")
        .record_us(static_cast<std::uint64_t>(watch.elapsed_micros()));
  }
  return relay;
}

Router::Admit Router::acquire_slot(std::size_t key_hash,
                                   std::size_t& shard_index, int client_fd,
                                   bool watching,
                                   const std::vector<bool>& tried,
                                   std::uint64_t deadline_ms,
                                   const util::Stopwatch& arrival) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    // Deadline-aware admission: a request whose relative deadline already
    // elapsed (arrival-relative, so backpressure waits count) is shed
    // typed instead of burning a shard slot on unwanted work.
    if (deadline_ms > 0 &&
        arrival.elapsed_seconds() * 1000.0 >= static_cast<double>(deadline_ms)) {
      return Admit::Expired;
    }
    const std::size_t n = shards_.size();
    std::size_t healthy = 0;
    std::size_t sticky = n;
    bool any_free = false;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (key_hash + k) % n;
      if (!shards_[i]->healthy) continue;
      ++healthy;
      if (tried[i]) continue;  // already failed this request: fail over
      if (sticky == n) sticky = i;
      if (shards_[i]->in_flight < options_.window) any_free = true;
    }
    if (healthy == 0) return Admit::Unavailable;
    if (sticky == n) return Admit::Exhausted;
    if (shards_[sticky]->in_flight < options_.window) {
      ++shards_[sticky]->in_flight;
      shard_index = sticky;
      return Admit::Ok;
    }
    // Sticky target saturated. With the whole fleet saturated a
    // deadline-less request is shed now (queueing would just move the
    // overload into the router); one that carries a deadline told us how
    // long it is willing to wait, so it queues until a slot frees or the
    // loop top sheds it typed `expired`. With room elsewhere the request
    // WAITS for its sticky shard instead of spilling — stickiness is what
    // keeps the shard caches coherent, and a saturated-but-alive shard
    // frees a slot soon.
    if (!any_free && deadline_ms == 0) return Admit::Overloaded;
    state_changed_.wait_for(lock, kSlotWaitInterval);
    if (watching) {
      lock.unlock();
      const net::Peer peer = net::probe_peer(client_fd);
      lock.lock();
      if (peer == net::Peer::Gone) return Admit::ClientGone;
      if (peer == net::Peer::Busy) watching = false;
    }
  }
}

void Router::release_slot(std::size_t shard_index) {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    Shard& shard = *shards_[shard_index];
    if (shard.in_flight > 0) --shard.in_flight;
  }
  state_changed_.notify_all();
}

void Router::mark_down(std::size_t shard_index) {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    Shard& shard = *shards_[shard_index];
    shard.consecutive_ok = 0;
    if (shard.breaker == BreakerState::Open) return;
    // Only Closed→Open counts as a down transition: a half-open shard
    // already left rotation when it opened (the flapping invariant the
    // chaos tests assert — oscillating probes must not pump the counter).
    if (shard.breaker == BreakerState::Closed) ++shard.down_transitions;
    shard.breaker = BreakerState::Open;
    shard.healthy = false;
    shard.opened_at = std::chrono::steady_clock::now();
  }
  // Waiters re-resolve their sticky target (or flip to Overloaded/
  // Unavailable) against the new fleet shape.
  state_changed_.notify_all();
}

void Router::mark_up(std::size_t shard_index) {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    Shard& shard = *shards_[shard_index];
    shard.strikes = 0;
    shard.consecutive_ok = 0;
    if (shard.breaker == BreakerState::Closed) return;
    shard.breaker = BreakerState::Closed;
    shard.healthy = true;
    ++shard.up_transitions;
  }
  state_changed_.notify_all();
}

void Router::record_failure(std::size_t shard_index) {
  bool flipped = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    Shard& shard = *shards_[shard_index];
    shard.consecutive_ok = 0;
    switch (shard.breaker) {
      case BreakerState::Closed:
        // Strikes survive isolated successes: only close_successes
        // consecutive successes annul them (record_success), so an
        // alternating accept/refuse shard still converges to Open.
        if (++shard.strikes >= options_.breaker_threshold) {
          shard.breaker = BreakerState::Open;
          shard.healthy = false;
          shard.opened_at = std::chrono::steady_clock::now();
          ++shard.down_transitions;
          flipped = true;
        }
        break;
      case BreakerState::HalfOpen:
        // Failed recovery probe: back to Open with a fresh cooldown. No
        // down transition — the shard never re-entered rotation.
        shard.breaker = BreakerState::Open;
        shard.opened_at = std::chrono::steady_clock::now();
        break;
      case BreakerState::Open:
        break;  // request-path stragglers; nothing new to learn
    }
  }
  if (flipped) state_changed_.notify_all();
}

void Router::record_success(std::size_t shard_index) {
  bool flipped = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    Shard& shard = *shards_[shard_index];
    ++shard.consecutive_ok;
    if (shard.consecutive_ok < options_.breaker_close_successes) return;
    if (shard.breaker == BreakerState::Closed) {
      shard.strikes = 0;  // a genuinely recovered shard sheds its history
    } else {
      shard.breaker = BreakerState::Closed;
      shard.healthy = true;
      shard.strikes = 0;
      ++shard.up_transitions;
      flipped = true;
    }
  }
  if (flipped) state_changed_.notify_all();
}

bool Router::ensure_conn(Session& session, std::size_t shard_index) {
  ShardConn& conn = session.conns[shard_index];
  if (conn.fd >= 0) return true;
  std::string host;
  std::uint16_t port = 0;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    host = shards_[shard_index]->host;
    port = shards_[shard_index]->port;
  }
  if (port == 0) return false;  // spawn pending: no endpoint yet
  if (fault_ && fault_->connect_should_refuse()) return false;
  const int fd = net::connect(host, port);
  if (fd < 0) return false;
  conn.fd = fd;
  conn.reader = FdLineReader(fd, relay_hooks_);
  return true;
}

bool Router::send_front(int fd, std::string line) const {
  return write_line(fd, std::move(line), front_hooks_);
}

Router::Relay Router::forward_line(const std::string& line,
                                   const std::string& id, bool streamed,
                                   std::size_t key_hash, Session& session,
                                   bool input_buffered,
                                   std::uint64_t deadline_ms,
                                   const util::Stopwatch& arrival) {
  // The retry budget: each failover or stale-connection retry consumes
  // one attempt. The default (retries == 0) keeps the historical budget
  // of one attempt per shard plus one stale-connection retry; exhaustion
  // means every option failed even though probes say shards are up —
  // answer typed, don't spin. Backoff between attempts follows the shared
  // RetryPolicy, seeded by the routing key so a replayed request replays
  // its exact schedule.
  const std::size_t max_attempts = options_.retries > 0
                                       ? options_.retries + 1
                                       : shards_.size() + 1;
  util::RetryPolicy policy;
  policy.retries = max_attempts - 1;
  policy.backoff_ms =
      static_cast<std::uint64_t>(options_.retry_backoff.count());
  policy.seed = static_cast<std::uint64_t>(key_hash);
  std::size_t attempt = 0;  // failures so far
  // Shards that already failed this request on a fresh connection; the
  // failover scan skips them so a striking-but-not-yet-open shard cannot
  // eat the whole budget.
  std::vector<bool> tried(shards_.size(), false);
  const auto respond_error = [&](const std::string& code,
                                 const std::string& message) {
    shed_.add();
    return send_front(session.fd, io::format_error(message, id, code))
               ? Relay::Done
               : Relay::ClientGone;
  };
  // Counts one consumed attempt under its cause's `retries_by_code.*`
  // counter; returns false when the budget is exhausted (time to answer
  // typed).
  const auto count_retry = [&](obs::Counter& by_code) {
    by_code.add();
    ++attempt;
    if (attempt >= max_attempts) return false;
    const std::uint64_t delay = policy.delay_ms(attempt - 1);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    return true;
  };
  for (;;) {
    std::size_t shard = 0;
    switch (acquire_slot(key_hash, shard, session.fd, !input_buffered, tried,
                         deadline_ms, arrival)) {
      case Admit::Overloaded:
        return respond_error("overloaded",
                             "every shard is at its in-flight window");
      case Admit::Unavailable:
        return respond_error("unavailable", "no healthy shard available");
      case Admit::Exhausted:
        // Every shard failed this request once. Transient faults (a
        // dropped accept, a stale pool entry) are exactly what the
        // budget is for: while attempts remain, wipe the tried set and
        // take another round — each failure already consumed an attempt
        // and slept its backoff, so this cannot spin.
        if (attempt < max_attempts) {
          std::fill(tried.begin(), tried.end(), false);
          continue;
        }
        return respond_error("unavailable", "request failed on every shard");
      case Admit::Expired:
        shed_expired_.add();
        return send_front(session.fd,
                          io::format_error("deadline expired before dispatch",
                                           id, "expired"))
                   ? Relay::Done
                   : Relay::ClientGone;
      case Admit::ClientGone:
        return Relay::ClientGone;
      case Admit::Ok:
        break;
    }

    // A connection that existed before this attempt may be stale (the
    // shard restarted since); its failure earns one retry on a fresh
    // connection to the SAME shard before the shard takes a strike.
    const bool reused = session.conns[shard].fd >= 0;
    const auto drop_conn = [&] {
      ShardConn& conn = session.conns[shard];
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
    };
    if (!ensure_conn(session, shard)) {
      release_slot(shard);
      record_failure(shard);
      tried[shard] = true;
      if (!count_retry(retries_connect_)) {
        return respond_error("unavailable", "request failed on every shard");
      }
      continue;
    }
    ShardConn& conn = session.conns[shard];

    bool shard_dead = !write_line(conn.fd, line, relay_hooks_);
    bool relayed_bytes = false;
    bool watching = !input_buffered;
    std::string response;
    while (!shard_dead) {
      // Wait until the shard connection is readable, watching the client
      // meanwhile: a vanished client gets its shard connection closed,
      // which cancels the in-flight work shard-side.
      for (;;) {
        if (conn.reader.buffered()) break;
        pollfd probe{conn.fd, POLLIN, 0};
        const int ready =
            ::poll(&probe, 1, static_cast<int>(kWatchInterval.count()));
        if (ready > 0) break;
        if (ready < 0 && errno != EINTR) break;
        if (watching) {
          switch (net::probe_peer(session.fd)) {
            case net::Peer::Gone:
              drop_conn();
              release_slot(shard);
              return Relay::ClientGone;
            case net::Peer::Busy:
              watching = false;
              break;
            case net::Peer::Idle:
              break;
          }
        }
      }
      if (!conn.reader.next_line(response) || !conn.reader.last_terminated()) {
        // EOF, a torn line, or one over util::kMaxLineBytes: a response
        // fragment must never reach the client as a complete wire message.
        shard_dead = true;
        break;
      }
      if (!send_front(session.fd, response)) {
        drop_conn();  // mid-response client loss: cancel shard-side too
        release_slot(shard);
        return Relay::ClientGone;
      }
      relayed_bytes = true;
      if (!streamed || response_type(response) != "result") {
        // Single-line response, the pareto terminal summary, or a typed
        // error line: the response is complete.
        release_slot(shard);
        routed_.add();
        record_success(shard);
        return Relay::Done;
      }
    }

    // The shard connection died. With response bytes already relayed the
    // request cannot be retried (the client would see a torn stream); a
    // typed error closes the response instead — the client may re-send it
    // under its own policy if (and only if) the request is idempotent.
    drop_conn();
    release_slot(shard);
    if (relayed_bytes) {
      record_failure(shard);
      shard_lost_errors_.add();
      return send_front(session.fd,
                        io::format_error("shard connection lost mid-response",
                                         id, "shard-lost"))
                 ? Relay::Done
                 : Relay::ClientGone;
    }
    // Nothing relayed: safe to resend. A reused connection's death is
    // first blamed on the connection (shard may have restarted behind
    // it); a fresh connection's death earns the shard a strike and takes
    // it out of this request's scan.
    if (!reused) {
      record_failure(shard);
      tried[shard] = true;
    }
    if (!count_retry(retries_transport_)) {
      return respond_error("unavailable", "request failed on every shard");
    }
  }
}

std::vector<io::JsonFields> Router::fan_out(
    const std::vector<ShardInfo>& shards, const std::string& type) const {
  // Short-lived probe connections (the session's cached connections would
  // work too, but a down shard must not stall the answer — the probe
  // timeout bounds each leg).
  const std::string request = "{\"type\":\"" + type + "\"}";
  std::vector<io::JsonFields> answers;
  for (const ShardInfo& shard : shards) {
    if (!shard.healthy) continue;
    const int fd = net::connect(shard.host, shard.port, options_.probe_timeout);
    if (fd < 0) continue;
    FdLineReader reader(fd);
    std::string response;
    if (write_line(fd, request) && reader.next_line(response) &&
        reader.last_terminated()) {
      try {
        io::JsonFields fields = io::parse_flat_json(response);
        std::erase_if(fields, [](const auto& field) {
          return obs::is_derived_metric_field(field.first);
        });
        if (io::stats_field(fields, "type") == type) {
          // The merge's own rule (every field a decimal counter), checked
          // per shard: the fleet-wide merge can then no longer throw.
          (void)io::merge_stats_fields({fields});
          answers.push_back(std::move(fields));
        }
      } catch (const io::ParseError&) {
        // Dropped: this shard's answer only, never the others'.
      }
    }
    ::close(fd);
  }
  return answers;
}

void Router::answer_metrics(const std::string& id, int out_fd) {
  // Histogram groups merge bucket-wise and the fleet quantiles are
  // re-derived from the merged buckets — a merging tier never averages
  // two medians. The router's own snapshot goes first so its fields lead
  // the merged block.
  const std::vector<ShardInfo> shards = shard_infos();
  std::vector<obs::MetricFields> snapshots = fan_out(shards, "metrics");
  snapshots.insert(snapshots.begin(), metrics_.snapshot());
  const obs::MetricFields merged = obs::merge_metrics_fields(snapshots);

  io::FlatJsonWriter out;
  out.field("type", "metrics");
  if (!id.empty()) out.field("id", id);
  out.field("shards", std::to_string(shards.size()));
  out.field("shards_up", std::to_string(std::ranges::count_if(
                             shards, &ShardInfo::healthy)));
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string prefix = "shard." + std::to_string(i) + ".";
    out.field(prefix + "up", shards[i].healthy ? "1" : "0");
    out.field(prefix + "in_flight", std::to_string(shards[i].in_flight));
    out.field(prefix + "breaker_state",
              std::to_string(static_cast<int>(shards[i].breaker)));
  }
  for (const auto& [key, value] : merged) out.field(key, value);
  send_front(out_fd, std::move(out).str());
}

void Router::answer_health(const std::string& id, int out_fd) {
  const double uptime = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_)
                            .count();
  std::size_t up = 0;
  std::size_t in_flight = 0;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    for (const auto& shard : shards_) {
      if (shard->healthy) ++up;
      in_flight += shard->in_flight;
    }
  }
  io::FlatJsonWriter out;
  out.field("type", "health");
  if (!id.empty()) out.field("id", id);
  out.field("pid", std::to_string(::getpid()));
  out.field("uptime_s", io::format_double_exact(uptime));
  out.field("in_flight", std::to_string(in_flight));
  out.field("shards", std::to_string(shards_.size()));
  out.field("shards_up", std::to_string(up));
  send_front(out_fd, std::move(out).str());
}

void Router::answer_stats(const std::string& id, int out_fd) {
  const std::vector<ShardInfo> shards = shard_infos();
  const io::JsonFields merged =
      io::merge_stats_fields(fan_out(shards, "stats"));

  io::FlatJsonWriter out;
  out.field("type", "stats");
  if (!id.empty()) out.field("id", id);
  out.field("shards", std::to_string(shards.size()));
  out.field("shards_up", std::to_string(std::ranges::count_if(
                             shards, &ShardInfo::healthy)));
  out.field("routed", std::to_string(routed()));
  out.field("shed", std::to_string(shed()));
  out.field("shed_expired", std::to_string(shed_expired()));
  out.field("retries", std::to_string(retries()));
  out.field("restarts", std::to_string(restarts()));
  out.field("shard_up_transitions", std::to_string(up_transitions()));
  out.field("shard_down_transitions", std::to_string(down_transitions()));
  out.field("shard_lost_errors", std::to_string(shard_lost_errors()));
  for (const auto& [key, value] : merged) out.field(key, value);
  send_front(out_fd, std::move(out).str());
}

void Router::health_loop() {
  std::unique_lock<std::mutex> lock(health_mutex_);
  while (!health_stop_) {
    health_wake_.wait_for(lock, options_.health_interval);
    if (health_stop_) break;
    lock.unlock();
    check_shards();
    lock.lock();
  }
}

void Router::check_shards() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::string host;
    std::uint16_t port = 0;
    pid_t pid = -1;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      host = shards_[i]->host;
      port = shards_[i]->port;
      pid = shards_[i]->pid;
    }
    if (options_.spawn > 0) {
      if (pid > 0) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          // The child is gone (killed, crashed, OOMed). Mark it down first
          // so no new request targets the dead port, then respawn.
          mark_down(i);
          {
            const std::lock_guard<std::mutex> lock(state_mutex_);
            shards_[i]->pid = -1;
            if (shards_[i]->stdout_fd >= 0) {
              ::close(shards_[i]->stdout_fd);
              shards_[i]->stdout_fd = -1;
            }
          }
          pid = -1;
        }
      }
      if (pid <= 0) {
        try {
          spawn_shard(i);
          restarts_.add();
        } catch (const std::exception&) {
          continue;  // stays down; retried next interval
        }
        const std::lock_guard<std::mutex> lock(state_mutex_);
        host = shards_[i]->host;
        port = shards_[i]->port;
      }
    }
    if (port == 0) {
      mark_down(i);
      continue;
    }
    // An open breaker gates its recovery probes behind the cooldown;
    // once it elapses the shard moves to HalfOpen and the probe outcome
    // decides (breaker_close_successes successes close it,
    // record_failure re-opens with a fresh cooldown).
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      Shard& shard = *shards_[i];
      if (shard.breaker == BreakerState::Open) {
        if (std::chrono::steady_clock::now() <
            shard.opened_at + options_.breaker_cooldown) {
          continue;
        }
        shard.breaker = BreakerState::HalfOpen;
      }
    }
    // The probe: connect, ping `{"type":"health"}`, expect the typed
    // answer within the probe timeout. The health handler is constant-time
    // server-side, so a timeout means wedged, not busy. Probes use plain
    // (un-hooked) IO on purpose: fault campaigns stay deterministic per
    // request stream, and breaker state reflects the shard, not the shim.
    bool alive = false;
    const int fd = net::connect(host, port, options_.probe_timeout);
    if (fd >= 0) {
      if (write_line(fd, "{\"type\":\"health\"}")) {
        FdLineReader reader(fd);
        std::string response;
        alive = reader.next_line(response) && reader.last_terminated() &&
                response_type(response) == "health";
      }
      ::close(fd);
    }
    if (alive) {
      record_success(i);
    } else {
      record_failure(i);
    }
  }
}

void Router::spawn_shard(std::size_t shard_index) {
  int announce[2];
  if (::pipe2(announce, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipeopt-router: cannot create announce pipe");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(announce[0]);
    ::close(announce[1]);
    throw std::runtime_error("pipeopt-router: fork() failed");
  }
  if (pid == 0) {
    // Child: stdout carries the port announcement to the router (dup2
    // clears close-on-exec on the duplicate); stderr stays shared.
    ::dup2(announce[1], STDOUT_FILENO);
    std::vector<std::string> args{options_.spawn_binary, "serve",
                                  "--host",             "127.0.0.1",
                                  "--port",             "0"};
    if (options_.spawn_jobs > 0) {
      args.push_back("--jobs");
      args.push_back(std::to_string(options_.spawn_jobs));
    }
    if (options_.spawn_cache_entries > 0) {
      args.push_back("--cache-entries");
      args.push_back(std::to_string(options_.spawn_cache_entries));
    }
    if (!options_.spawn_trace_log.empty()) {
      args.push_back("--trace-log");
      args.push_back(options_.spawn_trace_log + "." +
                     std::to_string(shard_index) + ".jsonl");
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(options_.spawn_binary.c_str(), argv.data());
    ::_exit(127);  // exec failed; the parent sees EOF before any announce
  }
  ::close(announce[1]);

  // Parent: wait for "pipeopt-server listening on H:P" on the child's
  // stdout, bounded by kSpawnDeadline (a child that dies first closes the
  // pipe and fails the parse immediately). Reads that would outlast the
  // deadline end the stream instead.
  const auto deadline = std::chrono::steady_clock::now() + kSpawnDeadline;
  util::IoHooks bounded;
  bounded.read = [deadline](int fd, void* buf, std::size_t len) -> ssize_t {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
    pollfd probe{fd, POLLIN, 0};
    const int ready =
        remaining.count() > 0
            ? ::poll(&probe, 1, static_cast<int>(remaining.count()))
            : 0;
    if (ready <= 0) return ready;  // -1/EINTR retries, 0 is the deadline
    return ::read(fd, buf, len);
  };
  FdLineReader reader(announce[0], &bounded);
  std::string line;
  std::uint16_t port = 0;
  bool announced = false;
  while (!announced && reader.next_line(line) && reader.last_terminated()) {
    const std::size_t colon = line.rfind(':');
    if (line.find(" listening on ") == std::string::npos ||
        colon == std::string::npos) {
      continue;
    }
    const char* last = line.data() + line.size();
    const auto [end, error] =
        std::from_chars(line.data() + colon + 1, last, port);
    announced = error == std::errc{} && end == last && port != 0;
  }
  if (!announced) {
    ::close(announce[0]);
    ::kill(pid, SIGKILL);
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
    throw std::runtime_error("pipeopt-router: spawned shard " +
                             std::to_string(shard_index) +
                             " failed to announce a port");
  }
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    Shard& shard = *shards_[shard_index];
    shard.host = "127.0.0.1";
    shard.port = port;
    shard.pid = pid;
    // Keep the announce pipe open for the child's lifetime: closing it
    // would turn any later stdout write in the child into EPIPE noise.
    shard.stdout_fd = announce[0];
  }
  mark_up(shard_index);
}

void Router::stop_health_thread() {
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    health_stop_ = true;
  }
  health_wake_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
}

void Router::terminate_children() {
  if (options_.spawn == 0) return;
  // SIGTERM everyone first (they drain concurrently), then reap.
  std::vector<pid_t> pids;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    for (const auto& shard : shards_) {
      if (shard->pid > 0) {
        ::kill(shard->pid, SIGTERM);
        pids.push_back(shard->pid);
        shard->pid = -1;
      }
      if (shard->stdout_fd >= 0) {
        ::close(shard->stdout_fd);
        shard->stdout_fd = -1;
      }
      shard->healthy = false;
    }
  }
  for (const pid_t pid : pids) {
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
}

}  // namespace pipeopt::router
