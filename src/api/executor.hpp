#pragma once

/// \file executor.hpp
/// Batch and asynchronous execution over the facade — the subsystem a
/// service front end multiplexes requests through.
///
/// `Executor` owns a fixed pool of worker threads fed from one FIFO queue.
/// Two entry points:
///
///  * `solve_batch(problems, request)` — solves many instances under one
///    request, building the request-level `DispatchPlan` exactly once and
///    binding it per instance on the pool. Results are bit-identical to
///    per-call `api::solve` (same code path underneath), in input order.
///  * `solve_async(problem, request)` — enqueues one solve and returns a
///    `std::future<SolveResult>` immediately.
///  * `sweep(problem, sweep_request)` — a Pareto-front sweep (sweep.hpp)
///    whose grid points fan over the same pool, one job per bound, round by
///    refinement round. For sweeps that run to completion, results are
///    bit-identical to the sequential `api::sweep` (same driver, same
///    per-point solve underneath); a token that fires mid-round may cut
///    the two at different grid points, since the pool evaluates a round's
///    bounds concurrently.
///
/// With `ExecutorOptions::cache_entries > 0` the executor also owns a
/// `SolveCache` (cache.hpp): all three entry points serve deterministic
/// repeat requests from it — byte-identical stored results, no pool round
/// trip — and store their misses. This is the redundant-work elimination
/// layer the server's `--cache-entries` flag switches on.
///
/// Cancellation is cooperative and caller-driven: put a
/// `util::CancelSource`'s token into `request.cancel` before submitting,
/// and `request_cancel()` whenever. Running solves observe it within one
/// budget-check interval (`exact::kCancelCheckStride` nodes / one heuristic
/// iteration) and come back as typed `SolveStatus::LimitExceeded` results
/// with a "cancelled" diagnostic — futures never break, workers never die.
///
/// The destructor drains the queue (every accepted job still runs, so every
/// future is satisfied) and joins the workers. `solve_batch` blocks and
/// must not be called from one of this executor's own workers.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/cache.hpp"
#include "api/registry.hpp"
#include "api/sweep.hpp"

namespace pipeopt::api {

struct ExecutorOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency (at least 1).
  std::size_t jobs = 0;

  /// Solve-cache capacity in entries; 0 (the default) disables caching.
  /// When enabled, `solve_async`, `solve_batch` and `sweep` consult a
  /// shared `SolveCache` keyed by the canonical request bytes: hits return
  /// the stored result verbatim (wall time included) without touching the
  /// pool, misses solve normally and store their result. Requests the
  /// cache cannot serve deterministically (deadlines, time budgets,
  /// already-fired tokens) bypass it; cancelled results are never stored.
  std::size_t cache_entries = 0;
};

/// Outcome of one `solve_batch` call.
struct BatchResult {
  /// One result per input problem, in input order.
  std::vector<SolveResult> results;

  /// Request-level dispatch plans built for the batch — 1 by construction,
  /// exposed so tests and benches can assert the amortization happened.
  std::size_t dispatch_plans = 0;

  /// Wall-clock of the whole batch (planning + all executions).
  double wall_seconds = 0.0;

  /// True when every instance came back Optimal or Feasible.
  [[nodiscard]] bool all_solved() const noexcept {
    for (const auto& result : results) {
      if (!result.solved()) return false;
    }
    return true;
  }
};

/// Fixed worker pool with FIFO scheduling over one solver registry.
class Executor {
 public:
  /// Pool over `default_registry()`.
  explicit Executor(ExecutorOptions options = {});
  /// Pool over a caller-owned registry (must outlive the executor).
  Executor(const SolverRegistry& registry, ExecutorOptions options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] std::size_t jobs() const noexcept { return workers_.size(); }

  /// Jobs accepted but not yet finished (queued + running).
  [[nodiscard]] std::size_t pending() const;

  /// FIFO-enqueues one solve. The problem is copied into the job, so the
  /// caller's instance may go away before the future resolves. The future
  /// always yields a typed SolveResult — never an exception for infeasible,
  /// cancelled or unsupported requests.
  [[nodiscard]] std::future<SolveResult> solve_async(core::Problem problem,
                                                     SolveRequest request);

  /// Solves every instance under one request: one DispatchPlan for the
  /// batch, one bind + execute per instance, fanned over the pool. Blocks
  /// until all results are in. The problems span must stay valid for the
  /// duration of the call (instances are NOT copied).
  [[nodiscard]] BatchResult solve_batch(std::span<const core::Problem> problems,
                                        const SolveRequest& request);

  /// Evaluates a Pareto-front sweep with each refinement round's grid
  /// points fanned over the pool (one job per bound, results gathered in
  /// bound order). Blocks until the front is in; like `solve_batch`, it
  /// must not be called from one of this executor's own workers (the
  /// server drives it from a session-side thread for exactly that reason).
  /// Bit-identical to the sequential `api::sweep` for sweeps that run to
  /// completion (see the file comment for the mid-sweep-cancellation
  /// caveat).
  [[nodiscard]] ParetoFront sweep(const core::Problem& problem,
                                  const SweepRequest& request);

  /// The solve cache, or nullptr when `cache_entries` was 0. Exposed so
  /// the server can surface hit/miss/eviction counters and tests can
  /// assert on them.
  [[nodiscard]] const SolveCache* cache() const noexcept {
    return cache_.get();
  }

 private:
  void worker_loop();
  /// Queues `work` (a callable returning SolveResult) as one pool job.
  template <class Work>
  std::future<SolveResult> enqueue(Work work);

  /// The shared cache policy, split into its two decision points so
  /// solve_async, solve_batch and execute_point cannot drift: whether this
  /// request may consult the cache at all...
  [[nodiscard]] bool cache_usable(const SolveRequest& request) const;
  /// ...and whether a finished result may be stored (only call when
  /// `cache_usable(request)` held at lookup time).
  void cache_store(const std::string& key, const SolveRequest& request,
                   const SolveResult& result);

  /// Cache-aware execution of one sweep point through the sweep-shared
  /// plan; falls through to `plan.execute_for(point)` on a miss or when
  /// the point is not cacheable. `problem` is the caller's original
  /// instance (cache keys are always canonical caller bytes, never the
  /// plan's reweighted rebuild).
  [[nodiscard]] SolveResult execute_point(const SolvePlan& plan,
                                          const core::Problem& problem,
                                          const SolveRequest& point);

  const SolverRegistry* registry_;
  std::unique_ptr<SolveCache> cache_;  ///< null when caching is off
  std::vector<std::thread> workers_;
  // FIFO queue state, guarded by mutex_.
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::packaged_task<SolveResult()>> queue_;
  std::size_t in_flight_ = 0;  ///< dequeued, still running
  bool stopping_ = false;
};

/// Process-wide shared executor over `default_registry()` (hardware-sized
/// pool, created on first use) — what the free functions below run on.
[[nodiscard]] Executor& default_executor();

/// `default_executor().solve_async(...)`.
[[nodiscard]] std::future<SolveResult> solve_async(core::Problem problem,
                                                   SolveRequest request);

/// `default_executor().solve_batch(...)`.
[[nodiscard]] BatchResult solve_batch(std::span<const core::Problem> problems,
                                      const SolveRequest& request);

}  // namespace pipeopt::api
