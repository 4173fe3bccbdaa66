#include "api/executor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/trace.hpp"
#include "util/timing.hpp"

namespace pipeopt::api {

namespace {

std::size_t resolve_jobs(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Records the enqueue→pickup gap as the request's `queue_wait` span.
/// Called by the job itself on the worker thread; a null trace costs one
/// branch (the enqueue timestamp is only taken for traced requests).
void record_queue_wait(obs::TraceContext* trace,
                       std::chrono::steady_clock::time_point enqueued) {
  if (trace == nullptr) return;
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - enqueued);
  trace->record("queue_wait", static_cast<std::uint64_t>(waited.count()));
}

std::chrono::steady_clock::time_point enqueue_stamp(
    const obs::TraceContext* trace) {
  return trace != nullptr ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
}

}  // namespace

Executor::Executor(ExecutorOptions options)
    : Executor(default_registry(), options) {}

Executor::Executor(const SolverRegistry& registry, ExecutorOptions options)
    : registry_(&registry) {
  if (options.cache_entries > 0) {
    cache_ = std::make_unique<SolveCache>(options.cache_entries);
  }
  const std::size_t jobs = resolve_jobs(options.jobs);
  workers_.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t Executor::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + in_flight_;
}

void Executor::worker_loop() {
  for (;;) {
    std::packaged_task<SolveResult()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain-on-shutdown: accepted jobs still run so their futures are
      // always satisfied; only an empty queue ends the worker.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    job();  // leaves in_flight_ itself; exceptions land in the future
  }
}

template <class Work>
std::future<SolveResult> Executor::enqueue(Work work) {
  // The job leaves the in-flight count before packaged_task publishes its
  // result (the guard unwinds on return and on throw alike), so a caller
  // that holds its answer never still sees the job in pending().
  std::packaged_task<SolveResult()> job(
      [this, work = std::move(work)]() mutable {
        struct Leave {
          Executor* executor;
          ~Leave() {
            const std::lock_guard<std::mutex> lock(executor->mutex_);
            --executor->in_flight_;
          }
        } const leave{this};
        return work();
      });
  std::future<SolveResult> future = job.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  ready_.notify_one();
  return future;
}

bool Executor::cache_usable(const SolveRequest& request) const {
  // An already-fired token keeps the cold semantics (the plan returns the
  // typed cancelled result) by bypassing the cache entirely.
  return cache_ != nullptr && SolveCache::cacheable(request) &&
         !request.cancel.cancelled();
}

void Executor::cache_store(const std::string& key, const SolveRequest& request,
                           const SolveResult& result) {
  // A result that observed a fired token mid-run is wall-clock noise, not
  // a function of the key bytes — never store it.
  if (!result.was_cancelled() && !request.cancel.cancelled()) {
    cache_->insert(key, result);
  }
}

std::future<SolveResult> Executor::solve_async(core::Problem problem,
                                               SolveRequest request) {
  obs::TraceContext* const trace = request.trace;
  // Cache fast path: a hit answers synchronously with the stored result —
  // no pool round trip, no solve.
  if (cache_usable(request)) {
    std::string key;
    std::optional<SolveResult> hit;
    {
      const obs::SpanTimer span(trace, "cache_lookup");
      key = SolveCache::key(problem, request);
      hit = cache_->lookup(key);
    }
    if (hit) {
      std::promise<SolveResult> ready;
      ready.set_value(std::move(*hit));
      return ready.get_future();
    }
    return enqueue(
        [this, problem = std::move(problem), request = std::move(request),
         key = std::move(key), trace, enqueued = enqueue_stamp(trace)] {
          record_queue_wait(trace, enqueued);
          SolveResult result = registry_->solve(problem, request);
          cache_store(key, request, result);
          return result;
        });
  }
  return enqueue(
      [registry = registry_, problem = std::move(problem),
       request = std::move(request), trace, enqueued = enqueue_stamp(trace)] {
        record_queue_wait(trace, enqueued);
        return registry->solve(problem, request);
      });
}

BatchResult Executor::solve_batch(std::span<const core::Problem> problems,
                                  const SolveRequest& request) {
  const util::Stopwatch watch;
  BatchResult batch;
  // The whole batch shares one request-level dispatch plan; each instance
  // only binds (weights, applicability) and executes on the pool. Shared
  // ownership keeps the plan alive until the last worker is done.
  const auto dispatch =
      std::make_shared<const DispatchPlan>(registry_->plan_request(request));
  batch.dispatch_plans = 1;

  // One cacheability decision serves the whole batch (the request is
  // shared); keys still differ per instance.
  const bool use_cache = cache_usable(request);
  std::vector<std::future<SolveResult>> futures;
  futures.reserve(problems.size());
  for (const core::Problem& problem : problems) {
    if (use_cache) {
      std::string key = SolveCache::key(problem, request);
      if (std::optional<SolveResult> hit = cache_->lookup(key)) {
        std::promise<SolveResult> ready;
        ready.set_value(std::move(*hit));
        futures.push_back(ready.get_future());
        continue;
      }
      futures.push_back(
          enqueue([this, dispatch, &request, &problem, key = std::move(key)] {
            SolveResult result = dispatch->bind(problem).execute();
            cache_store(key, request, result);
            return result;
          }));
      continue;
    }
    futures.push_back(enqueue(
        [dispatch, &problem] { return dispatch->bind(problem).execute(); }));
  }
  batch.results.reserve(futures.size());
  for (auto& future : futures) batch.results.push_back(future.get());
  batch.wall_seconds = watch.elapsed_seconds();
  return batch;
}

SolveResult Executor::execute_point(const SolvePlan& plan,
                                    const core::Problem& problem,
                                    const SolveRequest& point) {
  if (!cache_usable(point)) return plan.execute_for(point);
  std::string key;
  std::optional<SolveResult> hit;
  {
    const obs::SpanTimer span(point.trace, "cache_lookup");
    key = SolveCache::key(problem, point);
    hit = cache_->lookup(key);
  }
  if (hit) return *hit;
  const SolveResult result = plan.execute_for(point);
  cache_store(key, point, result);
  return result;
}

ParetoFront Executor::sweep(const core::Problem& problem,
                            const SweepRequest& request) {
  // The shared driver builds one SolvePlan per sweep and supplies each
  // round's per-point requests; this round evaluator is the only
  // difference from the sequential api::sweep — one pool job per bound,
  // futures gathered back in bound order, each executing through the same
  // sweep-shared plan (cache-aware when the executor has one).
  return detail::run_sweep(
      *registry_, problem, request,
      [this, &problem](const SolvePlan& plan,
                       std::vector<SolveRequest> requests) {
        std::vector<std::future<SolveResult>> futures;
        futures.reserve(requests.size());
        for (SolveRequest& point : requests) {
          obs::TraceContext* const trace = point.trace;
          futures.push_back(enqueue(
              [this, &plan, &problem, point = std::move(point), trace,
               enqueued = enqueue_stamp(trace)] {
                record_queue_wait(trace, enqueued);
                return execute_point(plan, problem, point);
              }));
        }
        std::vector<SolveResult> results;
        results.reserve(futures.size());
        for (auto& future : futures) results.push_back(future.get());
        return results;
      });
}

Executor& default_executor() {
  static Executor executor{ExecutorOptions{}};
  return executor;
}

std::future<SolveResult> solve_async(core::Problem problem,
                                     SolveRequest request) {
  return default_executor().solve_async(std::move(problem), std::move(request));
}

BatchResult solve_batch(std::span<const core::Problem> problems,
                        const SolveRequest& request) {
  return default_executor().solve_batch(problems, request);
}

}  // namespace pipeopt::api
