#pragma once

/// \file ladder.hpp
/// The traced layer ladder: each request of a workload walks, one client
/// at a time, through ever more of the stack — `io` parse/format, `api`
/// plan + execute, `api::Executor::solve_async`, an in-process
/// `server::Server`, `router::Router` over one shard and over N shards —
/// so the difference between two rungs is the self time of the layer the
/// upper rung adds. Spans are kept in memory and written as JSONL when the
/// ladder ends.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace fleetbench {

struct LadderReport {
  /// Per-layer metrics (name, value); units are fixed per name.
  std::vector<std::pair<std::string, double>> metrics;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  /// Responses (in-process or wire) whose bytes differ from the reference.
  std::uint64_t mismatched = 0;
  /// The named self times, summed, come within a stated share of an
  /// independently measured 1-client router/N round trip.
  bool adds_up = false;
  /// Human-readable lines about the split (printed before the result).
  std::vector<std::string> notes;
};

/// The q-quantile of unsorted samples, linear between order statistics
/// (util::Summary's convention); 0 when there are none.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Runs the ladder over `workload` for about `seconds` (at least a few
/// requests) and writes its spans to `trace_path`.
[[nodiscard]] LadderReport run_ladder(const Workload& workload, double seconds,
                                      const std::string& trace_path);

}  // namespace fleetbench
