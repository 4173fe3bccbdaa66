#pragma once

/// \file workload.hpp
/// The three seeded traffic mixes of the fleet benchmark and their
/// reference answers.
///
/// A workload is a pool of distinct request lines (each with the wire
/// bytes the fleet must answer, computed in-process with `api::solve` /
/// `api::sweep` before any timing starts) plus the order in which the
/// closed-loop clients draw from that pool. The fleet only ever sees the
/// JSONL lines; the decoded problem and request stay here for the traced
/// in-process ladder.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fleetbench {

enum class Mix { WireSmall, SolveHeavy, ReplayZipf };

[[nodiscard]] std::optional<Mix> parse_mix(std::string_view name);
[[nodiscard]] const char* mix_name(Mix mix);

/// Per-shard solve-cache capacity of the benchmarked fleet, the same for
/// every workload (`route --cache-entries`).
inline constexpr std::size_t kCacheEntries = 256;
/// Shards behind the router (`route --spawn`).
inline constexpr std::size_t kShards = 2;

/// One pool entry: a request line as sent (with its `id`) and the response
/// lines the fleet must answer with, `wall_s` left out.
struct PoolEntry {
  std::string line;
  bool pareto = false;  ///< a Pareto sweep (streamed answer)
  bool energy = false;  ///< a solve with the energy objective
  std::vector<std::string> expected;
};

struct Workload {
  Mix mix = Mix::WireSmall;
  std::vector<PoolEntry> pool;
  /// Pool indices in send order; the load generator walks it cyclically.
  std::vector<std::uint32_t> order;
};

/// Draws the workload for `seed` and solves every pool entry in-process
/// on `threads` threads. Deterministic in (mix, seed).
[[nodiscard]] Workload make_workload(Mix mix, std::uint64_t seed,
                                     std::size_t threads);

/// True when `response` is exactly the entry's expected lines, `wall_s`
/// aside.
[[nodiscard]] bool matches(const std::vector<std::string>& response,
                           const PoolEntry& entry);

/// A response line with its `"wall_s":"..."` field cut out — the only
/// field whose bytes legitimately differ between two runs of one solve.
[[nodiscard]] std::string strip_wall(std::string_view line);

}  // namespace fleetbench
