#include "util/retry.hpp"

namespace pipeopt::util {
namespace {

/// splitmix64 — the same tiny deterministic mixer the fault shim uses;
/// good enough to decorrelate jitter across attempts without pulling in
/// <random> state that would make replays depend on call order.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Retryability classify_error_code(const std::string& code) {
  if (code == "overloaded" || code == "unavailable") {
    return Retryability::Always;  // typed shed: never reached an executor
  }
  if (code == "shard-lost") {
    return Retryability::IfIdempotent;  // shard died mid-flight; may have run
  }
  // "", "expired", "path-refused", parse errors, unknown future codes:
  // permanent.
  return Retryability::No;
}

std::uint64_t RetryPolicy::delay_ms(std::size_t attempt) const {
  if (backoff_ms == 0) return 0;
  std::uint64_t base = backoff_ms;
  for (std::size_t k = 0; k < attempt && base < max_backoff_ms; ++k) {
    base *= 2;
  }
  if (base > max_backoff_ms) base = max_backoff_ms;
  // Deterministic jitter in [base/2, base]: full jitter would allow 0ms
  // (no spacing at all); half jitter keeps spacing while decorrelating
  // retry storms from many clients with distinct seeds.
  const std::uint64_t half = base / 2;
  const std::uint64_t span = base - half + 1;
  return half + mix64(seed ^ (0xA5A5ULL + attempt)) % span;
}

}  // namespace pipeopt::util
