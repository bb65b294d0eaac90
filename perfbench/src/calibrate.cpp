#include "calibrate.hpp"

#include <cstdint>

#include "tracer.hpp"

namespace perfbench {

namespace {

constexpr int kChainLength = 1'000'000;

}  // namespace

double calibration_seconds() {
  // Each step depends on the previous one, so the chain runs at the
  // latency of a multiply, an add, a shift and an xor per step on any
  // core, whatever the memory system or the other guests do to caches.
  // The volatile seed keeps the compiler from evaluating it at compile time.
  static volatile std::uint64_t seed = 1;
  [[maybe_unused]] static volatile std::uint64_t sink = 0;
  std::uint64_t x = seed;
  const std::int64_t t0 = steady_ns();
  for (int i = 0; i < kChainLength; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  const std::int64_t t1 = steady_ns();
  sink = x;
  return static_cast<double>(t1 - t0) / 1e9;
}

}  // namespace perfbench
