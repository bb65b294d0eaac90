// Null-protocol reference: a recorded message schedule replayed through a
// bare sim::Simulator + net::Network whose nodes do nothing on delivery.
// Its host time is the engine + network cost of the traced run's messages
// without any protocol, driver or observer work — a second split of the
// cost, independent of the boundary tracer's attribution.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "tracer.hpp"

namespace perfbench {

struct SubstrateResult {
  double seconds = 0.0;          ///< host time of the run loop only
  std::uint64_t delivered = 0;   ///< messages the null nodes received
};

/// Sends every record of `schedule` (sorted by send time) from src to dst
/// at its recorded time, over a fixed-latency network, and runs to
/// quiescence. Sends of one instant are issued by one feeder event, so the
/// queue holds about what was in flight in the recorded run.
[[nodiscard]] SubstrateResult run_null_substrate(
    const std::vector<SendRecord>& schedule, int num_sites,
    mra::sim::SimDuration latency, std::uint64_t seed);

}  // namespace perfbench
