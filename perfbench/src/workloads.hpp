// The benchmark's four workloads, generated from a seed. The program under
// test sees only the ScenarioSpecs built here; BENCHMARK.json records why
// each workload exists and which layers it should stress.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

/// One exhaustive exploration of `verify`: the tiny scenario of
/// check::tiny_exhaustive_spec under `algorithm` (sites x resources), or,
/// with `mutex_ra`, the raw Ricart-Agrawala substrate (sites x requests per
/// site). The configurations are fixed, not seeded: their coverage counts
/// are part of the digest.
struct DporJob {
  std::string label;
  bool mutex_ra = false;
  mra::algo::Algorithm algorithm = mra::algo::Algorithm::kLassWithLoan;
  int sites = 0;
  int size = 0;  ///< resources, or requests per site for the substrate
  std::uint64_t max_schedules = 20'000;
};

/// One simulation: a spec run (or recorded) under one algorithm.
struct ScenarioJob {
  std::string label;
  mra::scenario::ScenarioSpec spec;
  mra::algo::Algorithm algorithm = mra::algo::Algorithm::kLassWithLoan;
};

struct Workload {
  std::string name;
  /// Simulation jobs run through scenario::run_scenario.
  std::vector<ScenarioJob> jobs;
  /// `verify` only: runs recorded, encoded, decoded, then replayed under
  /// check::Monitor + obs::FlightRecorder and exported.
  std::vector<ScenarioJob> recordings;
  /// `verify` only: exhaustive DPOR on these configurations.
  std::vector<DporJob> dpor;
  /// Host time follows the clock rate, so the end-to-end times are scaled
  /// to the reference clock speed (calibrate.hpp). False where per-site
  /// state outgrows the caches and time follows memory latency instead.
  bool clock_bound = true;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace perfbench
