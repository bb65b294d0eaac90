#include "workloads.hpp"

#include <stdexcept>

#include "scenario/registry.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace {

using mra::algo::Algorithm;
using mra::scenario::ScenarioSpec;

/// splitmix64: a distinct, well-mixed simulation seed per job.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// A registry scenario with its own simulated window, sized so that one
/// job takes tens of milliseconds on the host: short jobs repeat often
/// within a run, which keeps their fastest repetition steady.
ScenarioSpec registry_spec(const char* name, mra::sim::SimDuration warmup,
                           mra::sim::SimDuration measure) {
  ScenarioSpec s = mra::scenario::find_scenario(name);
  s.warmup = warmup;
  s.measure = measure;
  return s;
}

/// Appends a job seeded from the workload seed and the job's position.
void add(Workload& w, std::vector<ScenarioJob>& into, ScenarioSpec spec,
         Algorithm algorithm, std::uint64_t seed) {
  spec.system.seed = job_seed(seed, w.jobs.size() + w.recordings.size());
  std::string label = spec.name + "/" + mra::algo::cli_name(algorithm);
  into.push_back(ScenarioJob{std::move(label), std::move(spec), algorithm});
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"lass-maddi-paper", "baselines-highload", "verify", "lass-200k"};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "lass-maddi-paper") {
    // The paper's §5.1 system at the two request-size extremes: many small
    // Req deliveries (phi=4) versus few whole-vector Tokens (phi=80).
    const mra::sim::SimDuration warmup = mra::sim::from_ms(1'000);
    const mra::sim::SimDuration measure = mra::sim::from_ms(4'000);
    for (const char* scenario : {"high-load-phi4", "paper-phi4", "paper-phi80"}) {
      for (Algorithm a : {Algorithm::kLassWithoutLoan, Algorithm::kLassWithLoan,
                          Algorithm::kMaddi}) {
        add(w, w.jobs, registry_spec(scenario, warmup, measure), a, seed);
      }
    }
  } else if (name == "baselines-highload") {
    // Cheap handlers, so the engine, network and driver carry the cost; no
    // LASS or Maddi code runs here.
    const mra::sim::SimDuration warmup = mra::sim::from_ms(2'000);
    const mra::sim::SimDuration measure = mra::sim::from_ms(60'000);
    for (Algorithm a : {Algorithm::kIncremental, Algorithm::kBouabdallahLaforest,
                        Algorithm::kCentralSharedMemory}) {
      add(w, w.jobs, registry_spec("high-load-phi4", warmup, measure), a, seed);
    }
    add(w, w.jobs, registry_spec("open-loop", warmup, measure),
        Algorithm::kIncremental, seed);
  } else if (name == "verify") {
    const mra::sim::SimDuration warmup = mra::sim::from_ms(1'000);
    const mra::sim::SimDuration measure = mra::sim::from_ms(3'000);
    add(w, w.recordings, registry_spec("paper-phi4", warmup, measure),
        Algorithm::kLassWithLoan, seed);
    add(w, w.recordings, registry_spec("high-load-phi4", warmup, measure),
        Algorithm::kIncremental, seed);
    // Complete explorations of tens to hundreds of schedules each, so that
    // a smaller schedule space shows as fewer schedules and less time. The
    // Ricart-Agrawala 4x2 space is clipped by the branch cap anyway; its
    // schedule cap keeps the operation short.
    w.dpor = {
        {.label = "lass-loan-6x2", .algorithm = Algorithm::kLassWithLoan,
         .sites = 6, .size = 2},
        {.label = "lass-6x3", .algorithm = Algorithm::kLassWithoutLoan,
         .sites = 6, .size = 3},
        {.label = "lass-7x3", .algorithm = Algorithm::kLassWithoutLoan,
         .sites = 7, .size = 3},
        {.label = "ra-4x2", .mutex_ra = true, .sites = 4, .size = 2,
         .max_schedules = 2'000},
    };
  } else if (name == "lass-200k") {
    // The only workload above the network's dense FIFO-watermark limit
    // (2048 sites). Per-site load is scaled so the aggregate offered load
    // stays the paper's N=32 high-load point, as in bench/scalability_n.
    // One run's message count varies with the seed, so the workload sums
    // three independently seeded systems.
    constexpr int kSites = 200'000;
    w.clock_bound = false;
    for (int i = 1; i <= 3; ++i) {
      ScenarioSpec s;
      s.name = "lass-200k." + std::to_string(i);
      s.system.num_sites = kSites;
      s.system.num_resources = 80;
      s.system.network_latency = mra::sim::from_ms(0.6);
      s.workload = mra::workload::high_load(/*phi=*/4, /*num_resources=*/80);
      s.workload.rho *= static_cast<double>(kSites) / 32.0;
      s.warmup = mra::sim::from_ms(200);
      s.measure = mra::sim::from_ms(800);
      s.validate();
      add(w, w.jobs, std::move(s), Algorithm::kLassWithLoan, seed);
    }
  } else {
    std::string valid;
    for (const std::string& n : workload_names()) valid += " " + n;
    throw std::invalid_argument("unknown workload \"" + name +
                                "\"; valid:" + valid);
  }
  return w;
}

}  // namespace perfbench
