// perfbench: the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Runs one workload (see workloads.hpp) through the library's public entry
// points, repeating the workload's operations until --seconds have been
// measured, checks every operation's output, and prints as its last stdout
// line one JSON object {"correct", "attempted", "failed", "metrics"}:
//
//   --trace 0  end-to-end metrics, from untraced repetitions only;
//   --trace 1  per-layer metrics: untraced and traced repetitions alternate,
//              the traced ones run with a LayerTracer (tracer.hpp) attached
//              and feed the attribution; their ratio gives trace.overhead.
//
// One repetition runs every operation of the workload once. The first
// repetition warms caches and pools and is checked but not timed.
//
// Host times are taken per operation as the fastest of its repetitions and
// summed over the operations. Operations are short (tens of milliseconds),
// so each repeats often within a run; they rotate over every CPU the
// process may use, since contention on a shared host differs per CPU. The
// end-to-end times are then scaled to a reference clock speed
// (calibrate.hpp): the host's effective clock rate drifts over minutes,
// longer than a run. Not so on lass-200k, whose time follows memory
// latency rather than the clock. The per-operation lines print the raw
// fastest and median times.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "check/explore.hpp"
#include "check/fanout.hpp"
#include "check/monitor.hpp"
#include "metrics/memory.hpp"
#include "net/message_pool.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace.hpp"
#include "substrate.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mra::algo::Algorithm;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;  ///< traced run: write the spans here
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    std::size_t used = v.size();
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v, &used);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v, &used);
      if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != v.size()) {
      throw std::invalid_argument("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t messages_created() {
  return mra::net::message_pool_stats().allocations;
}

/// FNV-1a over 64-bit words: the digest of one operation's simulated output.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
};

void digest_result(Digest& d, const mra::experiment::ExperimentResult& r) {
  d.add(r.requests_completed);
  d.add(r.messages);
  d.add(r.bytes);
  d.add_double(r.waiting_mean_ms);
}

/// Host-time samples of one operation over the timed repetitions.
struct OpSamples {
  std::string label;
  std::vector<double> run;       ///< untraced, measured part
  std::vector<double> setup;     ///< untraced, set-up part
  std::vector<double> sim;       ///< untraced, simulation only (no export)
  std::vector<double> traced;    ///< traced, measured part
  std::vector<double> substrate; ///< traced: null-protocol reference
  std::vector<double> exported, encode, decode;
  std::uint64_t messages = 0;    ///< messages created by one run
  std::uint64_t bytes = 0;       ///< encoded trace or exported trace bytes
  std::uint64_t digest = 0;      ///< simulated output, must repeat
  std::uint64_t tracer_key = 0;  ///< tracer counts, must repeat
};

/// Deterministic per-repetition counts, from the first traced repetition.
struct Counts {
  std::uint64_t events = 0, queue_capacity = 0, sends = 0, cs_completed = 0;
  std::uint64_t window_messages = 0;
  std::uint64_t check_events = 0, violations = 0, spans = 0;
  std::uint64_t schedules = 0, choice_points = 0, pruned = 0;
};

enum class RepKind { kWarmup, kPlain, kTraced };

using MetricList =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

class Bench {
 public:
  Bench(Workload workload, const Args& args)
      : w_(std::move(workload)), args_(args) {
    for (const ScenarioJob& j : w_.jobs) {
      max_sites_ = std::max(max_sites_, j.spec.system.num_sites);
    }
    for (const ScenarioJob& j : w_.recordings) {
      max_sites_ = std::max(max_sites_, j.spec.system.num_sites);
    }
  }

  int run();

 private:
  void run_rep(RepKind kind);
  void run_scenario_job(const ScenarioJob& job);
  void run_verify();
  template <typename Body>
  void run_exploration(const std::string& label, Body&& body);

  /// The samples of the operation about to run (op_), created on first use.
  OpSamples& op(const std::string& label);
  /// Records one operation's outcome; `digest` must repeat across reps.
  void finish_op(bool ok, std::uint64_t digest, std::string why);
  std::vector<SendRecord>* schedule_for_op();
  /// Compares the tracer's counts for the job just run with the program's
  /// own counters; returns the disagreements, or "".
  std::string check_tracer_job(const mra::experiment::ExperimentResult& r,
                               std::uint64_t created);
  /// Runs the null-protocol reference on the schedule just recorded;
  /// returns why it failed, or "".
  std::string run_substrate(int sites, mra::sim::SimDuration latency,
                            std::uint64_t seed);

  [[nodiscard]] double sum_fastest(
      std::vector<double> OpSamples::*field) const;
  void print_ops() const;
  void print_end_to_end() const;
  void print_per_layer() const;
  void print_result(const MetricList& metrics) const;

  Workload w_;
  Args args_;
  int max_sites_ = 0;
  std::uint64_t rss_start_kb_ = 0;
  std::uint64_t peak_after_warmup_kb_ = 0;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<OpSamples> ops_;
  std::size_t op_ = 0;  ///< operation index within the current rep
  RepKind kind_ = RepKind::kWarmup;
  bool counting_ = false;  ///< first traced rep: fill counts_
  std::size_t traced_reps_ = 0;
  std::size_t plain_reps_ = 0;
  std::vector<int> cpus_;   ///< CPUs the process may run on
  /// Untraced reps: one calibration pass before each operation.
  std::vector<double> calibration_;

  std::unique_ptr<LayerTracer> tracer_;  ///< attached in traced reps only
  Counts counts_;
  std::vector<SendRecord> schedule_;
  double traced_dpor_s_ = 0.0;    ///< exploration inside traced reps: check
  double traced_export_s_ = 0.0;  ///< export inside traced reps: obs
};

OpSamples& Bench::op(const std::string& label) {
  if (cpus_.size() > 1) {
    // Each operation visits every CPU the process may use, one per rep.
    cpu_set_t set;
    CPU_ZERO(&set);
    const std::size_t rep =
        kind_ == RepKind::kTraced ? traced_reps_ : plain_reps_;
    CPU_SET(cpus_[(rep + op_) % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof set, &set);
  }
  if (kind_ == RepKind::kPlain && w_.clock_bound) {
    calibration_.push_back(calibration_seconds());
  }
  if (op_ == ops_.size()) {
    ops_.emplace_back();
    ops_.back().label = label;
  }
  return ops_[op_];
}

void Bench::finish_op(bool ok, std::uint64_t digest, std::string why) {
  OpSamples& s = ops_[op_];
  ++attempted_;
  if (kind_ == RepKind::kWarmup) {
    s.digest = digest;
    std::printf("digest %-36s %016" PRIx64 "\n", s.label.c_str(), digest);
  } else if (ok && s.digest != digest) {
    ok = false;
    why = "digest of the simulated statistics changed between repetitions";
  }
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", s.label.c_str(), why.c_str());
  }
  ++op_;
}

std::vector<SendRecord>* Bench::schedule_for_op() {
  if (kind_ != RepKind::kTraced) return nullptr;
  schedule_.clear();
  // Exact: the warm-up rep counted this operation's messages.
  schedule_.reserve(ops_[op_].messages);
  return &schedule_;
}

std::string Bench::check_tracer_job(const mra::experiment::ExperimentResult& r,
                                    std::uint64_t created) {
  const LayerTracer& t = *tracer_;
  const JobCounts& j = t.job();
  std::string why;
  std::uint64_t kinds_total = 0;
  for (const auto& [kind, count] : r.messages_by_kind) {
    const int slot = t.find_kind(kind);
    const std::uint64_t seen =
        slot < 0 ? 0
                 : j.sends_after_cut[static_cast<std::size_t>(slot) - kFirstKind];
    kinds_total += seen;
    if (seen != count) {
      why += " sends(" + kind + ") tracer=" + std::to_string(seen) +
             " network=" + std::to_string(count) + ";";
    }
  }
  std::uint64_t after_cut = 0;
  for (std::uint64_t c : j.sends_after_cut) after_cut += c;
  if (after_cut != kinds_total) why += " tracer saw kinds the network did not;";
  if (j.bytes_after_cut != r.bytes) why += " bytes after the cut differ;";
  if (j.releases_after_cut != r.requests_completed) {
    why += " CS in window tracer=" + std::to_string(j.releases_after_cut) +
           " collector=" + std::to_string(r.requests_completed) + ";";
  }
  if (j.sends != created) {
    why += " sends tracer=" + std::to_string(j.sends) +
           " messages created=" + std::to_string(created) + ";";
  }
  if (t.kinds_overflowed()) why += " too many message kinds;";
  if (t.schedule_overflowed()) why += " send schedule overflowed;";

  Digest d;
  for (std::uint64_t v : {j.sends, j.requests, j.releases, j.deliveries,
                          j.events_seen, j.queue_capacity}) {
    d.add(v);
  }
  OpSamples& s = ops_[op_];
  if (s.tracer_key == 0) {
    s.tracer_key = d.h;
  } else if (s.tracer_key != d.h) {
    why += " tracer counts changed between traced repetitions;";
  }
  return why.empty() ? why : " tracer disagrees with the program:" + why;
}

std::string Bench::run_substrate(int sites, mra::sim::SimDuration latency,
                                 std::uint64_t seed) {
  const SubstrateResult r = run_null_substrate(schedule_, sites, latency, seed);
  ops_[op_].substrate.push_back(r.seconds);
  if (r.delivered == schedule_.size()) return {};
  return " null substrate delivered " + std::to_string(r.delivered) + " of " +
         std::to_string(schedule_.size()) + " messages;";
}

void Bench::run_scenario_job(const ScenarioJob& job) {
  OpSamples& s = op(job.label);
  LayerTracer* tracer = kind_ == RepKind::kTraced ? tracer_.get() : nullptr;
  std::vector<SendRecord>* schedule = schedule_for_op();
  try {
    const std::uint64_t created0 = messages_created();
    std::int64_t wired = 0;
    const std::int64_t t0 = steady_ns();
    const mra::experiment::ExperimentResult r = mra::scenario::run_scenario(
        job.spec, job.algorithm, tracer,
        [&](mra::algo::AllocationSystem& system) {
          wired = steady_ns();
          if (tracer != nullptr) {
            tracer->begin_job(&system.simulator(), job.spec.warmup, schedule);
          }
        });
    const std::int64_t t1 = steady_ns();
    const std::uint64_t created = messages_created() - created0;

    std::string why;
    if (r.requests_completed == 0) why = " no request completed;";
    if (kind_ == RepKind::kWarmup) s.messages = created;
    if (kind_ == RepKind::kPlain) {
      s.setup.push_back(seconds_between(t0, wired));
      s.run.push_back(seconds_between(wired, t1));
      s.sim.push_back(seconds_between(wired, t1));
    }
    if (tracer != nullptr) {
      tracer->end_job();
      s.traced.push_back(seconds_between(wired, t1));
      why += check_tracer_job(r, created);
      why += run_substrate(job.spec.system.num_sites,
                           job.spec.system.network_latency,
                           job.spec.system.seed);
      if (counting_) {
        counts_.events += tracer->job().events_seen;
        counts_.queue_capacity =
            std::max(counts_.queue_capacity, tracer->job().queue_capacity);
        counts_.sends += tracer->job().sends;
        counts_.cs_completed += r.requests_completed;
        counts_.window_messages += r.messages;
      }
    }
    Digest d;
    digest_result(d, r);
    finish_op(why.empty(), d.h, why);
  } catch (const std::exception& e) {
    if (tracer != nullptr) tracer->end_job();
    finish_op(false, 0, e.what());
  }
}

template <typename Body>
void Bench::run_exploration(const std::string& label, Body&& body) {
  OpSamples& s = op(label);
  try {
    const std::uint64_t created0 = messages_created();
    const std::int64_t t0 = steady_ns();
    const mra::check::ExploreReport r = body();
    const double seconds = seconds_between(t0, steady_ns());
    if (kind_ == RepKind::kWarmup) s.messages = messages_created() - created0;
    if (kind_ == RepKind::kPlain) s.run.push_back(seconds);
    if (kind_ == RepKind::kTraced) {
      s.traced.push_back(seconds);
      traced_dpor_s_ += seconds;
    }
    if (counting_) {
      counts_.schedules += r.schedules_executed;
      counts_.choice_points += r.choice_points;
      counts_.pruned += r.orderings_pruned;
      counts_.violations += r.violating_runs;
    }
    // Coverage counts are golden: they are part of the digest.
    Digest d;
    for (std::uint64_t v :
         {r.schedules_executed, r.choice_points, r.orderings_pruned,
          static_cast<std::uint64_t>(r.exhaustive_complete),
          static_cast<std::uint64_t>(r.exhaustive_truncated)}) {
      d.add(v);
    }
    finish_op(r.found.empty() && r.schedules_executed > 0, d.h,
              "exploration found a violation or ran no schedule");
  } catch (const std::exception& e) {
    finish_op(false, 0, e.what());
  }
}

void Bench::run_verify() {
  // Set-up: record each run, encode it, decode it back.
  std::vector<mra::scenario::RequestTrace> traces;
  for (const ScenarioJob& job : w_.recordings) {
    OpSamples& s = op("record:" + job.label);
    try {
      const std::int64_t t0 = steady_ns();
      const mra::scenario::RequestTrace original =
          mra::scenario::record_scenario(job.spec, job.algorithm);
      const std::int64_t t1 = steady_ns();
      std::ostringstream os;
      mra::scenario::write_trace(os, original);
      const std::string encoded = os.str();
      const std::int64_t t2 = steady_ns();
      std::istringstream is(encoded);
      mra::scenario::RequestTrace decoded = mra::scenario::read_trace(is);
      const std::int64_t t3 = steady_ns();
      if (kind_ == RepKind::kPlain) {
        s.setup.push_back(seconds_between(t0, t3));
        s.encode.push_back(seconds_between(t1, t2));
        s.decode.push_back(seconds_between(t2, t3));
      }
      s.bytes = encoded.size();
      const bool same = decoded.events == original.events &&
                        decoded.num_sites == original.num_sites &&
                        decoded.num_resources == original.num_resources &&
                        decoded.seed == original.seed &&
                        decoded.algorithm == original.algorithm &&
                        decoded.network_latency == original.network_latency;
      Digest d;
      d.add(original.events.size());
      d.add(std::hash<std::string>{}(encoded));
      finish_op(same && !original.events.empty(), d.h,
                "decoded trace differs from the recorded one");
      traces.push_back(std::move(decoded));
    } catch (const std::exception& e) {
      finish_op(false, 0, e.what());
      traces.emplace_back();
    }
  }

  // Measured: replay under Monitor + FlightRecorder, then export.
  LayerTracer* tracer = kind_ == RepKind::kTraced ? tracer_.get() : nullptr;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const ScenarioJob& job = w_.recordings[i];
    const mra::scenario::RequestTrace& trace = traces[i];
    OpSamples& s = op("replay:" + job.label);
    if (trace.events.empty()) {
      finish_op(false, 0, "no trace to replay");
      continue;
    }
    std::vector<SendRecord>* schedule = schedule_for_op();
    try {
      mra::check::MonitorConfig mc;
      mc.num_sites = trace.num_sites;
      mc.num_resources = trace.num_resources;
      mra::check::Monitor monitor(mc);
      mra::obs::FlightRecorder recorder;
      mra::check::ObserverMux mux;
      mux.add(monitor);
      mux.add(recorder);
      mra::scenario::ReplayOptions opts;
      opts.seed = job.spec.system.seed;
      if (tracer != nullptr) {
        // The tracer stands in for the mux and times both observers.
        tracer->set_forward(&monitor, &recorder);
        tracer->begin_job(nullptr, -1, schedule);
        opts.observer = tracer;
      } else {
        opts.observer = &mux;
      }
      const std::uint64_t created0 = messages_created();
      const std::int64_t t0 = steady_ns();
      const mra::scenario::ReplayResult r =
          mra::scenario::replay_trace(trace, job.algorithm, opts);
      monitor.finalize(r.end_time, /*quiescent=*/true);
      const std::int64_t t1 = steady_ns();
      std::ostringstream os;
      mra::obs::write_chrome_trace(recorder, os);
      const std::string exported = os.str();
      const std::int64_t t2 = steady_ns();
      const std::uint64_t created = messages_created() - created0;

      std::string why;
      if (!r.safety_ok) why += " safety violated;";
      if (!r.completed_all) why += " not every request completed;";
      if (!monitor.ok()) {
        why += " monitor: " + monitor.violations().front().oracle + ": " +
               monitor.violations().front().detail + ";";
      }
      if (kind_ == RepKind::kWarmup) s.messages = created;
      s.bytes = exported.size();
      if (kind_ == RepKind::kPlain) {
        s.run.push_back(seconds_between(t0, t2));
        s.sim.push_back(seconds_between(t0, t1));
        s.exported.push_back(seconds_between(t1, t2));
      }
      if (tracer != nullptr) {
        tracer->end_job();
        tracer->set_forward(nullptr, nullptr);
        s.traced.push_back(seconds_between(t0, t2));
        traced_export_s_ += seconds_between(t1, t2);
        why += check_tracer_job(r.metrics, created);
        why += run_substrate(trace.num_sites, trace.network_latency, opts.seed);
        if (counting_) {
          const JobCounts& j = tracer->job();
          // replay_trace offers no simulator handle: its events are the
          // trace's arrivals, the CS ends and the deliveries (the replayed
          // protocols schedule no timers of their own).
          counts_.events += trace.events.size() + j.releases + j.deliveries;
          counts_.sends += j.sends;
          counts_.cs_completed += r.metrics.requests_completed;
          counts_.window_messages += r.metrics.messages;
          counts_.check_events += monitor.events_seen();
          counts_.violations += monitor.violations().size();
          counts_.spans += recorder.spans().size();
        }
      }
      Digest d;
      digest_result(d, r.metrics);
      d.add(monitor.events_seen());
      d.add(exported.size());
      d.add(std::hash<std::string>{}(exported));
      finish_op(why.empty(), d.h, why);
    } catch (const std::exception& e) {
      if (tracer != nullptr) {
        tracer->end_job();
        tracer->set_forward(nullptr, nullptr);
      }
      finish_op(false, 0, e.what());
    }
  }

  for (const DporJob& job : w_.dpor) {
    run_exploration("dpor:" + job.label, [&job] {
      mra::check::DporConfig dpor;
      dpor.max_schedules = job.max_schedules;
      if (!job.mutex_ra) {
        return mra::check::explore_scenario_exhaustive(
            mra::check::tiny_exhaustive_spec(job.sites, job.size),
            job.algorithm, mra::check::MonitorConfig{}, dpor);
      }
      mra::check::MutexExploreConfig cfg;
      cfg.protocols = {mra::check::MutexProtocol::kRicartAgrawala};
      cfg.num_sites = job.sites;
      cfg.requests_per_site = job.size;
      return mra::check::explore_mutex_exhaustive(cfg, dpor);
    });
  }
}

void Bench::run_rep(RepKind kind) {
  kind_ = kind;
  op_ = 0;
  if (kind == RepKind::kTraced) {
    counting_ = traced_reps_ == 0;
    tracer_->set_record_spans(counting_ && !args_.spans.empty());
  }
  for (const ScenarioJob& job : w_.jobs) run_scenario_job(job);
  if (!w_.recordings.empty() || !w_.dpor.empty()) run_verify();
  if (kind == RepKind::kPlain) ++plain_reps_;
  if (kind == RepKind::kTraced) {
    ++traced_reps_;
    counting_ = false;
    tracer_->set_record_spans(false);
  }
}

double Bench::sum_fastest(std::vector<double> OpSamples::*field) const {
  double sum = 0.0;
  for (const OpSamples& s : ops_) sum += fastest(s.*field);
  return sum;
}

void Bench::print_ops() const {
  for (const OpSamples& s : ops_) {
    const auto line = [&](const char* what, const std::vector<double>& v) {
      if (v.empty()) return;
      std::printf("op %-34s %-9s fastest %10.6f s  median %10.6f s  n=%zu"
                  "  messages %" PRIu64 "\n",
                  s.label.c_str(), what, fastest(v), median(v), v.size(),
                  s.messages);
    };
    line("run", s.run);
    line("setup", s.setup);
    line("traced", s.traced);
    line("substrate", s.substrate);
  }
}

void Bench::print_result(const MetricList& metrics) const {
  std::printf("error_rate %.6g (%" PRIu64 " failed of %" PRIu64
              " operations)\n",
              ratio(static_cast<double>(failed_),
                    static_cast<double>(attempted_)),
              failed_, attempted_);
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    std::printf("%-28s %18.6g %s\n", name.c_str(), value.first, value.second);
    std::snprintf(buf, sizeof buf, "%.17g", value.first);
    json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + value.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void Bench::print_end_to_end() const {
  // Host seconds at the reference clock speed (calibrate.hpp).
  const double scale =
      w_.clock_bound
          ? ratio(kReferenceCalibrationSeconds, fastest(calibration_))
          : 1.0;
  const double wall = sum_fastest(&OpSamples::run);
  const double setup = sum_fastest(&OpSamples::setup);
  std::uint64_t messages = 0;
  for (const OpSamples& s : ops_) messages += s.messages;
  std::printf("host wall_s %.6f s, setup_s %.6f s; calibration fastest "
              "%.6f s median %.6f s (n=%zu), scale %.4f\n",
              wall, setup, fastest(calibration_), median(calibration_),
              calibration_.size(), scale);
  print_result({
      {"wall_s", {wall * scale, "s"}},
      {"setup_s", {setup * scale, "s"}},
      {"msgs_per_s",
       {ratio(static_cast<double>(messages), wall * scale), "1/s"}},
      {"peak_rss_mb",
       {static_cast<double>(mra::metrics::read_vm_peak_kb()) / 1024.0, "MB"}},
  });
}

/// Message kinds named in BENCHMARK.json; kinds a workload does not send
/// report 0.
const char* const kKinds[] = {"Lass.Req",   "Lass.Token",  "Lass.Counter",
                              "Maddi.Req",  "Maddi.Token", "NT.Request",
                              "NT.Token",   "BL.Inquire",  "BL.ResToken"};

void Bench::print_per_layer() const {
  const LayerTracer& t = *tracer_;
  const auto& tot = t.totals();
  const double reps = static_cast<double>(traced_reps_);
  const auto ns = [&](std::size_t slot) {
    return static_cast<double>(tot[slot].ns);
  };
  const auto per = [&](std::size_t slot) {
    return ratio(ns(slot), static_cast<double>(tot[slot].count));
  };
  double algo_ns = ns(kRequest) + ns(kRelease);
  for (std::size_t k = 0; k < t.kind_count(); ++k) algo_ns += ns(kFirstKind + k);
  // Attributed time: hook-covered intervals, plus whole explorations
  // (check) and exports (obs), which run outside any hook.
  const double covered = static_cast<double>(t.covered_ns());
  const double dpor = traced_dpor_s_ * 1e9;
  const double exports = traced_export_s_ * 1e9;
  const double attributed = covered + dpor + exports;

  double trace_bytes = 0, encode = 0, decode = 0, export_bytes = 0;
  double substrate = 0, substrate_sim = 0, traced = 0, plain = 0;
  for (const OpSamples& s : ops_) {
    if (!s.encode.empty()) {
      trace_bytes += static_cast<double>(s.bytes);
      encode += fastest(s.encode);
      decode += fastest(s.decode);
    }
    if (!s.exported.empty()) export_bytes += static_cast<double>(s.bytes);
    // Operations the tracer attaches to are those with a substrate run.
    if (!s.substrate.empty()) {
      substrate += fastest(s.substrate);
      substrate_sim += fastest(s.sim);
      traced += fastest(s.traced);
      plain += fastest(s.run);
    }
  }

  MetricList m;
  const auto put = [&](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), {v, unit}});
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  put("sim.events", count(counts_.events), "count");
  put("sim.instants", count(t.instants()) / reps, "count");
  put("sim.queue_capacity", count(counts_.queue_capacity), "count");
  put("sim.ns_per_event", ratio(ns(kSim), count(counts_.events) * reps), "ns");
  put("sim.share", ratio(ns(kSim), attributed), "ratio");
  put("net.messages", count(counts_.sends), "count");
  put("net.bytes", count(t.bytes_sent()) / reps, "bytes");
  put("net.in_flight_peak", count(t.in_flight_peak()), "count");
  put("net.ns_per_send", per(kNet), "ns");
  put("net.share", ratio(ns(kNet), attributed), "ratio");
  put("algo.msgs_per_cs",
      ratio(count(counts_.window_messages), count(counts_.cs_completed)),
      "count");
  put("algo.request_ns", per(kRequest), "ns");
  put("algo.release_ns", per(kRelease), "ns");
  put("algo.share", ratio(algo_ns, attributed), "ratio");
  for (const char* kind : kKinds) {
    const int slot = t.find_kind(kind);
    const std::string base = std::string("algo.") + kind;
    put(base + ".count", slot < 0 ? 0.0 : count(tot[slot].count) / reps,
        "count");
    put(base + ".ns_per_msg", slot < 0 ? 0.0 : per(slot), "ns");
  }
  put("driver.cs_completed", count(counts_.cs_completed), "count");
  put("driver.ns_per_cs", per(kDriver), "ns");
  put("driver.share", ratio(ns(kDriver), attributed), "ratio");
  put("check.events", count(counts_.check_events), "count");
  put("check.ns_per_event", per(kCheck), "ns");
  put("check.violations", count(counts_.violations), "count");
  put("check.schedules", count(counts_.schedules), "count");
  put("check.choice_points", count(counts_.choice_points), "count");
  put("check.pruned", count(counts_.pruned), "count");
  put("check.share", ratio(ns(kCheck) + dpor, attributed), "ratio");
  put("obs.ns_per_event", per(kObs), "ns");
  put("obs.spans", count(counts_.spans), "count");
  put("obs.export_s", sum_fastest(&OpSamples::exported), "s");
  put("obs.export_mb", export_bytes / 1e6, "MB");
  put("obs.share", ratio(ns(kObs) + exports, attributed), "ratio");
  put("codec.trace_mb", trace_bytes / 1e6, "MB");
  put("codec.encode_mb_per_s", ratio(trace_bytes / 1e6, encode), "MB/s");
  put("codec.decode_mb_per_s", ratio(trace_bytes / 1e6, decode), "MB/s");
  put("mem.bytes_per_site",
      ratio((count(peak_after_warmup_kb_) - count(rss_start_kb_)) * 1024.0,
            static_cast<double>(max_sites_)),
      "bytes/site");
  put("ref.substrate_s", substrate, "s");
  put("ref.substrate_share", ratio(substrate, substrate_sim), "ratio");
  put("ref.engine_net_share", ratio(ns(kSim) + ns(kNet), covered), "ratio");
  put("trace.overhead", ratio(traced, plain) - 1.0, "ratio");

  for (std::size_t s = 0; s < kFirstKind + t.kind_count(); ++s) {
    std::printf("layer %-20s %7.2f%% of attributed time, %" PRIu64
                " intervals\n",
                t.slot_name(s).c_str(), 100.0 * ratio(ns(s), attributed),
                tot[s].count);
  }
  std::printf("traced reps %zu; spans kept %zu, dropped %" PRIu64 "\n",
              traced_reps_, t.spans().size(), t.spans_dropped());
  print_result(m);
}

/// Spans kept from the first traced repetition (40 bytes each), and the
/// message ids whose send span a delivery can name as its parent.
constexpr std::size_t kSpanCapacity = 200'000;
constexpr std::size_t kMessageIdCapacity = 200'000;

int Bench::run() {
  rss_start_kb_ = mra::metrics::read_vm_rss_kb();
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
  if (args_.trace) {
    tracer_ = std::make_unique<LayerTracer>(
        args_.spans.empty() ? 0 : kSpanCapacity, kMessageIdCapacity);
  }
  run_rep(RepKind::kWarmup);
  peak_after_warmup_kb_ = mra::metrics::read_vm_peak_kb();

  const std::int64_t t0 = steady_ns();
  do {
    run_rep(RepKind::kPlain);
    if (tracer_) run_rep(RepKind::kTraced);
  } while (seconds_between(t0, steady_ns()) < args_.seconds);
  print_ops();

  if (!tracer_) {
    print_end_to_end();
    return 0;
  }
  if (tracer_->charged_ns() != tracer_->covered_ns()) {
    ++failed_;
    std::fprintf(stderr,
                 "FAILED tracer: layer intervals sum to %lld ns but the hooks "
                 "span %lld ns\n",
                 static_cast<long long>(tracer_->charged_ns()),
                 static_cast<long long>(tracer_->covered_ns()));
  }
  if (!args_.spans.empty()) tracer_->write_spans_json(args_.spans);
  print_per_layer();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    perfbench::Bench bench(perfbench::make_workload(args.workload, args.seed),
                           args);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
