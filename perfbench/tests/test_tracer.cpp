// Tests of the benchmark's boundary tracer: its attribution rule on a
// scripted hook sequence, and its counts against the program's own counters
// on real runs.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "check/event.hpp"
#include "net/message_pool.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

using mra::check::Event;
using mra::check::EventType;

/// A clock that advances 10 ns per reading, so every interval is known.
std::int64_t g_fake_now = 0;
std::int64_t fake_clock() { return g_fake_now += 10; }

Event make(EventType type, std::int64_t seq, std::string_view kind = {}) {
  Event e;
  e.type = type;
  e.seq = seq;
  e.kind = kind;
  e.site = 1;
  e.peer = 2;
  e.bytes = 40;
  return e;
}

TEST(LayerTracer, ChargesEachIntervalToTheLayerItsFirstHookOpens) {
  g_fake_now = 0;
  LayerTracer t(/*span_capacity=*/16, /*message_id_capacity=*/16, &fake_clock);
  t.set_record_spans(true);
  t.begin_job(nullptr, -1, nullptr);
  t.on_advance(5);                              // 10: opens sim
  t.on_event(make(EventType::kSend, 1, "A"));   // 20: sim += 10, opens net
  t.on_event(make(EventType::kDeliver, 1, "A"));  // 30: net += 10, opens algo.A
  t.on_event(make(EventType::kAcquire, 1));     // 40: algo.A += 10, driver
  t.on_event(make(EventType::kHold, 1));        // 50: driver += 10, continues
  t.on_event(make(EventType::kRelease, 1));     // 60: driver += 10, release
  t.end_job();                                  // last interval uncharged

  const int a = t.find_kind("A");
  ASSERT_GE(a, 0);
  EXPECT_EQ(t.totals()[kSim].ns, 10);
  EXPECT_EQ(t.totals()[kNet].ns, 10);
  EXPECT_EQ(t.totals()[static_cast<std::size_t>(a)].ns, 10);
  EXPECT_EQ(t.totals()[kDriver].ns, 20);
  EXPECT_EQ(t.totals()[kRelease].ns, 0);
  EXPECT_EQ(t.totals()[kDriver].count, 1u) << "kHold continues, not reopens";
  EXPECT_EQ(t.covered_ns(), 50);
  EXPECT_EQ(t.charged_ns(), t.covered_ns());

  // A delivery's span names the span of its send as parent.
  ASSERT_EQ(t.spans().size(), 5u);
  EXPECT_EQ(t.spans()[1].slot, kNet);
  EXPECT_EQ(t.spans()[2].slot, static_cast<std::uint16_t>(a));
  EXPECT_EQ(t.spans()[2].parent, 1);
  EXPECT_EQ(t.slot_name(static_cast<std::size_t>(a)), "algo.A");
}

class CountingObserver final : public mra::check::Observer {
 public:
  void on_event(const Event&) override { ++calls; }
  void on_advance(mra::sim::SimTime) override { ++calls; }
  int calls = 0;
};

TEST(LayerTracer, ForwardedObserversAreChargedToCheckAndObs) {
  g_fake_now = 0;
  LayerTracer t(0, 0, &fake_clock);
  CountingObserver check;
  CountingObserver obs;
  t.set_forward(&check, &obs);
  t.begin_job(nullptr, -1, nullptr);
  t.on_advance(1);
  t.on_event(make(EventType::kRequest, 1));
  t.end_job();
  EXPECT_EQ(check.calls, 2);
  EXPECT_EQ(obs.calls, 2);
  EXPECT_EQ(t.totals()[kCheck].ns, 20);
  EXPECT_EQ(t.totals()[kObs].ns, 20);
  EXPECT_EQ(t.totals()[kSim].ns, 10);
  EXPECT_EQ(t.charged_ns(), t.covered_ns());
}

struct Case {
  const char* scenario;
  mra::algo::Algorithm algorithm;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.scenario << "/" << mra::algo::cli_name(c.algorithm);
}

class TracedRun : public ::testing::TestWithParam<Case> {};

TEST_P(TracedRun, CountsMatchTheProgramAndIntervalsTileTheRun) {
  mra::scenario::ScenarioSpec spec =
      mra::scenario::find_scenario(GetParam().scenario);
  spec.warmup = mra::sim::from_ms(500);
  spec.measure = mra::sim::from_ms(2000);

  LayerTracer t;
  const std::uint64_t created0 = mra::net::message_pool_stats().allocations;
  const mra::experiment::ExperimentResult r = mra::scenario::run_scenario(
      spec, GetParam().algorithm, &t,
      [&](mra::algo::AllocationSystem& system) {
        t.begin_job(&system.simulator(), spec.warmup, nullptr);
      });
  t.end_job();
  const std::uint64_t created =
      mra::net::message_pool_stats().allocations - created0;

  // Per-kind sends after the warm-up cut equal Network::stats_by_kind().
  ASSERT_FALSE(r.messages_by_kind.empty());
  std::uint64_t total = 0;
  for (const auto& [kind, count] : r.messages_by_kind) {
    const int slot = t.find_kind(kind);
    ASSERT_GE(slot, 0) << kind;
    EXPECT_EQ(t.job().sends_after_cut[static_cast<std::size_t>(slot) -
                                      kFirstKind],
              count)
        << kind;
    total += count;
  }
  EXPECT_EQ(total, r.messages);
  EXPECT_EQ(t.job().bytes_after_cut, r.bytes);
  EXPECT_EQ(t.job().sends, created);

  // CS completions inside the measured window equal the collector's.
  EXPECT_GT(r.requests_completed, 0u);
  EXPECT_EQ(t.job().releases_after_cut, r.requests_completed);

  // The hook intervals tile the time between the first and the last hook.
  EXPECT_GT(t.covered_ns(), 0);
  EXPECT_EQ(t.charged_ns(), t.covered_ns());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TracedRun,
    ::testing::Values(
        Case{"paper-phi4", mra::algo::Algorithm::kLassWithLoan},
        Case{"paper-phi80", mra::algo::Algorithm::kMaddi},
        Case{"high-load-phi4", mra::algo::Algorithm::kIncremental},
        Case{"high-load-phi4", mra::algo::Algorithm::kBouabdallahLaforest},
        Case{"open-loop", mra::algo::Algorithm::kIncremental}));

}  // namespace
}  // namespace perfbench
