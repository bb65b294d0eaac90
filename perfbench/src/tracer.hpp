// LayerTracer: the benchmark's outside-in boundary tracer.
//
// A check::Observer that reads a clock at every hook the library already
// emits and charges the interval from one hook to the next to the layer the
// first hook opens:
//
//   on_advance            -> sim         (queue pop, clock, event dispatch)
//   kSend                 -> net         (the network's scheduling of it)
//   kDeliver(kind)        -> algo.<kind> (the protocol handler)
//   kRequest / kRelease   -> algo request / release paths
//   kAcquire              -> driver      (grant callback, collector)
//
// kHold is emitted from inside a handler and leaves the open layer as is.
// Forwarded observers (a check::Monitor, an obs::FlightRecorder) are timed
// around their own calls and charged to `check` and `obs`.
//
// Limits of attribution from outside (hooks live only where src/ emits
// them): work done after a hook and before the next one is charged to the
// first hook's layer. So the rest of a handler after its last send lands in
// `net`, the next event's queue pop lands in whatever layer the previous
// event ended in, and driver timers (request births, CS ends) have no hook
// and land in the layer that was open before them, mostly `sim`.
//
// Hooks do not allocate: counters live in fixed arrays, span and message
// schedule buffers are reserved up front and stop recording when full.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "check/event.hpp"
#include "sim/time.hpp"

namespace mra::sim {
class Simulator;
}  // namespace mra::sim

namespace perfbench {

/// Steady-clock nanoseconds; the tracer's default clock.
std::int64_t steady_ns();

/// Accumulator slots. Message kinds take the slots from kFirstKind on, in
/// first-seen order.
enum Slot : std::uint16_t {
  kSim,
  kNet,
  kRequest,
  kRelease,
  kDriver,
  kCheck,
  kObs,
  kFirstKind,
};
inline constexpr std::size_t kMaxKinds = 24;
inline constexpr std::size_t kSlots = kFirstKind + kMaxKinds;

/// One closed hook interval (or one forwarded observer call).
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Message id (send, deliver), (site << 32 | request seq) for CS hooks,
  /// the simulated instant for sim intervals.
  std::int64_t id = 0;
  std::int32_t parent = -1;  ///< a delivery's parent is its send's span
  std::uint16_t slot = kSim;
};

/// One message handed to the network, for the null-protocol reference.
struct SendRecord {
  mra::sim::SimTime at = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::uint32_t bytes = 0;
};

struct SlotTotals {
  std::int64_t ns = 0;
  std::uint64_t count = 0;  ///< intervals opened in this slot
};

/// Counts over one job, compared against the program's own counters.
struct JobCounts {
  std::array<std::uint64_t, kMaxKinds> sends_after_cut{};
  std::uint64_t bytes_after_cut = 0;
  std::uint64_t releases_after_cut = 0;
  std::uint64_t sends = 0;
  std::uint64_t requests = 0;
  std::uint64_t releases = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t events_seen = 0;    ///< Simulator::events_processed at last advance
  std::uint64_t queue_capacity = 0; ///< Simulator::queue_capacity at last advance
  std::int64_t first_hook_ns = 0;
  std::int64_t last_hook_ns = 0;
};

class LayerTracer final : public mra::check::Observer {
 public:
  using ClockFn = std::int64_t (*)();

  /// `span_capacity` spans and `message_id_capacity` send-span links are
  /// reserved now; hooks never grow them.
  explicit LayerTracer(std::size_t span_capacity = 0,
                       std::size_t message_id_capacity = 0,
                       ClockFn clock = &steady_ns);

  /// Observers the tracer forwards every hook to, timed as `check` and
  /// `obs`. Either may be null.
  void set_forward(mra::check::Observer* check, mra::check::Observer* obs) {
    check_ = check;
    obs_ = obs;
  }

  /// Starts a job: per-job counts reset, sends at or before `cut` count as
  /// warm-up. `simulator` (may be null) is sampled at each instant.
  /// `schedule` (may be null) receives every send; reserve it beforehand.
  void begin_job(const mra::sim::Simulator* simulator, mra::sim::SimTime cut,
                 std::vector<SendRecord>* schedule);
  /// Closes the job; its last hook interval is not charged (the time after
  /// it belongs to teardown, not to a layer).
  void end_job();

  void set_record_spans(bool on) { record_spans_ = on; }

  void on_event(const mra::check::Event& event) override;
  void on_advance(mra::sim::SimTime now) override;

  [[nodiscard]] const std::array<SlotTotals, kSlots>& totals() const {
    return totals_;
  }
  [[nodiscard]] const JobCounts& job() const { return job_; }
  /// Sum over jobs of (last hook - first hook): what the slots must tile.
  [[nodiscard]] std::int64_t covered_ns() const { return covered_ns_; }
  [[nodiscard]] std::int64_t charged_ns() const;
  [[nodiscard]] std::uint64_t instants() const { return instants_; }
  [[nodiscard]] std::uint64_t in_flight_peak() const { return in_flight_peak_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t spans_dropped() const { return spans_dropped_; }

  [[nodiscard]] std::size_t kind_count() const { return kind_count_; }
  [[nodiscard]] std::string kind_name(std::size_t i) const;
  /// Slot of a kind seen so far, or -1.
  [[nodiscard]] int find_kind(std::string_view kind) const;
  /// True if more than kMaxKinds kinds were seen (the extra ones shared the
  /// last slot); the run then reports itself incorrect.
  [[nodiscard]] bool kinds_overflowed() const { return kinds_overflowed_; }
  /// True if a send schedule ran out of reserved room (it then stops).
  [[nodiscard]] bool schedule_overflowed() const { return schedule_overflowed_; }

  /// Layer name of a slot: "sim", "net", ..., "algo.<kind>".
  [[nodiscard]] std::string slot_name(std::size_t slot) const;

  /// Writes the recorded spans as Chrome trace-event JSON (one complete
  /// event per span, parent and id in args).
  void write_spans_json(const std::string& path) const;

 private:
  /// Charges [last_, now) to the open slot and records its span; the first
  /// hook of a job only marks where the job's covered time starts.
  void close_interval(std::int64_t now);
  void open(std::uint16_t slot, std::int64_t id, std::int32_t parent);
  /// Forwards to check/obs observers, charging each call; returns the clock
  /// after the last forward.
  template <typename Call>
  std::int64_t forward(std::int64_t now, std::int64_t id, Call&& call);
  std::uint16_t kind_slot(std::string_view kind);
  void push_span(std::int64_t start, std::int64_t end, std::int64_t id,
                 std::int32_t parent, std::uint16_t slot);

  ClockFn clock_;
  mra::check::Observer* check_ = nullptr;
  mra::check::Observer* obs_ = nullptr;

  std::array<SlotTotals, kSlots> totals_{};
  std::array<std::array<char, 32>, kMaxKinds> kind_names_{};
  std::array<std::uint8_t, kMaxKinds> kind_lens_{};
  std::size_t kind_count_ = 0;
  bool kinds_overflowed_ = false;

  // Open interval.
  bool open_ = false;
  std::uint16_t cur_slot_ = kSim;
  std::int64_t cur_id_ = 0;
  std::int32_t cur_parent_ = -1;
  std::int64_t last_ = 0;

  // Per job.
  const mra::sim::Simulator* sim_ = nullptr;
  mra::sim::SimTime cut_ = 0;
  std::vector<SendRecord>* schedule_ = nullptr;
  bool schedule_overflowed_ = false;
  JobCounts job_;
  std::uint64_t in_flight_ = 0;

  // Whole run.
  std::int64_t covered_ns_ = 0;
  std::uint64_t instants_ = 0;
  std::uint64_t in_flight_peak_ = 0;
  std::uint64_t bytes_sent_ = 0;

  // Spans.
  bool record_spans_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> send_span_;  ///< message id -> span index
  std::uint64_t spans_dropped_ = 0;
};

}  // namespace perfbench
