#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace perfbench {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerTracer::LayerTracer(std::size_t span_capacity,
                         std::size_t message_id_capacity, ClockFn clock)
    : clock_(clock), send_span_(message_id_capacity, -1) {
  spans_.reserve(span_capacity);
}

void LayerTracer::begin_job(const mra::sim::Simulator* simulator,
                            mra::sim::SimTime cut,
                            std::vector<SendRecord>* schedule) {
  sim_ = simulator;
  cut_ = cut;
  schedule_ = schedule;
  job_ = JobCounts{};
  in_flight_ = 0;
  open_ = false;
}

void LayerTracer::end_job() {
  if (open_) covered_ns_ += job_.last_hook_ns - job_.first_hook_ns;
  open_ = false;
  sim_ = nullptr;
  schedule_ = nullptr;
}

std::int64_t LayerTracer::charged_ns() const {
  std::int64_t sum = 0;
  for (const SlotTotals& t : totals_) sum += t.ns;
  return sum;
}

void LayerTracer::push_span(std::int64_t start, std::int64_t end,
                            std::int64_t id, std::int32_t parent,
                            std::uint16_t slot) {
  if (!record_spans_) return;
  if (spans_.size() == spans_.capacity()) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(Span{start, end, id, parent, slot});
}

void LayerTracer::close_interval(std::int64_t now) {
  if (open_) {
    totals_[cur_slot_].ns += now - last_;
    push_span(last_, now, cur_id_, cur_parent_, cur_slot_);
  } else {
    job_.first_hook_ns = now;
  }
}

void LayerTracer::open(std::uint16_t slot, std::int64_t id,
                       std::int32_t parent) {
  open_ = true;
  cur_slot_ = slot;
  cur_id_ = id;
  cur_parent_ = parent;
  job_.last_hook_ns = last_;
  ++totals_[slot].count;
  if (slot == kNet && id >= 0 &&
      static_cast<std::size_t>(id) < send_span_.size()) {
    // This interval's span is the next one pushed (forwards already ran).
    const bool room = record_spans_ && spans_.size() < spans_.capacity();
    send_span_[static_cast<std::size_t>(id)] =
        room ? static_cast<std::int32_t>(spans_.size()) : -1;
  }
}

template <typename Call>
std::int64_t LayerTracer::forward(std::int64_t now, std::int64_t id,
                                  Call&& call) {
  if (check_ != nullptr) {
    call(check_);
    const std::int64_t t = clock_();
    totals_[kCheck].ns += t - now;
    ++totals_[kCheck].count;
    push_span(now, t, id, -1, kCheck);
    now = t;
  }
  if (obs_ != nullptr) {
    call(obs_);
    const std::int64_t t = clock_();
    totals_[kObs].ns += t - now;
    ++totals_[kObs].count;
    push_span(now, t, id, -1, kObs);
    now = t;
  }
  return now;
}

std::uint16_t LayerTracer::kind_slot(std::string_view kind) {
  for (std::size_t i = 0; i < kind_count_; ++i) {
    if (kind_lens_[i] == kind.size() &&
        std::memcmp(kind_names_[i].data(), kind.data(), kind.size()) == 0) {
      return static_cast<std::uint16_t>(kFirstKind + i);
    }
  }
  if (kind_count_ == kMaxKinds) {
    kinds_overflowed_ = true;
    return static_cast<std::uint16_t>(kFirstKind + kMaxKinds - 1);
  }
  const std::size_t len = std::min(kind.size(), kind_names_[0].size() - 1);
  std::memcpy(kind_names_[kind_count_].data(), kind.data(), len);
  kind_lens_[kind_count_] = static_cast<std::uint8_t>(len);
  return static_cast<std::uint16_t>(kFirstKind + kind_count_++);
}

void LayerTracer::on_advance(mra::sim::SimTime now_sim) {
  std::int64_t now = clock_();
  close_interval(now);
  ++instants_;
  if (sim_ != nullptr) {
    job_.events_seen = sim_->events_processed();
    job_.queue_capacity = sim_->queue_capacity();
  }
  now = forward(now, now_sim,
                [now_sim](mra::check::Observer* o) { o->on_advance(now_sim); });
  last_ = now;
  open(kSim, now_sim, -1);
}

void LayerTracer::on_event(const mra::check::Event& ev) {
  using mra::check::EventType;
  std::int64_t now = clock_();
  close_interval(now);

  std::uint16_t slot = cur_slot_;
  std::int64_t id = ev.seq;
  std::int32_t parent = -1;
  switch (ev.type) {
    case EventType::kSend: {
      slot = kNet;
      const std::uint16_t k = kind_slot(ev.kind);
      ++job_.sends;
      bytes_sent_ += ev.bytes;
      if (ev.at > cut_) {
        ++job_.sends_after_cut[k - kFirstKind];
        job_.bytes_after_cut += ev.bytes;
      }
      in_flight_peak_ = std::max(in_flight_peak_, ++in_flight_);
      if (schedule_ != nullptr) {
        if (schedule_->size() < schedule_->capacity()) {
          schedule_->push_back(SendRecord{ev.at, ev.site, ev.peer, ev.bytes});
        } else {
          schedule_overflowed_ = true;
        }
      }
      break;
    }
    case EventType::kDeliver:
      slot = kind_slot(ev.kind);
      if (ev.seq >= 0 && static_cast<std::size_t>(ev.seq) < send_span_.size()) {
        parent = send_span_[static_cast<std::size_t>(ev.seq)];
      }
      ++job_.deliveries;
      if (in_flight_ > 0) --in_flight_;
      break;
    case EventType::kRequest:
      slot = kRequest;
      id = (static_cast<std::int64_t>(ev.site) << 32) | ev.seq;
      ++job_.requests;
      break;
    case EventType::kRelease:
      slot = kRelease;
      id = (static_cast<std::int64_t>(ev.site) << 32) | ev.seq;
      ++job_.releases;
      if (ev.at > cut_) ++job_.releases_after_cut;
      break;
    case EventType::kAcquire:
      slot = kDriver;
      id = (static_cast<std::int64_t>(ev.site) << 32) | ev.seq;
      break;
    case EventType::kHold:
      // Emitted from inside a handler: the handler's interval continues.
      id = cur_id_;
      parent = cur_parent_;
      break;
  }
  now = forward(now, id, [&ev](mra::check::Observer* o) { o->on_event(ev); });
  last_ = now;
  if (ev.type == EventType::kHold) {
    // Continuation, not a new interval: do not count it as one.
    open_ = true;
    job_.last_hook_ns = last_;
    return;
  }
  open(slot, id, parent);
}

int LayerTracer::find_kind(std::string_view kind) const {
  for (std::size_t i = 0; i < kind_count_; ++i) {
    if (kind_name(i) == kind) return static_cast<int>(kFirstKind + i);
  }
  return -1;
}

std::string LayerTracer::kind_name(std::size_t i) const {
  return std::string(kind_names_[i].data(), kind_lens_[i]);
}

std::string LayerTracer::slot_name(std::size_t slot) const {
  switch (slot) {
    case kSim: return "sim";
    case kNet: return "net";
    case kRequest: return "algo.request";
    case kRelease: return "algo.release";
    case kDriver: return "driver";
    case kCheck: return "check";
    case kObs: return "obs";
    default: break;
  }
  const std::size_t k = slot - kFirstKind;
  return k < kind_count_ ? "algo." + kind_name(k) : "algo.?";
}

void LayerTracer::write_spans_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"id\":%lld,\"parent\":%d}}",
                 i == 0 ? "" : ",", slot_name(s.slot).c_str(),
                 static_cast<unsigned>(s.slot),
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.id), s.parent);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\",\"spans_dropped\":%llu}\n",
               static_cast<unsigned long long>(spans_dropped_));
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
