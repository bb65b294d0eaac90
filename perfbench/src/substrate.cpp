#include "substrate.hpp"

#include <memory>
#include <string_view>

#include "net/latency.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

class NullMessage final : public mra::net::Message {
 public:
  explicit NullMessage(std::size_t wire) : wire_(wire) {}
  [[nodiscard]] std::string_view kind() const override { return "Null"; }
  [[nodiscard]] std::size_t wire_size() const override { return wire_; }

 private:
  std::size_t wire_;
};

class NullNode final : public mra::net::Node {
 public:
  explicit NullNode(std::uint64_t& delivered) : delivered_(delivered) {}
  void on_message(mra::SiteId /*from*/,
                  const mra::net::Message& /*msg*/) override {
    ++delivered_;
  }

 private:
  std::uint64_t& delivered_;
};

/// Issues every send of one instant, then re-arms itself at the next.
struct Feeder {
  const std::vector<SendRecord>* schedule = nullptr;
  mra::sim::Simulator* sim = nullptr;
  mra::net::Network* net = nullptr;
  std::size_t next = 0;

  void fire() {
    const std::vector<SendRecord>& s = *schedule;
    const mra::sim::SimTime at = s[next].at;
    for (; next < s.size() && s[next].at == at; ++next) {
      const SendRecord& r = s[next];
      const std::size_t envelope = mra::net::Network::kEnvelopeBytes;
      net->send(r.src, r.dst,
                std::make_unique<NullMessage>(
                    r.bytes > envelope ? r.bytes - envelope : 0));
    }
    if (next < s.size()) sim->schedule_at(s[next].at, [this]() { fire(); });
  }
};

}  // namespace

SubstrateResult run_null_substrate(const std::vector<SendRecord>& schedule,
                                   int num_sites,
                                   mra::sim::SimDuration latency,
                                   std::uint64_t seed) {
  SubstrateResult out;
  mra::sim::Simulator sim;
  mra::net::Network net(sim, mra::net::make_fixed_latency(latency), seed);
  std::vector<std::unique_ptr<NullNode>> nodes;
  nodes.reserve(static_cast<std::size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    nodes.push_back(std::make_unique<NullNode>(out.delivered));
    net.add_node(*nodes.back());
  }
  net.start();
  if (schedule.empty()) return out;

  Feeder feeder{&schedule, &sim, &net, 0};
  sim.schedule_at(schedule.front().at, [&feeder]() { feeder.fire(); });
  const std::int64_t t0 = steady_ns();
  sim.run();
  out.seconds = static_cast<double>(steady_ns() - t0) / 1e9;
  return out;
}

}  // namespace perfbench
