// tunnel_chaos: the SNFE pair over the crash-survivable tunnel.
//
// Each unit is one chaos run with its own sub-seed: BuildSnfePairRecoverable
// with kWireFaultPercent drop+corrupt faults on the tunnel's data and ACK
// lines, plus a seeded crash schedule on both tunnel endpoints. The network
// runs until the receiving host has as many packets as the fault-free run,
// and its stream must be byte-identical to that run's (computed once in
// set-up). No SM-11 executes: src/distributed does all the work (links,
// reliable framing, retransmission, checkpoint/restore).
#include <cstdio>
#include <string>

#include "perfbench/src/runner.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/components/snfe_receive.h"

namespace perfbench {
namespace {

constexpr int kPackets = 16;
constexpr int kWireFaultPercent = 20;
constexpr int kMaxBursts = 60;
constexpr std::size_t kBurstTicks = 2000;

std::size_t StreamWords(const std::vector<sep::Frame>& frames) {
  std::size_t words = 0;
  for (const sep::Frame& f : frames) {
    words += 1 + f.fields.size();
  }
  return words;
}

class TunnelWorkload : public Workload {
 public:
  explicit TunnelWorkload(const Tamper& tamper) : tamper_(tamper) {}

  void Setup(std::uint64_t seed, Probes*) override {
    seed_ = seed;
    sep::Network net;
    sep::SnfePairTopology topo = sep::BuildSnfePair(net, sep::CensorStrictness::kSyntax, kPackets);
    net.Run(40000);
    baseline_ = static_cast<sep::HostSink&>(net.process(topo.host_rx)).packets();
    if (baseline_.empty()) {
      std::fprintf(stderr, "tunnel_chaos: the fault-free run delivered nothing\n");
      std::exit(2);
    }
  }

  UnitResult RunUnit(int index, Probes* probes, Checks& checks) override {
    // One independent chaos schedule per unit, derived from the run's seed.
    sep::Rng rng(seed_ ^ (0x7E1ULL * static_cast<std::uint64_t>(index + 1)));
    const std::uint64_t wire_seed = rng.Next();
    const std::uint64_t crash_seed = rng.Next();

    sep::Network net;
    sep::SnfeRecoverableTopology topo = sep::BuildSnfePairRecoverable(
        net, sep::CensorStrictness::kSyntax, sep::FaultSpec::DropCorrupt(kWireFaultPercent),
        wire_seed, sep::TunnelRecoveryOptions{}, kPackets);
    sep::NodeFaultSpec crashes;
    crashes.crash_percent = 1;
    crashes.max_crashes = 2;
    crashes.min_restart_delay = 4;
    crashes.max_restart_delay = 24;
    net.InjectNodeFaults(topo.tunnel.ingress_node, crashes, crash_seed);
    net.InjectNodeFaults(topo.tunnel.egress_node, crashes, crash_seed ^ 0xFEEDULL);

    const auto& sink = static_cast<const sep::HostSink&>(net.process(topo.pair.host_rx));
    for (int burst = 0; burst < kMaxBursts && sink.packets().size() < baseline_.size(); ++burst) {
      ScopedSpan span(probes ? &probes->spans : nullptr, "net.run");
      net.Run(kBurstTicks);
    }

    std::vector<sep::Frame> received = sink.packets();
    if (tamper_.tunnel_stream && !received.empty()) {
      received[0].type ^= 1;
    }
    checks.Expect(received == baseline_,
                  "tunnel_chaos: received stream differs from the fault-free run");

    const std::size_t words = StreamWords(received);
    const std::uint64_t wire = net.link(topo.tunnel.data_link).total_pushed() +
                               net.link(topo.tunnel.ack_link).total_pushed();
    UnitResult r;
    r.steps = static_cast<double>(net.now());
    r.outputs = static_cast<double>(words);
    sep::Hasher stream;
    for (const sep::Frame& f : received) {
      stream.Mix(f.type).MixRange(f.fields);
    }
    r.sim = {net.now(), wire, net.recovery_log().size(), stream.digest()};
    if (probes != nullptr) {
      auto& s = probes->sums;
      s["net.ticks"] += static_cast<double>(net.now());
      s["net.delivered_words"] += static_cast<double>(words);
      s["net.wire_words"] += static_cast<double>(wire);
      s["sim.ticks"] += static_cast<double>(net.now());
      s["sim.words"] += static_cast<double>(words);
      for (const sep::Network::NodeRecoveryEvent& event : net.recovery_log()) {
        probes->recovery_ticks.push_back(static_cast<double>(event.lost_ticks));
      }
    }
    return r;
  }

 private:
  Tamper tamper_;
  std::uint64_t seed_ = 0;
  std::vector<sep::Frame> baseline_;
};

}  // namespace

std::unique_ptr<Workload> MakeTunnelWorkload(const Tamper& tamper) {
  return std::make_unique<TunnelWorkload>(tamper);
}

}  // namespace perfbench
