// kernel_compute: instruction-dense guests with rare kernel entry.
//
// Four compute regimes each loop over a seeded array in their own partition
// (two run a Fletcher-style checksum that rewrites the array, two run one
// bubble-sort pass plus a sum), SEND each pass's result word to a collector
// regime and SWAP: one kernel call per ~2-4k instructions. The collector
// drains the four channels and writes (regime, result) pairs to its
// SerialLine; a LineClock is attached too, so every machine step pays the
// device phase. Every result word the line emits is checked against a C++
// reference of the same computation, and every regime must deliver at least
// one result in every slice, so missing output fails too.
#include <cstdio>
#include <deque>
#include <string>

#include "perfbench/src/lanes.h"
#include "src/base/rng.h"
#include "src/machine/devices.h"

namespace perfbench {
namespace {

constexpr int kComputeRegimes = 4;
constexpr int kBaseLength = 320;   // array words per regime, before the seeded offset
constexpr int kMaxOffset = 64;     // pairs of regimes get 320 +- d words
constexpr std::size_t kSliceSteps = 1u << 20;

struct Guest {
  bool sort = false;
  std::vector<sep::Word> data;
};

std::string WordLines(const std::vector<sep::Word>& data) {
  std::string out;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    out += i == 0 ? "ARR:    .WORD " : "        .WORD ";
    for (std::size_t j = i; j < std::min(data.size(), i + 8); ++j) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%s0x%04X", j == i ? "" : ", ", data[j]);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

// Fletcher-style: s1 += a[i]; s2 += s1; a[i] ^= s2; result = s1 ^ s2.
std::string FletcherSource(int channel, const std::vector<sep::Word>& data) {
  return "        .EQU CH, " + std::to_string(channel) + "\n        .EQU N, " +
         std::to_string(data.size()) + R"(
PASS:   MOV #ARR, R1
        MOV #N, R2
        CLR R3
        CLR R4
LOOP:   ADD (R1), R3
        ADD R3, R4
        XOR R4, (R1)
        INC R1
        DEC R2
        BNE LOOP
        XOR R3, R4
SEND:   MOV #CH, R0
        MOV R4, R1
        TRAP 1
        TST R0
        BNE SENT
        TRAP 0
        BR SEND
SENT:   TRAP 0
        BR PASS
        .ORG 0x100
)" + WordLines(data);
}

// One bubble-sort pass over values < 0x4000 (so the signed compare is a
// plain one); result = swaps + the sum of the settled words; the result is
// then folded into a[0] so the array never freezes.
std::string SortSource(int channel, const std::vector<sep::Word>& data) {
  return "        .EQU CH, " + std::to_string(channel) + "\n        .EQU N1, " +
         std::to_string(data.size() - 1) + R"(
PASS:   MOV #ARR, R1
        MOV #N1, R2
        CLR R3
LOOP:   MOV (R1), R4
        CMP R4, 1(R1)
        BLE NOSW
        MOV 1(R1), (R1)
        MOV R4, 1(R1)
        INC R3
NOSW:   ADD (R1), R3
        INC R1
        DEC R2
        BNE LOOP
        ADD R3, @ARR
        BIC #0xC000, @ARR
SEND:   MOV #CH, R0
        MOV R3, R1
        TRAP 1
        TST R0
        BNE SENT
        TRAP 0
        BR SEND
SENT:   TRAP 0
        BR PASS
        .ORG 0x100
)" + WordLines(data);
}

// Drains result channels 0..3 and writes (channel, word) pairs to the line.
constexpr char kCollectorSource[] = R"(
        .EQU XCSR, 0xE002
        .EQU XBUF, 0xE003
TOP:    CLR R5
CHAN:   MOV R5, R0
        TRAP 2
        TST R0
        BEQ NEXT
W1:     BIT #0x80, @XCSR
        BEQ W1
        MOV R5, @XBUF
W2:     BIT #0x80, @XCSR
        BEQ W2
        MOV R1, @XBUF
        BR CHAN
NEXT:   INC R5
        CMP #4, R5
        BNE CHAN
        TRAP 0
        BR TOP
)";

// The reference computation of one compute regime.
class Reference {
 public:
  explicit Reference(const Guest& guest) : sort_(guest.sort), a_(guest.data) {}

  sep::Word Next() {
    const std::size_t n = a_.size();
    if (!sort_) {
      sep::Word s1 = 0;
      sep::Word s2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        s1 = static_cast<sep::Word>(s1 + a_[i]);
        s2 = static_cast<sep::Word>(s2 + s1);
        a_[i] = static_cast<sep::Word>(a_[i] ^ s2);
      }
      return static_cast<sep::Word>(s1 ^ s2);
    }
    sep::Word s = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (a_[i] > a_[i + 1]) {
        std::swap(a_[i], a_[i + 1]);
        s = static_cast<sep::Word>(s + 1);
      }
      s = static_cast<sep::Word>(s + a_[i]);
    }
    a_[0] = static_cast<sep::Word>((a_[0] + s) & 0x3FFF);
    return s;
  }

 private:
  bool sort_;
  std::vector<sep::Word> a_;
};

// Consumes the collector's (channel, word) stream and checks every word.
class ResultOracle {
 public:
  ResultOracle(const std::vector<Guest>& guests, const Tamper& tamper) : tamper_(tamper) {
    for (const Guest& g : guests) {
      refs_.emplace_back(g);
    }
    results_.assign(refs_.size(), 0);
  }

  // Checks the words of one slice: each against its reference, and that
  // every regime delivered at least one result in the slice.
  std::size_t Consume(const std::vector<sep::Word>& words, Checks& checks) {
    const std::vector<std::uint64_t> before = results_;
    std::size_t checked = 0;
    pending_.insert(pending_.end(), words.begin(), words.end());
    while (pending_.size() >= 2) {
      const sep::Word tag = pending_[0];
      const sep::Word value = pending_[1];
      pending_.erase(pending_.begin(), pending_.begin() + 2);
      if (tamper_.compute_starved && tag + 1u == refs_.size()) {
        continue;
      }
      if (tag >= refs_.size()) {
        checks.Expect(false, "kernel_compute: collector emitted unknown regime tag");
        continue;
      }
      sep::Word expected = refs_[tag].Next();
      if (tamper_.compute_reference && checked_total_ == 0) {
        expected ^= 1;
      }
      checks.Expect(value == expected, "kernel_compute: a result differs from the reference");
      ++results_[tag];
      ++checked;
      ++checked_total_;
    }
    bool all_advanced = true;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      all_advanced &= results_[i] > before[i];
    }
    checks.Expect(all_advanced, "kernel_compute: a regime delivered no result in a slice");
    return checked;
  }

 private:
  Tamper tamper_;
  std::vector<Reference> refs_;
  std::vector<std::uint64_t> results_;  // results checked per regime
  std::deque<sep::Word> pending_;
  std::uint64_t checked_total_ = 0;
};

class ComputeWorkload : public Workload {
 public:
  explicit ComputeWorkload(const Tamper& tamper) : tamper_(tamper) {}

  void Setup(std::uint64_t seed, Probes* probes) override {
    sep::Rng rng(seed ^ 0xC0C0C0C0ULL);
    const int d = static_cast<int>(rng.NextInRange(0, kMaxOffset));
    const int e = static_cast<int>(rng.NextInRange(0, kMaxOffset));
    const int lengths[kComputeRegimes] = {kBaseLength + d, kBaseLength - d, kBaseLength + e,
                                          kBaseLength - e};
    guests_.assign(kComputeRegimes, Guest{});
    std::vector<std::string> sources;
    for (int i = 0; i < kComputeRegimes; ++i) {
      Guest& g = guests_[static_cast<std::size_t>(i)];
      g.sort = i >= 2;
      for (int j = 0; j < lengths[i]; ++j) {
        g.data.push_back(static_cast<sep::Word>(rng.Next() & (g.sort ? 0x3FFF : 0xFFFF)));
      }
      sources.push_back(g.sort ? SortSource(i, g.data) : FletcherSource(i, g.data));
    }
    sources.push_back(kCollectorSource);

    Build(sources, nullptr, plain_);
    plain_oracle_ = std::make_unique<ResultOracle>(guests_, tamper_);
    if (probes != nullptr) {
      AttributeAssembly(sources, probes);
      Build(sources, probes, probed_);
      probed_oracle_ = std::make_unique<ResultOracle>(guests_, tamper_);
    }
  }

  UnitResult RunUnit(int, Probes* probes, Checks& checks) override {
    MachineLane& lane = probes ? probed_ : plain_;
    ResultOracle& oracle = probes ? *probed_oracle_ : *plain_oracle_;
    UnitResult r;
    r.steps = static_cast<double>(lane.Run(kSliceSteps, probes));
    const std::vector<sep::Word> out = lane.system().machine().device(line_slot_).DrainOutput();
    const std::size_t checked = oracle.Consume(out, checks);
    r.outputs = static_cast<double>(checked);
    checks.Expect(lane.system().kernel().FaultCount() == 0,
                  "kernel_compute: a regime was faulted by the kernel");
    lane.CheckTrapAccounting(probes, checks);
    r.sim = lane.Sim();
    sep::Hasher emitted;
    emitted.MixRange(out);
    r.sim.push_back(emitted.digest());
    if (probes != nullptr) {
      probes->sums["sim.ticks"] += r.steps;
      probes->sums["sim.words"] += static_cast<double>(checked);
    }
    return r;
  }

 private:
  void Build(const std::vector<std::string>& sources, Probes* probes, MachineLane& lane) {
    sep::SystemBuilder sb;
    line_slot_ = sb.AddDevice(
        Attach(std::make_unique<sep::SerialLine>("collector-line", 16, 4, 1), probes));
    const int clock = sb.AddDevice(
        Attach(std::make_unique<sep::LineClock>("clock", 20, 6, 50), probes));
    bool ok = true;
    for (int i = 0; i < kComputeRegimes; ++i) {
      ok &= sb.AddRegime("compute" + std::to_string(i), 1024,
                              sources[static_cast<std::size_t>(i)])
                .ok();
    }
    ok &= sb.AddRegime("collector", 256, sources.back(), {line_slot_, clock}).ok();
    for (int i = 0; i < kComputeRegimes; ++i) {
      sb.AddChannel("result" + std::to_string(i), i, kComputeRegimes, 16);
    }
    sep::Result<std::unique_ptr<sep::KernelizedSystem>> system = sb.Build();
    if (!ok || !system.ok()) {
      std::fprintf(stderr, "kernel_compute: build failed: %s\n",
                   system.ok() ? "a guest did not assemble" : system.error().c_str());
      std::exit(2);
    }
    lane.Adopt(std::move(system.value()), probes);
  }

  Tamper tamper_;
  std::vector<Guest> guests_;
  int line_slot_ = 0;
  MachineLane plain_;
  MachineLane probed_;
  std::unique_ptr<ResultOracle> plain_oracle_;
  std::unique_ptr<ResultOracle> probed_oracle_;
};

}  // namespace

std::unique_ptr<Workload> MakeComputeWorkload(const Tamper& tamper) {
  return std::make_unique<ComputeWorkload>(tamper);
}

}  // namespace perfbench
