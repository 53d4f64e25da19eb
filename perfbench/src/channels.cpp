// kernel_channels: an SNFE/guard-shaped pipeline, trap-dense.
//
//   source --SEND/RECV--> censor --SENDV/RECVV--> crypto ==shared ring==> sink
//
// The source cycles through a seeded table of 8-word messages, one SEND per
// word. The censor reassembles each message and drops those whose header is
// malformed (high nibble other than 0xA; a fixed share of the table, at
// seeded positions), forwarding the rest as one 8-word SENDV batch. The
// crypto regime RECVVs a batch, passes every word through its CryptoUnit
// and publishes the ciphertext on a shared ring (RINGSTAT for room, write
// the window, RINGPUT). The sink drains the ring onto its SerialLine. Every
// word the line emits is checked against the benchmark's model of censor +
// crypto.
#include <cstdio>
#include <string>

#include "perfbench/src/lanes.h"
#include "src/base/rng.h"
#include "src/machine/devices.h"

namespace perfbench {
namespace {

constexpr int kMessageWords = 8;
constexpr int kMessages = 48;
constexpr int kMalformed = 10;  // malformed headers in the table
constexpr std::uint64_t kCryptoKey = 0x5EC0DE5EC0DEULL;
constexpr std::size_t kSliceSteps = 1u << 20;

constexpr char kCensorSource[] = R"(
CTOP:   MOV #BUF, R2
        MOV #8, R3
CRECV:  CLR R0
        TRAP 2
        TST R0
        BEQ CEMPTY
        MOV R1, (R2)
        INC R2
        DEC R3
        BNE CRECV
        MOV @BUF, R4
        BIC #0x0FFF, R4
        CMP #0xA000, R4
        BNE CTOP
CSEND:  MOV #1, R0
        MOV #TBL, R1
        MOV #1, R2
        TRAP 9
        TST R0
        BNE CTOP
        TRAP 0
        BR CSEND
CEMPTY: TRAP 0
        BR CRECV
TBL:    .WORD BUF
        .WORD 8
BUF:    .BLKW 8
)";

constexpr char kCryptoSource[] = R"(
        .EQU CCSR, 0xE000
        .EQU DIN, 0xE001
        .EQU DOUT, 0xE002
        .EQU WIN, 0x8000
KTOP:   MOV #1, R0
        MOV #TBL, R1
        MOV #1, R2
        TRAP 10
        TST R0
        BEQ KEMPTY
KROOM:  CLR R0
        TRAP 13
        CMP #8, R1
        BGT KFULL
        MOV #BUF, R2
        MOV #8, R3
        MOV @TAIL, R4
KENC:   MOV (R2), @DIN
KWAIT:  BIT #0x80, @CCSR
        BEQ KWAIT
        MOV R4, R5
        BIC #0xFFC0, R5
        MOV @DOUT, WIN(R5)
        INC R4
        INC R2
        DEC R3
        BNE KENC
        MOV R4, @TAIL
        CLR R0
        MOV #8, R1
        TRAP 11
        BR KTOP
KFULL:  TRAP 0
        BR KROOM
KEMPTY: TRAP 0
        BR KTOP
TBL:    .WORD BUF
        .WORD 8
TAIL:   .WORD 0
BUF:    .BLKW 8
)";

constexpr char kSinkSource[] = R"(
; sepcheck: shared-ring 0 producer-only tail advance + read-only consumer window keep the object one-directional
        .EQU XCSR, 0xE002
        .EQU XBUF, 0xE003
        .EQU WIN, 0x8000
STOP:   CLR R0
        TRAP 13
        TST R0
        BEQ SEMPTY
        MOV R0, R3
        MOV R0, R2
        MOV @HEAD, R4
SOUT:   MOV R4, R5
        BIC #0xFFC0, R5
SW:     BIT #0x80, @XCSR
        BEQ SW
        MOV WIN(R5), @XBUF
        INC R4
        DEC R3
        BNE SOUT
        MOV R4, @HEAD
        CLR R0
        MOV R2, R1
        TRAP 12
        BR STOP
SEMPTY: TRAP 0
        BR STOP
HEAD:   .WORD 0
)";

std::string SourceProgram(const std::vector<sep::Word>& table) {
  std::string out = "        .EQU TOTAL, " + std::to_string(table.size()) + R"(
START:  MOV #MSGS, R2
        MOV #TOTAL, R3
SLOOP:  CLR R0
        MOV (R2), R1
        TRAP 1
        TST R0
        BEQ FULL
        INC R2
        DEC R3
        BNE SLOOP
        BR START
FULL:   TRAP 0
        BR SLOOP
        .ORG 0x100
)";
  for (std::size_t i = 0; i < table.size(); i += kMessageWords) {
    out += i == 0 ? "MSGS:   .WORD " : "        .WORD ";
    for (std::size_t j = i; j < i + kMessageWords; ++j) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%s0x%04X", j == i ? "" : ", ", table[j]);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

// The model of censor + crypto: the ciphertext stream the sink must emit.
class StreamModel {
 public:
  StreamModel(const std::vector<sep::Word>& table, bool tamper) : table_(table), tamper_(tamper) {}

  sep::Word Next() {
    while (word_ == 0 && (table_[pos_] & 0xF000) != 0xA000) {
      pos_ = (pos_ + kMessageWords) % table_.size();  // the censor drops it
    }
    sep::Word w = static_cast<sep::Word>(table_[pos_ + word_] ^
                                         sep::CryptoUnit::Keystream(kCryptoKey, ops_++));
    if (++word_ == kMessageWords) {
      word_ = 0;
      pos_ = (pos_ + kMessageWords) % table_.size();
    }
    if (tamper_ && ops_ == 1) {
      w ^= 1;
    }
    return w;
  }

 private:
  std::vector<sep::Word> table_;
  bool tamper_;
  std::size_t pos_ = 0;
  std::size_t word_ = 0;
  std::uint64_t ops_ = 0;
};

class ChannelsWorkload : public Workload {
 public:
  explicit ChannelsWorkload(const Tamper& tamper) : tamper_(tamper) {}

  void Setup(std::uint64_t seed, Probes* probes) override {
    sep::Rng rng(seed ^ 0xC4A77E15ULL);
    std::vector<bool> bad(kMessages, false);
    for (int i = 0; i < kMalformed; ++i) {
      bad[static_cast<std::size_t>(i)] = true;
    }
    rng.Shuffle(bad);
    table_.clear();
    for (int m = 0; m < kMessages; ++m) {
      sep::Word header = static_cast<sep::Word>(0xA000 | (rng.Next() & 0x0FFF));
      if (bad[static_cast<std::size_t>(m)]) {
        // Any high nibble but 0xA.
        const sep::Word nibble = static_cast<sep::Word>((0xB + rng.NextBelow(15)) & 0xF);
        header = static_cast<sep::Word>((nibble << 12) | (rng.Next() & 0x0FFF));
      }
      table_.push_back(header);
      for (int w = 1; w < kMessageWords; ++w) {
        table_.push_back(static_cast<sep::Word>(rng.Next() & 0xFFFF));
      }
    }
    const std::vector<std::string> sources = {SourceProgram(table_), kCensorSource,
                                              kCryptoSource, kSinkSource};
    Build(sources, nullptr, plain_);
    plain_model_ = std::make_unique<StreamModel>(table_, tamper_.channels_model);
    if (probes != nullptr) {
      AttributeAssembly(sources, probes);
      Build(sources, probes, probed_);
      probed_model_ = std::make_unique<StreamModel>(table_, tamper_.channels_model);
    }
  }

  UnitResult RunUnit(int, Probes* probes, Checks& checks) override {
    MachineLane& lane = probes ? probed_ : plain_;
    StreamModel& model = probes ? *probed_model_ : *plain_model_;
    UnitResult r;
    r.steps = static_cast<double>(lane.Run(kSliceSteps, probes));
    const std::vector<sep::Word> out = lane.system().machine().device(line_slot_).DrainOutput();
    for (sep::Word w : out) {
      checks.Expect(w == model.Next(), "kernel_channels: delivered word differs from the model");
    }
    checks.Expect(!out.empty(), "kernel_channels: nothing delivered in a slice");
    checks.Expect(lane.system().kernel().FaultCount() == 0,
                  "kernel_channels: a regime was faulted by the kernel");
    r.outputs = static_cast<double>(out.size());
    lane.CheckTrapAccounting(probes, checks);
    r.sim = lane.Sim();
    sep::Hasher emitted;
    emitted.MixRange(out);
    r.sim.push_back(emitted.digest());
    if (probes != nullptr) {
      probes->sums["sim.ticks"] += r.steps;
      probes->sums["sim.words"] += static_cast<double>(out.size());
    }
    return r;
  }

 private:
  void Build(const std::vector<std::string>& sources, Probes* probes, MachineLane& lane) {
    sep::SystemBuilder sb;
    const int crypto = sb.AddDevice(
        Attach(std::make_unique<sep::CryptoUnit>("crypto", 16, 4, kCryptoKey, 2), probes));
    line_slot_ = sb.AddDevice(
        Attach(std::make_unique<sep::SerialLine>("sink-line", 18, 4, 1), probes));
    bool ok = sb.AddRegime("source", 1024, sources[0]).ok();
    ok &= sb.AddRegime("censor", 256, sources[1]).ok();
    ok &= sb.AddRegime("crypto", 256, sources[2], {crypto}).ok();
    ok &= sb.AddRegime("sink", 256, sources[3], {line_slot_}).ok();
    sb.AddChannel("source-censor", 0, 1, 64);
    sb.AddChannel("censor-crypto", 1, 2, 64);
    sb.AddSharedRing("crypto-sink", 2, 3, 64);
    sep::Result<std::unique_ptr<sep::KernelizedSystem>> system = sb.Build();
    if (!ok || !system.ok()) {
      std::fprintf(stderr, "kernel_channels: build failed: %s\n",
                   system.ok() ? "a guest did not assemble" : system.error().c_str());
      std::exit(2);
    }
    lane.Adopt(std::move(system.value()), probes);
  }

  Tamper tamper_;
  std::vector<sep::Word> table_;
  int line_slot_ = 0;
  MachineLane plain_;
  MachineLane probed_;
  std::unique_ptr<StreamModel> plain_model_;
  std::unique_ptr<StreamModel> probed_model_;
};

}  // namespace

std::unique_ptr<Workload> MakeChannelsWorkload(const Tamper& tamper) {
  return std::make_unique<ChannelsWorkload>(tamper);
}

}  // namespace perfbench
