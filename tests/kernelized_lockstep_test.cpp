// Kernelized systems must not be able to tell how they were run. Run()
// batches guest instructions through the threaded/superblock loop between
// kernel entries and skips device slots in closed form; these tests hold it
// to the reference interpreter, three ways:
//
//   fast  KernelizedSystem::Run in random chunk sizes (predecode and
//         superblocks on — the default engine);
//   nosb  the same with superblocks off;
//   ref   repeated Machine::Step() with the predecode cache off.
//
// At every chunk boundary the complete machine state hash, the tick, the
// kernel's call/swap/fault/irq counters, the halt/wait latches and
// everything each device emitted must agree. The guests cover clock
// interrupts into SETVEC/AWAIT handlers, serial input injected mid-run
// with transmit interrupts on and off, the crypto unit and the printer,
// a fault-injecting device, SWAP/SEND/RECV traps, MMU and illegal-
// instruction regime faults, HALT, and the idle (WAIT) state.
//
// The second half checks the trace: every event Run() emits must carry
// the tick, colour and arguments repeated Step() gives it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/kernel_system.h"
#include "src/machine/devices.h"
#include "src/machine/faulty_device.h"
#include "src/obs/trace.h"
#include "src/sm11asm/assembler.h"
#include "tests/test_util.h"

namespace sep {
namespace {

using Factory = std::function<std::unique_ptr<KernelizedSystem>()>;
// Called on every lane at every chunk boundary (the environment's turn).
using Environment = std::function<void(std::size_t boundary, KernelizedSystem&)>;

// A compute regime: a hot loop (superblock material) with a store into its
// own partition, yielding every 500 iterations.
constexpr char kBusy[] = R"(
START:  CLR R0
        CLR R1
LOOP:   INC R0
        ADD R0, R1
        XOR R1, @0x100
        CMP #500, R0
        BNE LOOP
        CLR R0
        TRAP 0
        BR LOOP
)";

// Owns a LineClock as local device 0: enables its interrupt, AWAITs, and
// counts ticks in R5 from a SETVEC handler; HALTs after `ticks` ticks.
std::string TickerSource(int ticks) {
  return "        .EQU CLK, 0xE000\n        .EQU TICKS, " + std::to_string(ticks) + R"(
START:  CLR R0
        MOV #HANDLER, R1
        TRAP 4
        CLR R5
        MOV #0x40, @CLK
LOOP:   TRAP 6
        CMP #TICKS, R5
        BNE LOOP
        TRAP 7
HANDLER:
        INC R5
        MOV #0x40, @CLK
        TRAP 5
)";
}

// Owns a SerialLine as local device 0: echoes every received word + 1 from
// its receive interrupt handler, polling the transmitter. `xie` sets the
// transmit interrupt enable too, so completions (and the immediate
// interrupt of enabling IE on an idle transmitter) reach the handler.
std::string EchoSource(bool xie) {
  return std::string("        .EQU XIE, ") + (xie ? "0x40" : "0") + R"(
START:  CLR R0
        MOV #HANDLER, R1
        TRAP 4
        MOV #0x40, @0xE000
        MOV #XIE, @0xE002
LOOP:   TRAP 6
        BR LOOP
HANDLER:
        MOV #0xE000, R4
        BIT #0x80, (R4)
        BEQ HDONE
        MOV 1(R4), R2
        ADD #1, R2
WT:     BIT #0x80, 2(R4)
        BEQ WT
        MOV R2, 3(R4)
HDONE:  TRAP 5
)";
}

// Owns a CryptoUnit (local 0, interrupts counted in R5 by its handler) and
// a LinePrinter (local 1, polled): enciphers 0..n-1, prints each result
// and SENDs it on channel 0, then HALTs.
std::string CipherSource(int n) {
  return "        .EQU N, " + std::to_string(n) + R"(
        .EQU CCSR, 0xE000
        .EQU CIN, 0xE001
        .EQU LPS, 0xE008
        .EQU LPB, 0xE009
START:  CLR R0
        MOV #HANDLER, R1
        TRAP 4
        MOV #0x40, @CCSR
        CLR R3
NEXT:   MOV R3, @CIN
WC:     BIT #0x80, @CCSR
        BEQ WC
        MOV #0xE000, R4
        MOV 2(R4), R2
WP:     BIT #0x80, @LPS
        BEQ WP
        MOV R2, @LPB
SEND:   MOV #0, R0
        MOV R2, R1
        TRAP 1
        TST R0
        BNE SENT
        TRAP 0
        BR SEND
SENT:   INC R3
        CMP #N, R3
        BNE NEXT
        TRAP 7
HANDLER:
        INC R5
        TRAP 5
)";
}

// RECVs from channel 0 forever, folding the words into a sum it stores.
constexpr char kSink[] = R"(
START:  CLR R3
LOOP:   CLR R0
        TRAP 2
        TST R0
        BEQ EMPTY
        ADD R1, R3
        MOV R3, @0x1F0
        BR LOOP
EMPTY:  TRAP 0
        BR LOOP
)";

struct LaneState {
  std::size_t ran = 0;
  Tick tick = 0;
  std::uint64_t hash = 0;
  std::uint64_t calls = 0;
  std::uint64_t swaps = 0;
  std::uint64_t faults = 0;
  std::uint64_t irqs = 0;
  bool halted = false;
  bool waiting = false;
  std::vector<std::vector<Word>> output;  // drained, per device

  bool operator==(const LaneState&) const = default;
};

LaneState Observe(KernelizedSystem& sys, std::size_t ran) {
  LaneState s;
  s.ran = ran;
  s.tick = sys.machine().tick();
  s.hash = sys.machine().StateHash();
  s.calls = sys.kernel().KernelCallCount();
  s.swaps = sys.kernel().SwapCount();
  s.faults = sys.kernel().FaultCount();
  s.irqs = sys.kernel().IrqForwardCount();
  s.halted = sys.machine().halted();
  s.waiting = sys.machine().waiting();
  for (int d = 0; d < sys.machine().device_count(); ++d) {
    s.output.push_back(sys.machine().device(d).DrainOutput());
  }
  return s;
}

std::string Describe(const LaneState& s) {
  std::string out = "ran=" + std::to_string(s.ran) + " tick=" + std::to_string(s.tick) +
                    " hash=" + std::to_string(s.hash) + " calls=" + std::to_string(s.calls) +
                    " swaps=" + std::to_string(s.swaps) + " faults=" + std::to_string(s.faults) +
                    " irqs=" + std::to_string(s.irqs) + " halted=" + std::to_string(s.halted) +
                    " waiting=" + std::to_string(s.waiting) + " out=";
  for (const auto& words : s.output) {
    out += std::to_string(words.size()) + ",";
  }
  return out;
}

// Drives the three lanes through random chunk sizes until `total` steps or
// a halt, comparing them at every boundary. Returns the fast lane.
std::unique_ptr<KernelizedSystem> ExpectLockstep(const Factory& make, std::uint64_t seed,
                                                 std::size_t total,
                                                 const Environment& env = nullptr) {
  auto fast = make();
  auto nosb = make();
  auto ref = make();
  nosb->machine().set_superblock_enabled(false);
  ref->machine().set_predecode_enabled(false);

  Rng rng(seed);
  std::size_t done = 0;
  for (std::size_t boundary = 0; done < total && !fast->machine().halted(); ++boundary) {
    if (env) {
      env(boundary, *fast);
      env(boundary, *nosb);
      env(boundary, *ref);
    }
    // Mostly short chunks (many boundaries inside batches), some long ones.
    const std::size_t chunk = rng.NextChance(1, 8)
                                  ? static_cast<std::size_t>(rng.NextInRange(2000, 40000))
                                  : static_cast<std::size_t>(rng.NextInRange(1, 2000));
    std::size_t ref_ran = 0;
    while (ref_ran < chunk && !ref->machine().halted()) {
      ref->machine().Step();
      ++ref_ran;
    }
    const LaneState want = Observe(*ref, ref_ran);
    const LaneState got_fast = Observe(*fast, fast->Run(chunk));
    const LaneState got_nosb = Observe(*nosb, nosb->Run(chunk));
    EXPECT_TRUE(got_fast == want) << "superblocks on, boundary " << boundary << " after "
                                  << done << " steps\n  got  " << Describe(got_fast)
                                  << "\n  want " << Describe(want);
    EXPECT_TRUE(got_nosb == want) << "superblocks off, boundary " << boundary << " after "
                                  << done << " steps\n  got  " << Describe(got_nosb)
                                  << "\n  want " << Describe(want);
    if (!(got_fast == want) || !(got_nosb == want)) {
      break;
    }
    done += chunk;
  }
  return fast;
}

std::unique_ptr<KernelizedSystem> BuildOrDie(SystemBuilder& builder) {
  Result<std::unique_ptr<KernelizedSystem>> sys = builder.Build();
  if (!sys.ok()) {
    std::fprintf(stderr, "system build failed: %s\n", sys.error().c_str());
    std::abort();
  }
  return std::move(sys.value());
}

std::unique_ptr<KernelizedSystem> ClockAndBusy() {
  SystemBuilder builder;
  const int clk = builder.AddDevice(std::make_unique<LineClock>("clk", 20, 6, 37));
  EXPECT_TRUE(builder.AddRegime("ticker", 512, TickerSource(30000), {clk}).ok());
  EXPECT_TRUE(builder.AddRegime("busy", 512, kBusy).ok());
  return BuildOrDie(builder);
}

TEST(KernelizedLockstep, ClockInterruptsIntoAwaitHandler) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto fast = ExpectLockstep(ClockAndBusy, seed, 300000);
    EXPECT_GT(fast->kernel().IrqForwardCount(), 1000u);
    EXPECT_GT(fast->machine().superblock_builds(), 0u) << "no batch ever ran";
  }
}

// The ticker alone: between ticks no regime is runnable, the kernel idles
// the CPU (WAIT), and Run skips the idle steps to the next clock tick. The
// ticker HALTs after 300 ticks, which halts the machine.
TEST(KernelizedLockstep, IdleUntilClockThenHalt) {
  const Factory make = [] {
    SystemBuilder builder;
    const int clk = builder.AddDevice(std::make_unique<LineClock>("clk", 20, 6, 97));
    EXPECT_TRUE(builder.AddRegime("ticker", 512, TickerSource(300), {clk}).ok());
    return BuildOrDie(builder);
  };
  for (std::uint64_t seed : {4u, 5u}) {
    auto fast = ExpectLockstep(make, seed, 1000000);
    EXPECT_TRUE(fast->machine().halted());
    EXPECT_EQ(fast->kernel().IrqForwardCount(), 300u);
  }
}

// Serial input arrives from the environment at random boundaries; the echo
// regime answers from its receive handler. Transmit interrupts on and off.
TEST(KernelizedLockstep, SerialEchoWithInputInjectedMidRun) {
  for (bool xie : {false, true}) {
    const Factory make = [xie] {
      SystemBuilder builder;
      const int slu = builder.AddDevice(std::make_unique<SerialLine>("slu", 16, 4, 3));
      EXPECT_TRUE(builder.AddRegime("echo", 512, EchoSource(xie), {slu}).ok());
      EXPECT_TRUE(builder.AddRegime("busy", 512, kBusy).ok());
      return BuildOrDie(builder);
    };
    Rng input(77);
    std::vector<int> bursts;
    for (int i = 0; i < 64; ++i) {
      bursts.push_back(static_cast<int>(input.NextBelow(4)));
    }
    const Environment env = [&bursts](std::size_t boundary, KernelizedSystem& sys) {
      if (boundary < bursts.size()) {
        for (int i = 0; i < bursts[boundary]; ++i) {
          sys.machine().device(0).InjectInput(static_cast<Word>(boundary * 8 + i));
        }
      }
    };
    auto fast = ExpectLockstep(make, xie ? 6 : 7, 300000, env);
    EXPECT_GT(fast->kernel().IrqForwardCount(), 10u);
  }
}

TEST(KernelizedLockstep, CryptoUnitAndLinePrinterWithChannel) {
  const Factory make = [] {
    SystemBuilder builder;
    const int crypto =
        builder.AddDevice(std::make_unique<CryptoUnit>("crypto", 24, 5, 0xC0FFEEull, 3));
    const int lp = builder.AddDevice(std::make_unique<LinePrinter>("lp", 28, 4, 5));
    EXPECT_TRUE(builder.AddRegime("cipher", 512, CipherSource(400), {crypto, lp}).ok());
    EXPECT_TRUE(builder.AddRegime("sink", 512, kSink).ok());
    EXPECT_TRUE(builder.AddRegime("busy", 512, kBusy).ok());
    builder.AddChannel("results", 0, 1, 8);
    return BuildOrDie(builder);
  };
  for (std::uint64_t seed : {8u, 9u}) {
    auto fast = ExpectLockstep(make, seed, 400000);
    EXPECT_TRUE(fast->kernel().RegimeHalted(0));
    EXPECT_GE(fast->kernel().IrqForwardCount(), 400u);
  }
}

// A fault-injecting clock keeps the conservative default horizon, so every
// step of this system is an ordinary Step(): no batch, no superblock.
TEST(KernelizedLockstep, FaultyDeviceStepsOneAtATime) {
  const Factory make = [] {
    SystemBuilder builder;
    DeviceFaultSpec spec;
    spec.stall_percent = 10;
    spec.spurious_irq_percent = 2;
    spec.read_flip_percent = 5;
    const int clk = builder.AddDevice(std::make_unique<FaultyDevice>(
        std::make_unique<LineClock>("clk", 20, 6, 41), spec, 0xFA17));
    EXPECT_TRUE(builder.AddRegime("ticker", 512, TickerSource(30000), {clk}).ok());
    EXPECT_TRUE(builder.AddRegime("busy", 512, kBusy).ok());
    return BuildOrDie(builder);
  };
  auto fast = ExpectLockstep(make, 10, 200000);
  EXPECT_GT(fast->kernel().IrqForwardCount(), 100u);
  EXPECT_EQ(fast->machine().superblock_builds(), 0u);
}

// Every way a regime can end: a producer HALTs after its last SEND, the
// consumer faults on an unmapped page after its last RECV, a third runs an
// illegal (privileged) instruction, and the compute regime HALTs after a
// fixed number of SWAPs — so the kernel halts the machine.
TEST(KernelizedLockstep, TrapsFaultsAndHalt) {
  const Factory make = [] {
    SystemBuilder builder;
    EXPECT_TRUE(builder.AddRegime("producer", 512, R"(
START:  CLR R3
SEND:   CLR R0
        MOV R3, R1
        TRAP 1
        TST R0
        BNE SENT
        TRAP 0
        BR SEND
SENT:   INC R3
        CMP #300, R3
        BNE SEND
        TRAP 7
)").ok());
    EXPECT_TRUE(builder.AddRegime("consumer", 512, R"(
START:  CLR R3
LOOP:   CLR R0
        TRAP 2
        TST R0
        BEQ EMPTY
        ADD R1, R3
        CMP #299, R1
        BNE LOOP
        MOV R3, @0x2000
EMPTY:  TRAP 0
        BR LOOP
)").ok());
    EXPECT_TRUE(builder.AddRegime("privileged", 256, R"(
START:  MOV #3000, R2
LOOP:   DEC R2
        BNE LOOP
        TRAP 0
        HALT
)").ok());
    EXPECT_TRUE(builder.AddRegime("busy", 512, R"(
START:  CLR R2
LOOP:   INC R0
        ADD R0, R1
        CMP #700, R0
        BNE LOOP
        CLR R0
        INC R2
        TRAP 0
        CMP #200, R2
        BNE LOOP
        TRAP 7
)").ok());
    builder.AddChannel("words", 0, 1, 4);
    return BuildOrDie(builder);
  };
  for (std::uint64_t seed : {11u, 12u}) {
    auto fast = ExpectLockstep(make, seed, 2000000);
    EXPECT_TRUE(fast->machine().halted());
    EXPECT_EQ(fast->kernel().FaultCount(), 2u);
  }
}

// --- trace parity ------------------------------------------------------------

// Records the events of `drive` on a fresh recorder.
std::vector<obs::TraceEvent> Record(const std::function<void()>& drive) {
  obs::Recorder().Start(std::size_t{1} << 20);
  drive();
  obs::Recorder().Stop();
  EXPECT_EQ(obs::Recorder().dropped(), 0u);
  return obs::Recorder().Drain();
}

// Superblock events exist only on the threaded path, and a trace can run a
// stitched instruction that the per-step path would have refilled first,
// so with superblocks on only the other events are compared.
bool SuperblockOnly(const obs::TraceEvent& e) {
  return e.code == obs::Code::kSuperblockBuild || e.code == obs::Code::kSuperblockInvalidate ||
         e.code == obs::Code::kPredecodeFill;
}

void ExpectSameEvents(const std::vector<obs::TraceEvent>& got,
                      const std::vector<obs::TraceEvent>& want, bool filter) {
  std::vector<obs::TraceEvent> a;
  std::vector<obs::TraceEvent> b;
  for (const obs::TraceEvent& e : got) {
    if (!filter || !SuperblockOnly(e)) a.push_back(e);
  }
  for (const obs::TraceEvent& e : want) {
    if (!filter || !SuperblockOnly(e)) b.push_back(e);
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(static_cast<int>(a[i].code), static_cast<int>(b[i].code));
    EXPECT_EQ(a[i].colour, b[i].colour);
    EXPECT_EQ(a[i].tick, b[i].tick);
    EXPECT_EQ(a[i].a0, b[i].a0);
    EXPECT_EQ(a[i].a1, b[i].a1);
    if (a[i].tick != b[i].tick || a[i].code != b[i].code) {
      break;
    }
  }
}

// A bare program that traps through the vector table every iteration.
constexpr char kBareTrapLoop[] = R"(
        .ORG 0x100
START:  CLR R0
LOOP:   INC R0
        ADD R0, R1
        MOV R1, @0x300
        TRAP 3
        CMP #400, R0
        BNE LOOP
        HALT
        .ORG 0x200
HANDLER:
        INC R5
        RTI
)";

std::unique_ptr<Machine> BareTrapMachine(bool superblocks) {
  auto m = MakeBareMachine();
  Result<AssembledProgram> p = Assemble(kBareTrapLoop);
  EXPECT_TRUE(p.ok()) << p.error();
  m->memory().LoadImage(p->base, p->words);
  m->memory().Write(kVectorTrap, 0x200);
  m->memory().Write(kVectorTrap + 1, 0);
  m->cpu().set_pc(0x100);
  m->cpu().set_sp(0x1000);
  m->set_superblock_enabled(superblocks);
  return m;
}

TEST(RunTraceParity, BareMachineEventsCarryStepTicks) {
  for (bool superblocks : {false, true}) {
    SCOPED_TRACE(superblocks ? "superblocks on" : "superblocks off");
    auto run = BareTrapMachine(superblocks);
    auto step = BareTrapMachine(superblocks);
    std::size_t ran = 0;
    const auto got = Record([&] {
      Rng rng(21);
      while (!run->halted()) {
        ran += run->Run(static_cast<std::size_t>(rng.NextInRange(1, 700)));
      }
    });
    const auto want = Record([&] {
      while (!step->halted()) {
        step->Step();
      }
    });
    EXPECT_EQ(run->tick(), step->tick());
    EXPECT_EQ(ran, step->tick());
    std::size_t traps = 0;
    for (const obs::TraceEvent& e : want) {
      traps += e.code == obs::Code::kMachineTrap;
    }
    EXPECT_EQ(traps, 400u);
    ExpectSameEvents(got, want, superblocks);
  }
}

TEST(RunTraceParity, KernelizedEventsCarryStepTicks) {
  const Factory make = [] {
    SystemBuilder builder;
    const int clk = builder.AddDevice(std::make_unique<LineClock>("clk", 20, 6, 37));
    const int slu = builder.AddDevice(std::make_unique<SerialLine>("slu", 16, 4, 3));
    EXPECT_TRUE(builder.AddRegime("ticker", 512, TickerSource(30000), {clk}).ok());
    EXPECT_TRUE(builder.AddRegime("echo", 512, EchoSource(true), {slu}).ok());
    EXPECT_TRUE(builder.AddRegime("busy", 512, kBusy).ok());
    EXPECT_TRUE(builder.AddRegime("privileged", 256, "START: MOV #5000, R2\nL: DEC R2\n"
                                                     "BNE L\nHALT\n").ok());
    return BuildOrDie(builder);
  };
  for (bool superblocks : {false, true}) {
    SCOPED_TRACE(superblocks ? "superblocks on" : "superblocks off");
    auto run = make();
    auto step = make();
    run->machine().set_superblock_enabled(superblocks);
    for (int i = 0; i < 6; ++i) {
      run->machine().device(1).InjectInput(static_cast<Word>('a' + i));
      step->machine().device(1).InjectInput(static_cast<Word>('a' + i));
    }
    constexpr std::size_t kSteps = 60000;
    const auto got = Record([&] {
      Rng rng(22);
      std::size_t done = 0;
      while (done < kSteps) {
        done += run->Run(std::min<std::size_t>(kSteps - done,
                                               static_cast<std::size_t>(rng.NextInRange(1, 3000))));
      }
    });
    const auto want = Record([&] {
      for (std::size_t i = 0; i < kSteps; ++i) {
        step->machine().Step();
      }
    });
    EXPECT_EQ(run->machine().StateHash(), step->machine().StateHash());
    std::size_t irqs = 0;
    std::size_t calls = 0;
    std::size_t faults = 0;
    for (const obs::TraceEvent& e : want) {
      irqs += e.code == obs::Code::kMachineIrq;
      calls += e.code == obs::Code::kKernelCall;
      faults += e.code == obs::Code::kRegimeFault;
    }
    EXPECT_GT(irqs, 1000u);
    EXPECT_GT(calls, 50u);
    EXPECT_EQ(faults, 1u);
    ExpectSameEvents(got, want, superblocks);
  }
}

}  // namespace
}  // namespace sep
