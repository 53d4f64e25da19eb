// The two hooks Machine::Run batches devices with, held to Device::Step():
//
//   * Advance(n) must equal n Step() calls exactly — the complete snapshot
//     (queues and interrupt line included);
//   * QuietHorizon() must be conservative: stepping one slot at a time, the
//     interrupt line stays low for at least that many slots.
//
// Every device that overrides the hooks is checked from Perturb()ed states
// with each interrupt enable forced on and off, at random n and at the
// countdown boundaries (countdown - 1, countdown, countdown + period).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/machine/devices.h"
#include "src/machine/faulty_device.h"

namespace sep {
namespace {

struct DeviceCase {
  std::string name;
  std::function<std::unique_ptr<Device>()> make;
  std::vector<std::size_t> csr_words;  // snapshot indices of CSRs with an IE bit
  std::size_t countdown_word;          // snapshot index of the countdown
  std::size_t line_word;               // snapshot index of the interrupt line
  std::uint64_t period;                // interval / delay / latency
};

std::vector<DeviceCase> Cases() {
  return {
      {"SerialLine", [] { return std::make_unique<SerialLine>("slu", 16, 4, 5); }, {0, 2}, 4,
       5, 5},
      {"LineClock", [] { return std::make_unique<LineClock>("clk", 20, 6, 13); }, {0}, 1, 2, 13},
      {"LinePrinter", [] { return std::make_unique<LinePrinter>("lp", 28, 4, 7); }, {0}, 2, 3,
       7},
      {"CryptoUnit", [] { return std::make_unique<CryptoUnit>("crypto", 24, 5, 0xBEEF, 4); }, {0},
       4, 9, 4},
  };
}

void PrintTo(const DeviceCase& c, std::ostream* os) { *os << c.name; }

class DeviceAdvance : public ::testing::TestWithParam<DeviceCase> {};

// A Perturb()ed device with every IE bit forced to `ie` and the interrupt
// line to `line`, through the snapshot encoding.
std::unique_ptr<Device> StartState(const DeviceCase& c, Rng& rng, bool ie, bool line) {
  std::unique_ptr<Device> dev = c.make();
  dev->Perturb(rng);
  std::vector<Word> state = dev->SnapshotState();
  for (std::size_t w : c.csr_words) {
    state[w] = static_cast<Word>(ie ? (state[w] | kCsrIe) : (state[w] & ~kCsrIe));
  }
  state[c.line_word] = line ? 1 : 0;
  EXPECT_TRUE(dev->RestoreState(state));
  return dev;
}

void ExpectAdvanceMatchesSteps(const Device& start, std::uint64_t n) {
  std::unique_ptr<Device> closed = start.Clone();
  std::unique_ptr<Device> stepped = start.Clone();
  closed->Advance(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    stepped->Step();
  }
  EXPECT_EQ(closed->SnapshotState(), stepped->SnapshotState()) << "n = " << n;
  EXPECT_EQ(closed->interrupt_pending(), stepped->interrupt_pending()) << "n = " << n;
}

TEST_P(DeviceAdvance, ClosedFormEqualsRepeatedStep) {
  const DeviceCase& c = GetParam();
  Rng rng(0xADA);
  for (int trial = 0; trial < 400; ++trial) {
    for (bool ie : {false, true}) {
      for (bool line : {false, true}) {
        std::unique_ptr<Device> dev = StartState(c, rng, ie, line);
        SCOPED_TRACE("trial " + std::to_string(trial) + (ie ? " IE on" : " IE off") +
                     (line ? " line up" : " line low"));
        const std::uint64_t countdown = dev->SnapshotState()[c.countdown_word];
        std::vector<std::uint64_t> ns = {0, 1, 2, countdown + c.period, 3 * c.period + 1,
                                         rng.NextBelow(8 * c.period + 8)};
        if (countdown > 0) {
          ns.push_back(countdown - 1);
          ns.push_back(countdown);
        }
        for (std::uint64_t n : ns) {
          ExpectAdvanceMatchesSteps(*dev, n);
        }
      }
    }
  }
}

TEST_P(DeviceAdvance, QuietHorizonIsNeverExceeded) {
  const DeviceCase& c = GetParam();
  Rng rng(0x901E7);
  int finite = 0;
  for (int trial = 0; trial < 400; ++trial) {
    for (bool ie : {false, true}) {
      std::unique_ptr<Device> dev = StartState(c, rng, ie, /*line=*/false);
      SCOPED_TRACE("trial " + std::to_string(trial) + (ie ? " IE on" : " IE off"));
      const std::uint64_t quiet = dev->QuietHorizon();
      if (!ie) {
        // With every enable off, nothing short of a register access can
        // raise the line.
        EXPECT_EQ(quiet, Device::kQuietForever);
      }
      finite += quiet != Device::kQuietForever;
      const std::uint64_t horizon = std::min<std::uint64_t>(quiet, 10 * c.period + 10);
      for (std::uint64_t i = 0; i < horizon; ++i) {
        dev->Step();
        ASSERT_FALSE(dev->interrupt_pending()) << "line rose on slot " << i + 1
                                               << " inside a quiet horizon of " << quiet;
      }
    }
  }
  // Not vacuous: with IE on, most perturbed states have an event pending.
  EXPECT_GT(finite, 100);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DeviceAdvance, ::testing::ValuesIn(Cases()),
                         [](const ::testing::TestParamInfo<DeviceCase>& info) {
                           return info.param.name;
                         });

// Decorators keep the conservative default: one slot at a time, and an
// Advance that is literally repeated Step().
TEST(DeviceAdvanceDefault, FaultyDeviceStepsOneAtATime) {
  DeviceFaultSpec spec;
  spec.stall_percent = 20;
  spec.spurious_irq_percent = 10;
  FaultyDevice a(std::make_unique<LineClock>("clk", 20, 6, 5), spec, 99);
  FaultyDevice b(std::make_unique<LineClock>("clk", 20, 6, 5), spec, 99);
  EXPECT_EQ(a.QuietHorizon(), 0u);
  a.Advance(500);
  for (int i = 0; i < 500; ++i) {
    b.Step();
  }
  EXPECT_EQ(a.SnapshotState(), b.SnapshotState());
  EXPECT_EQ(a.fault_counters().spurious_interrupts, b.fault_counters().spurious_interrupts);
}

}  // namespace
}  // namespace sep
