// Exhaustive (finite-model) Proof of Separability: for micro-systems the
// six conditions are decided over the ENTIRE reachable state space — the
// executable analogue of the paper's proof obligation.
#include <gtest/gtest.h>

#include "src/core/exhaustive.h"
#include "src/model/toy_systems.h"

namespace sep {
namespace {

using TinySystem = TinyTwoUserSystem;

TEST(Exhaustive, SecureTinySystemProvenSeparable) {
  ExhaustiveReport report = CheckSeparabilityExhaustive(TinySystem(false));
  EXPECT_TRUE(report.complete) << report.Summary();
  EXPECT_TRUE(report.Passed()) << report.Summary();
  // The whole space really was covered and all condition families checked.
  EXPECT_GT(report.states_explored, 100u);
  EXPECT_GT(report.pairs_checked, 100u);
  for (int c : {1, 2, 3, 4, 5, 6}) {
    EXPECT_GT(report.conditions[static_cast<std::size_t>(c)].checks, 0u) << "C" << c;
  }
}

TEST(Exhaustive, LeakyTinySystemRefutedWithCounterexample) {
  ExhaustiveReport report = CheckSeparabilityExhaustive(TinySystem(true));
  ASSERT_FALSE(report.Passed()) << report.Summary();
  // The leak couples counters through the OPERATION: condition 1 (or 2 via
  // the reverse direction) must carry the refutation.
  bool c1_or_c2 = false;
  for (const Violation& v : report.violations) {
    c1_or_c2 = c1_or_c2 || v.condition == 1 || v.condition == 2;
  }
  EXPECT_TRUE(c1_or_c2);
}

TEST(Exhaustive, StateBudgetMakesResultPartialNotWrong) {
  ExhaustiveOptions options;
  options.max_states = 50;  // far below the reachable count
  ExhaustiveReport report = CheckSeparabilityExhaustive(TinySystem(false), options);
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(report.Passed());  // no false violations from truncation
  EXPECT_EQ(report.states_explored, 50u);
}

TEST(Exhaustive, UnsupportedSystemReportsGracefully) {
  // A system without FullState(): the checker refuses rather than guessing.
  class NoState : public TinySystem {
   public:
    NoState() : TinySystem(false) {}
    std::unique_ptr<SharedSystem> Clone() const override {
      return std::make_unique<NoState>(*this);
    }
    std::optional<std::vector<Word>> FullState() const override { return std::nullopt; }
  };
  ExhaustiveReport report = CheckSeparabilityExhaustive(NoState());
  EXPECT_FALSE(report.Passed());
  EXPECT_EQ(report.states_explored, 0u);
}

TEST(Exhaustive, DeterministicAcrossRuns) {
  ExhaustiveReport a = CheckSeparabilityExhaustive(TinySystem(false));
  ExhaustiveReport b = CheckSeparabilityExhaustive(TinySystem(false));
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.pairs_checked, b.pairs_checked);
}

// Every observable field of the report, compared exactly. The parallel
// checker promises a report BYTE-IDENTICAL to the serial one; any drift in
// counters, per-condition stats or violation ordering is a bug.
void ExpectIdenticalReports(const ExhaustiveReport& serial, const ExhaustiveReport& parallel) {
  EXPECT_EQ(serial.states_explored, parallel.states_explored);
  EXPECT_EQ(serial.transitions, parallel.transitions);
  EXPECT_EQ(serial.pairs_checked, parallel.pairs_checked);
  EXPECT_EQ(serial.complete, parallel.complete);
  for (std::size_t c = 0; c < serial.conditions.size(); ++c) {
    EXPECT_EQ(serial.conditions[c].checks, parallel.conditions[c].checks) << "C" << c;
    EXPECT_EQ(serial.conditions[c].violations, parallel.conditions[c].violations) << "C" << c;
  }
  ASSERT_EQ(serial.violations.size(), parallel.violations.size());
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    EXPECT_EQ(serial.violations[i].condition, parallel.violations[i].condition) << i;
    EXPECT_EQ(serial.violations[i].colour, parallel.violations[i].colour) << i;
    EXPECT_EQ(serial.violations[i].step, parallel.violations[i].step) << i;
    EXPECT_EQ(serial.violations[i].description, parallel.violations[i].description) << i;
  }
  // The state-store diagnostics are deterministic too: the merged store and
  // the per-task restore counts are independent of worker scheduling.
  EXPECT_EQ(serial.peak_state_bytes, parallel.peak_state_bytes);
  EXPECT_EQ(serial.restore_count, parallel.restore_count);
  EXPECT_EQ(serial.Summary(), parallel.Summary());
}

TEST(Exhaustive, ParallelReportMatchesSerialOnSecureSystem) {
  ExhaustiveOptions serial_opts;
  serial_opts.threads = 1;
  ExhaustiveOptions parallel_opts;
  parallel_opts.threads = 4;
  ExpectIdenticalReports(CheckSeparabilityExhaustive(TinySystem(false), serial_opts),
                         CheckSeparabilityExhaustive(TinySystem(false), parallel_opts));
}

TEST(Exhaustive, ParallelReportMatchesSerialOnLeakySystem) {
  // The leaky system exercises the hard part of determinism: violations must
  // appear in the same order and be cut off at max_violations at the same
  // point regardless of which worker found them first.
  ExhaustiveOptions serial_opts;
  serial_opts.threads = 1;
  ExhaustiveOptions parallel_opts;
  parallel_opts.threads = 4;
  ExhaustiveReport serial = CheckSeparabilityExhaustive(TinySystem(true), serial_opts);
  ExhaustiveReport parallel = CheckSeparabilityExhaustive(TinySystem(true), parallel_opts);
  ASSERT_FALSE(serial.Passed());
  ExpectIdenticalReports(serial, parallel);
}

TEST(Exhaustive, ParallelReportMatchesSerialUnderStateBudget) {
  // Truncation order matters too: the overflow flag and the exact set of
  // interned states depend on BFS order, which must not vary with threads.
  ExhaustiveOptions serial_opts;
  serial_opts.threads = 1;
  serial_opts.max_states = 50;
  ExhaustiveOptions parallel_opts = serial_opts;
  parallel_opts.threads = 4;
  ExhaustiveReport serial = CheckSeparabilityExhaustive(TinySystem(false), serial_opts);
  ExhaustiveReport parallel = CheckSeparabilityExhaustive(TinySystem(false), parallel_opts);
  EXPECT_FALSE(serial.complete);
  ExpectIdenticalReports(serial, parallel);
}

TEST(Exhaustive, TruncatedRunStoreHoldsOnlyAdmittedStates) {
  // The last chunk of a truncated run interns successors the merge never
  // admits; the store is rebuilt from the admitted states alone. Golden
  // captured from the work-stealing checker, whose store also held exactly
  // the admitted states. The budget is large enough that the unadmitted
  // successors would grow some shard's hash index (at 50 states they fit
  // in the reserved capacity and the footprint cannot tell).
  for (int threads : {1, 4}) {
    ExhaustiveOptions options;
    options.threads = threads;
    options.max_states = 2500;
    const ExhaustiveReport report = CheckSeparabilityExhaustive(TinySystem(false), options);
    EXPECT_EQ(report.Summary(),
              "2500 states, 14354 transitions, 155468 pairs, partial: C1 0/39986 C2 0/2051 "
              "C3 0/466404 C4 0/12303 C5 0/155468 C6 0/39986 => SEPARABLE");
    EXPECT_EQ(report.peak_state_bytes, 1287168u) << "threads=" << threads;
  }
}

TEST(Exhaustive, PairPhaseRestoresAFixedNumberPerState) {
  // A complete run restores each state once per successor (the operation,
  // each input into each unit, each unit step).
  // The pair phase then restores each state 1 + u_c × (inputs + 1) times
  // per colour c, where u_c counts colour c's units, and never per pair.
  const TinySystem system(false);
  for (int threads : {1, 4}) {
    ExhaustiveOptions options;
    options.threads = threads;
    const ExhaustiveReport report = CheckSeparabilityExhaustive(system, options);
    ASSERT_TRUE(report.complete);
    const std::uint64_t n = report.states_explored;
    const std::uint64_t units = static_cast<std::uint64_t>(system.UnitCount());
    const std::uint64_t inputs = static_cast<std::uint64_t>(options.inputs_per_unit);
    const std::uint64_t exploration = n * (1 + units * inputs + units);
    std::uint64_t pair_phase = 0;
    for (int c = 0; c < system.ColourCount(); ++c) {
      std::uint64_t units_of_colour = 0;
      for (int unit = 0; unit < system.UnitCount(); ++unit) {
        units_of_colour += system.UnitColour(unit) == c ? 1 : 0;
      }
      pair_phase += n * (1 + units_of_colour * (inputs + 1));
    }
    EXPECT_EQ(report.restore_count, exploration + pair_phase) << "threads=" << threads;
  }
}

TEST(Exhaustive, ZeroThreadsMeansHardwareConcurrency) {
  ExhaustiveOptions opts;
  opts.threads = 0;  // all hardware threads
  ExhaustiveReport report = CheckSeparabilityExhaustive(TinySystem(false), opts);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.Passed());
}

}  // namespace
}  // namespace sep
