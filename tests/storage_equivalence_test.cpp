// Storage equivalence: the compact-store exhaustive checker (arena-interned
// serialized states + RestoreFullState reconstruction) must produce reports
// BYTE-IDENTICAL to the original clone-retaining implementation. The golden
// renderings below were captured from that implementation before the store
// was introduced; every counter, per-condition stat, violation order and
// Summary() byte is pinned, serial and parallel.
//
// Also here: FullState ∘ RestoreFullState round-trip properties, since the
// equivalence above is exactly as trustworthy as that inverse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>

#include "src/base/thread_pool.h"
#include "src/core/exhaustive.h"
#include "src/core/kernel_system.h"
#include "src/model/toy_systems.h"

namespace sep {
namespace {

constexpr char kGoodA[] = R"(
START:  MOV #3, R0
        ADD #2, R0
        TRAP 0
        INC R1
        TRAP 7
)";

constexpr char kGoodB[] = R"(
START:  CLR R2
        INC R2
        TRAP 0
        ADD R0, R2
        TRAP 7
)";

std::unique_ptr<KernelizedSystem> BuildHalting(const KernelFaults& faults = {}) {
  SystemBuilder builder;
  builder.WithMemoryWords(1u << 12);
  EXPECT_TRUE(builder.AddRegime("red", 64, kGoodA).ok());
  EXPECT_TRUE(builder.AddRegime("black", 64, kGoodB).ok());
  builder.WithFaults(faults);
  auto system = builder.Build();
  EXPECT_TRUE(system.ok()) << system.error();
  return std::move(system.value());
}

// Renders every observable field of the report; golden comparison of this
// string pins the whole report, not just the verdict.
std::string Render(const ExhaustiveReport& r) {
  std::string out = r.Summary();
  out += "\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "transitions=%zu pairs=%zu\n", r.transitions, r.pairs_checked);
  out += buf;
  for (const Violation& v : r.violations) {
    std::snprintf(buf, sizeof buf, "V c%d colour%d step%llu ", v.condition, v.colour,
                  static_cast<unsigned long long>(v.step));
    out += buf;
    out += v.description;
    out += "\n";
  }
  return out;
}

std::string Check(const SharedSystem& system, int threads, ExhaustiveOptions options = {}) {
  options.threads = threads;
  return Render(CheckSeparabilityExhaustive(system, options));
}

constexpr char kGoldenGood[] =
    "11 states, 11 transitions, 18 pairs, COMPLETE: "
    "C1 0/0 C2 0/12 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE\n"
    "transitions=11 pairs=18\n";

constexpr char kGoldenSkipRestore[] =
    "11 states, 11 transitions, 10 pairs, COMPLETE: "
    "C1 0/0 C2 3/12 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => VIOLATIONS\n"
    "transitions=11 pairs=10\n"
    "V c2 colour1 step0 operation of colour 0 changed Φ of colour 1\n"
    "V c2 colour0 step0 operation of colour 1 changed Φ of colour 0\n"
    "V c2 colour1 step0 operation of colour 0 changed Φ of colour 1\n";

constexpr char kGoldenTinySecure[] =
    "3528 states, 24696 transitions, 217272 pairs, COMPLETE: "
    "C1 0/50802 C2 0/3528 C3 0/651816 C4 0/21168 C5 0/217272 C6 0/50802 => SEPARABLE\n"
    "transitions=24696 pairs=217272\n";

const std::string kGoldenTinyLeaky = [] {
  std::string golden =
      "2646 states, 18522 transitions, 70 pairs, COMPLETE: "
      "C1 16/36 C2 0/2646 C3 0/210 C4 0/15876 C5 0/70 C6 0/36 => VIOLATIONS\n"
      "transitions=18522 pairs=70\n";
  for (int i = 0; i < 16; ++i) {
    golden +=
        "V c1 colour0 step0 operation effect on colour 0 differs across Φ-equal states\n";
  }
  return golden;
}();

TEST(StorageEquivalence, KernelizedGoodMatchesGolden) {
  auto system = BuildHalting();
  EXPECT_EQ(Check(*system, 1), kGoldenGood);
  EXPECT_EQ(Check(*system, 4), kGoldenGood);
}

TEST(StorageEquivalence, KernelizedLeakConditionCodesMatchesGolden) {
  // This fault is not exposed by the halting config (neither program's Φ
  // depends on inherited condition codes), so its golden equals the good
  // one — what is pinned is that the checker still says exactly that.
  KernelFaults faults;
  faults.leak_condition_codes = true;
  auto system = BuildHalting(faults);
  EXPECT_EQ(Check(*system, 1), kGoldenGood);
  EXPECT_EQ(Check(*system, 4), kGoldenGood);
}

TEST(StorageEquivalence, KernelizedSkipRestoreMatchesGolden) {
  // A real defect: violation count, ORDER and texts are pinned, serial and
  // parallel.
  KernelFaults faults;
  faults.skip_register_restore = true;
  auto system = BuildHalting(faults);
  EXPECT_EQ(Check(*system, 1), kGoldenSkipRestore);
  EXPECT_EQ(Check(*system, 4), kGoldenSkipRestore);
}

TEST(StorageEquivalence, TinySystemsMatchGolden) {
  EXPECT_EQ(Check(TinyTwoUserSystem(false), 1), kGoldenTinySecure);
  EXPECT_EQ(Check(TinyTwoUserSystem(true), 1), kGoldenTinyLeaky);
}

TEST(StorageEquivalence, SchedulePerturbationKeepsReportsByteIdentical) {
  // Sweeping the thread count changes which worker expands which successor
  // and in what order successors are interned. The serial merge must erase
  // all of it: every rendering equals the serial golden byte for byte.
  auto good = BuildHalting();
  KernelFaults faults;
  faults.skip_register_restore = true;
  auto leaky = BuildHalting(faults);

  int hw = ThreadPool::HardwareThreads();
  if (hw < 2) {
    hw = 4;  // oversubscribe on 1-core hosts: workers still interleave
  }
  for (int threads : {1, 2, hw}) {
    EXPECT_EQ(Check(*good, threads), kGoldenGood) << "threads=" << threads;
    EXPECT_EQ(Check(*leaky, threads), kGoldenSkipRestore) << "threads=" << threads;
  }
}

TEST(StorageEquivalence, SchedulePerturbationOnWiderStateSpace) {
  // The same on the tiny system's 3528-state space: wide enough that
  // parallel workers genuinely race on shard inserts, so a
  // schedule-dependence bug cannot hide behind an 11-state chain.
  EXPECT_EQ(Check(TinyTwoUserSystem(false), 4), kGoldenTinySecure);
}

// --- pair-phase paths ------------------------------------------------------
//
// Goldens captured from the checker that re-ran both states of every pair,
// before pairs were compared by per-state effect signatures: violations of
// conditions 3, 5 and 6, a max_violations cut inside the pair phase and a
// max_pairs_per_group cap.

// A two-colour system with one word, `hidden_`, outside every Φ^c: each
// operation advances it mod 3 (so it is not a function of COLOUR). Each
// variant lets one effect read it, so that effect differs across Φ-equal
// states: NEXTOP (condition 6), the effect of an input (condition 3) or a
// unit's output (condition 5). Nothing else leaks, so the exploration-phase
// conditions 2 and 4 pass and every violation comes from the pair phase.
class HiddenWordSystem : public SharedSystem {
 public:
  enum class Leak { kNextOp, kInput, kOutput };
  explicit HiddenWordSystem(Leak leak) : leak_(leak) {}

  std::unique_ptr<SharedSystem> Clone() const override {
    return std::make_unique<HiddenWordSystem>(*this);
  }
  int ColourCount() const override { return 2; }
  std::string ColourName(int colour) const override { return colour == 0 ? "red" : "black"; }
  int Colour() const override { return turn_; }

  OperationId NextOperation() const override {
    OperationId op{OperationId::Kind::kInstruction, {counter_[turn_]}};
    if (leak_ == Leak::kNextOp) {
      op.detail.push_back(hidden_);
    }
    return op;
  }

  void ExecuteOperation() override {
    counter_[turn_] = static_cast<Word>((counter_[turn_] + 1) & 1);
    hidden_ = static_cast<Word>((hidden_ + 1) % 3);
    turn_ = 1 - turn_;
  }

  AbstractState Abstract(int colour) const override {
    return AbstractState{{counter_[colour], cell_[colour], inbox_[colour]}};
  }

  int UnitCount() const override { return 2; }
  int UnitColour(int unit) const override { return unit; }
  std::string UnitName(int unit) const override { return "cell" + std::to_string(unit); }

  void StepUnit(int unit) override {
    if (inbox_[unit] != 0) {
      out_[unit] = cell_[unit];
      has_out_[unit] = 1;
      cell_[unit] = inbox_[unit];
      inbox_[unit] = 0;
    }
  }

  void InjectInput(int unit, Word value) override {
    const Word bias = leak_ == Leak::kInput ? hidden_ : 0;
    inbox_[unit] = static_cast<Word>((value + bias) & 3);
  }

  std::vector<Word> DrainOutput(int unit) override {
    if (has_out_[unit] == 0) {
      return {};
    }
    has_out_[unit] = 0;
    const Word bias = leak_ == Leak::kOutput ? hidden_ : 0;
    return {static_cast<Word>(out_[unit] ^ bias)};
  }

  void PerturbOthers(int colour, Rng& rng) override {
    hidden_ = static_cast<Word>(rng.NextBelow(3));
    counter_[1 - colour] = static_cast<Word>(rng.Next() & 1);
  }

  std::optional<std::vector<Word>> FullState() const override {
    return std::vector<Word>{static_cast<Word>(turn_), hidden_, counter_[0], counter_[1],
                             cell_[0],  cell_[1],  inbox_[0],  inbox_[1],
                             out_[0],   out_[1],   has_out_[0], has_out_[1]};
  }

  bool RestoreFullState(std::span<const Word> state) override {
    if (state.size() != 12) {
      return false;
    }
    turn_ = state[0];
    hidden_ = state[1];
    std::copy(state.begin() + 2, state.begin() + 4, counter_);
    std::copy(state.begin() + 4, state.begin() + 6, cell_);
    std::copy(state.begin() + 6, state.begin() + 8, inbox_);
    std::copy(state.begin() + 8, state.begin() + 10, out_);
    std::copy(state.begin() + 10, state.begin() + 12, has_out_);
    return true;
  }

 private:
  Leak leak_;
  int turn_ = 0;
  Word hidden_ = 0;
  Word counter_[2] = {0, 0};
  Word cell_[2] = {0, 0};
  Word inbox_[2] = {0, 0};
  Word out_[2] = {0, 0};
  Word has_out_[2] = {0, 0};
};

// Repeats one violation line `count` times.
std::string Repeated(const std::string& line, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    out += line;
  }
  return out;
}

const std::string kGoldenHiddenNextOp = [] {
  std::string golden =
      "5292 states, 37044 transitions, 60 pairs, COMPLETE: "
      "C1 0/36 C2 0/5292 C3 0/180 C4 0/31752 C5 0/60 C6 16/36 => VIOLATIONS\n"
      "transitions=37044 pairs=60\n";
  // The hidden word of the second state of each failing pair.
  for (const char* hidden : {"0001", "0001", "0001", "0001", "0001", "0001", "0001", "0001",
                             "0001", "0002", "0001", "0001", "0001", "0001", "0002", "0002"}) {
    golden += std::string("V c6 colour0 step0 NEXTOP differs for Φ-equal states of colour 0: "
                          "insn 0000 0000 vs insn 0000 ") +
              hidden + "\n";
  }
  return golden;
}();

const std::string kGoldenHiddenInput =
    "32448 states, 227136 transitions, 44 pairs, COMPLETE: "
    "C1 0/27 C2 0/32448 C3 16/132 C4 0/194688 C5 0/44 C6 0/27 => VIOLATIONS\n"
    "transitions=227136 pairs=44\n" +
    Repeated("V c3 colour0 step0 input effect on colour 0 differs across Φ-equal states\n", 16);

const std::string kGoldenHiddenOutput =
    "5292 states, 37044 transitions, 4145 pairs, COMPLETE: "
    "C1 0/1413 C2 0/5292 C3 0/12435 C4 0/31752 C5 16/4145 C6 0/1413 => VIOLATIONS\n"
    "transitions=37044 pairs=4145\n" +
    Repeated("V c5 colour0 step0 output of colour 0 differs across Φ-equal states\n", 16);

// max_violations = 3 on the input leak: the pair that reaches the cut fails
// both of its input checks, so the pair phase stops with 4 violations
// counted and 3 listed.
const std::string kGoldenHiddenInputCut =
    "32448 states, 227136 transitions, 18 pairs, COMPLETE: "
    "C1 0/14 C2 0/32448 C3 4/54 C4 0/194688 C5 0/18 C6 0/14 => VIOLATIONS\n"
    "transitions=227136 pairs=18\n" +
    Repeated("V c3 colour0 step0 input effect on colour 0 differs across Φ-equal states\n", 3);

constexpr char kGoldenTinyCapped[] =
    "3528 states, 24696 transitions, 216 pairs, COMPLETE: "
    "C1 0/27 C2 0/3528 C3 0/648 C4 0/21168 C5 0/216 C6 0/27 => SEPARABLE\n"
    "transitions=24696 pairs=216\n";

TEST(StorageEquivalence, HiddenNextOpViolatesConditionSixMatchesGolden) {
  const HiddenWordSystem system(HiddenWordSystem::Leak::kNextOp);
  EXPECT_EQ(Check(system, 1), kGoldenHiddenNextOp);
  EXPECT_EQ(Check(system, 4), kGoldenHiddenNextOp);
}

TEST(StorageEquivalence, HiddenInputViolatesConditionThreeMatchesGolden) {
  const HiddenWordSystem system(HiddenWordSystem::Leak::kInput);
  EXPECT_EQ(Check(system, 1), kGoldenHiddenInput);
  EXPECT_EQ(Check(system, 4), kGoldenHiddenInput);
}

TEST(StorageEquivalence, HiddenOutputViolatesConditionFiveMatchesGolden) {
  const HiddenWordSystem system(HiddenWordSystem::Leak::kOutput);
  EXPECT_EQ(Check(system, 1), kGoldenHiddenOutput);
  EXPECT_EQ(Check(system, 4), kGoldenHiddenOutput);
}

TEST(StorageEquivalence, MaxViolationsCutInsidePairPhaseMatchesGolden) {
  const HiddenWordSystem system(HiddenWordSystem::Leak::kInput);
  ExhaustiveOptions options;
  options.max_violations = 3;
  EXPECT_EQ(Check(system, 1, options), kGoldenHiddenInputCut);
  EXPECT_EQ(Check(system, 4, options), kGoldenHiddenInputCut);
}

TEST(StorageEquivalence, MaxPairsPerGroupMatchesGolden) {
  ExhaustiveOptions options;
  options.max_pairs_per_group = 3;
  EXPECT_EQ(Check(TinyTwoUserSystem(false), 1, options), kGoldenTinyCapped);
  EXPECT_EQ(Check(TinyTwoUserSystem(false), 4, options), kGoldenTinyCapped);
}

TEST(StorageEquivalence, StoreDiagnosticsAreDeterministic) {
  // The new report fields are as deterministic as the rest: thread count
  // must not show through restore counts or the store's footprint.
  ExhaustiveOptions serial;
  serial.threads = 1;
  ExhaustiveOptions parallel;
  parallel.threads = 4;
  auto system = BuildHalting();
  const ExhaustiveReport a = CheckSeparabilityExhaustive(*system, serial);
  const ExhaustiveReport b = CheckSeparabilityExhaustive(*system, parallel);
  EXPECT_GT(a.peak_state_bytes, 0u);
  EXPECT_GT(a.restore_count, 0u);
  EXPECT_EQ(a.peak_state_bytes, b.peak_state_bytes);
  EXPECT_EQ(a.restore_count, b.restore_count);
}

// --- FullState ∘ RestoreFullState = id -----------------------------------

// Serializes, restores into `target`, and verifies both serializations and
// subsequent behaviour agree.
void ExpectRoundTrip(const SharedSystem& source, SharedSystem& target) {
  std::vector<Word> snapshot;
  source.AppendFullState(snapshot);
  ASSERT_TRUE(target.RestoreFullState(snapshot));
  std::vector<Word> again;
  target.AppendFullState(again);
  EXPECT_EQ(snapshot, again);
}

TEST(RestoreRoundTrip, TinySystemAcrossItsReachableStates) {
  TinyTwoUserSystem walker(false);
  TinyTwoUserSystem scratch(false);
  Rng rng(7);
  for (int step = 0; step < 200; ++step) {
    ExpectRoundTrip(walker, scratch);
    // Restored and original must select and execute identically.
    EXPECT_EQ(walker.Colour(), scratch.Colour());
    EXPECT_TRUE(walker.NextOperation() == scratch.NextOperation());
    switch (rng.NextBelow(3)) {
      case 0:
        walker.ExecuteOperation();
        break;
      case 1:
        walker.InjectInput(static_cast<int>(rng.NextBelow(2)),
                           static_cast<Word>(rng.NextBelow(3)));
        break;
      default: {
        const int unit = static_cast<int>(rng.NextBelow(2));
        walker.StepUnit(unit);
        (void)walker.DrainOutput(unit);
        break;
      }
    }
  }
}

TEST(RestoreRoundTrip, KernelizedSystemAcrossItsReachableStates) {
  auto walker = BuildHalting();
  auto scratch = walker->Clone();
  for (int step = 0; step < 120; ++step) {
    ExpectRoundTrip(*walker, *scratch);
    EXPECT_EQ(walker->Colour(), scratch->Colour());
    EXPECT_TRUE(walker->NextOperation() == scratch->NextOperation());
    walker->ExecuteOperation();
  }
}

TEST(RestoreRoundTrip, RestoredKernelizedSystemBehavesIdentically) {
  // Behavioural lockstep: restore a mid-execution state into a FRESH build
  // of the same configuration and run both to completion, comparing full
  // serializations at every step.
  auto original = BuildHalting();
  for (int i = 0; i < 7; ++i) {
    original->ExecuteOperation();
  }
  auto restored = BuildHalting();
  std::vector<Word> mid;
  original->AppendFullState(mid);
  ASSERT_TRUE(restored->RestoreFullState(mid));

  for (int i = 0; i < 50; ++i) {
    std::vector<Word> a;
    std::vector<Word> b;
    original->AppendFullState(a);
    restored->AppendFullState(b);
    ASSERT_EQ(a, b) << "diverged at step " << i;
    original->ExecuteOperation();
    restored->ExecuteOperation();
  }
}

TEST(RestoreRoundTrip, MalformedSnapshotsAreRejected) {
  auto system = BuildHalting();
  std::vector<Word> snapshot;
  system->AppendFullState(snapshot);

  auto victim = BuildHalting();
  std::vector<Word> truncated(snapshot.begin(), snapshot.begin() + 10);
  EXPECT_FALSE(victim->RestoreFullState(truncated));
  std::vector<Word> extended = snapshot;
  extended.push_back(0);
  EXPECT_FALSE(victim->RestoreFullState(extended));

  TinyTwoUserSystem tiny(false);
  EXPECT_FALSE(tiny.RestoreFullState(truncated));
}

}  // namespace
}  // namespace sep
