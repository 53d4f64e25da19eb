// Layer probes for the end-to-end benchmark.
//
// Everything here reaches the system from OUTSIDE, through public
// interfaces only, so the benchmark measures the program as shipped:
//
//   * ClientProxy  - a MachineClient installed with Machine::set_client that
//                    forwards every call to the SeparationKernel and times
//                    kernel entry (traps per code, interrupts, the per-step
//                    OnBeforeExecute hook);
//   * DeviceProbe  - a Device decorator (in the style of FaultyDevice) that
//                    forwards to the real device and counts/time its
//                    activity slots and register accesses;
//   * SystemProbe  - a SharedSystem decorator whose Clone returns a
//                    decorated clone, so the exhaustive checker's restore,
//                    serialize, execute, abstract and clone calls are
//                    attributed from every worker thread;
//   * SpanLog      - coarse spans (name, start, end, parent) recorded around
//                    calls into each layer on the main thread, kept in memory
//                    and written out when the run ends.
//
// Per-step hooks (OnBeforeExecute, Device::Step) are timed 1-in-kSampleEvery
// and scaled; their counts are exact.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/machine/device.h"
#include "src/machine/machine.h"
#include "src/model/shared_system.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-step hooks are timed once every kSampleEvery calls.
inline constexpr std::uint64_t kSampleEvery = 16;

// Cost of one timed region that contains nothing (two NowNs() calls),
// measured once per process. It is comparable to a device step, so every
// timed call has it subtracted, and the callers' own spans are corrected for
// the time the timers themselves took.
std::int64_t TimerOverheadNs();

// Exact call count plus timed calls; Seconds() scales the sampled time up to
// all calls.
struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t timed_calls = 0;
  std::int64_t timed_ns = 0;  // net of TimerOverheadNs() per timed call

  void AddTimed(std::int64_t ns) {
    ++calls;
    ++timed_calls;
    timed_ns += ns - TimerOverheadNs();
  }
  double Seconds() const {
    if (timed_calls == 0 || timed_ns <= 0) {
      return 0.0;
    }
    return static_cast<double>(timed_ns) * 1e-9 * static_cast<double>(calls) /
           static_cast<double>(timed_calls);
  }
  // Wall time the timers themselves added to the enclosing span.
  double TimerSeconds() const {
    return static_cast<double>(timed_calls) * static_cast<double>(TimerOverheadNs()) * 1e-9;
  }
};

// Kernel-call codes 0..13 (kCallSwap..kCallRingStat) plus one slot for the
// non-TRAP kernel entries (illegal instruction, MMU fault).
inline constexpr int kTrapSlots = 15;
inline constexpr int kTrapSlotFault = 14;

struct KernelTally {
  Tally before_execute;
  Tally irq;
  std::array<Tally, kTrapSlots> traps{};
};

class ClientProxy : public sep::MachineClient {
 public:
  ClientProxy(sep::MachineClient& inner, KernelTally& tally) : inner_(inner), tally_(tally) {}

  void OnTrap(const sep::TrapInfo& info) override;
  void OnInterrupt(int device_index) override;
  void OnHalt() override { inner_.OnHalt(); }
  bool OnBeforeExecute() override;

 private:
  sep::MachineClient& inner_;
  KernelTally& tally_;
};

struct DeviceTally {
  Tally steps;
  std::uint64_t register_accesses = 0;
};

// Owns the wrapped device. The environment queues of the wrapper are the
// ones the machine and the host see; the inner device's queues are shuttled
// through on every forwarded call, and its interrupt line is moved onto the
// wrapper's, exactly as FaultyDevice does.
class DeviceProbe : public sep::Device {
 public:
  DeviceProbe(std::unique_ptr<sep::Device> inner, DeviceTally& tally);

  std::unique_ptr<sep::Device> Clone() const override;
  sep::Word ReadRegister(int offset) override;
  void WriteRegister(int offset, sep::Word value) override;
  void Step() override;
  std::vector<sep::Word> SnapshotState() const override;

 private:
  void SyncDown();
  void SyncUp();

  std::unique_ptr<sep::Device> inner_;
  DeviceTally& tally_;
};

// Checker-side operations the SystemProbe attributes.
enum CheckerOp : int {
  kOpRestore = 0,
  kOpSerialize,
  kOpExecute,
  kOpAbstract,
  kOpClone,
  kCheckerOps
};

struct CheckerCounts {
  std::array<std::uint64_t, kCheckerOps> calls{};
  std::array<std::int64_t, kCheckerOps> ns{};

  void Merge(const CheckerCounts& other);
};

// Per-thread accumulation for the checker's worker threads: each thread
// appends to its own block (no shared cache lines on the hot path); Sum()
// is called only after the checker has joined its workers.
class CheckerTally {
 public:
  CheckerTally();
  CheckerTally(const CheckerTally&) = delete;
  CheckerTally& operator=(const CheckerTally&) = delete;

  CheckerCounts& Local();
  CheckerCounts Sum() const;

 private:
  std::uint64_t id_;
  mutable std::mutex mutex_;
  std::deque<CheckerCounts> blocks_;  // guarded by mutex_; elements never move
};

class SystemProbe : public sep::SharedSystem {
 public:
  SystemProbe(std::unique_ptr<sep::SharedSystem> inner, CheckerTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  std::unique_ptr<sep::SharedSystem> Clone() const override;
  int ColourCount() const override { return inner_->ColourCount(); }
  std::string ColourName(int colour) const override { return inner_->ColourName(colour); }
  int Colour() const override { return inner_->Colour(); }
  sep::OperationId NextOperation() const override { return inner_->NextOperation(); }
  void ExecuteOperation() override;
  sep::AbstractState Abstract(int colour) const override;
  int UnitCount() const override { return inner_->UnitCount(); }
  int UnitColour(int unit) const override { return inner_->UnitColour(unit); }
  std::string UnitName(int unit) const override { return inner_->UnitName(unit); }
  void StepUnit(int unit) override;
  void InjectInput(int unit, sep::Word value) override { inner_->InjectInput(unit, value); }
  std::vector<sep::Word> DrainOutput(int unit) override { return inner_->DrainOutput(unit); }
  void PerturbOthers(int colour, sep::Rng& rng) override { inner_->PerturbOthers(colour, rng); }
  bool Finished() const override { return inner_->Finished(); }
  std::optional<std::vector<sep::Word>> FullState() const override;
  void AppendFullState(std::vector<sep::Word>& out) const override;
  bool RestoreFullState(std::span<const sep::Word> state) override;
  void AppendAbstract(int colour, std::vector<sep::Word>& out) const override;

 private:
  std::unique_ptr<sep::SharedSystem> inner_;
  CheckerTally& tally_;
};

// Coarse layer spans, main thread only.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  int Begin(const std::string& name);
  void End(int index);

  // Sum of the durations of every span with this name.
  double TotalSeconds(const std::string& name) const;

  // One JSON object per line; returns false if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing (the untraced mode).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), index_(log ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
