// Helpers shared by the two kernelized-machine workloads.
#ifndef PERFBENCH_SRC_LANES_H_
#define PERFBENCH_SRC_LANES_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/runner.h"
#include "src/base/hash.h"
#include "src/core/kernel_system.h"
#include "src/sm11asm/assembler.h"

namespace perfbench {

// A device as it is handed to SystemBuilder::AddDevice: decorated on the
// probed lane, bare on the plain one.
inline std::unique_ptr<sep::Device> Attach(std::unique_ptr<sep::Device> device, Probes* probes) {
  if (probes == nullptr) {
    return device;
  }
  return std::make_unique<DeviceProbe>(std::move(device), probes->device);
}

// Assembles the guests once more on the probed lane, inside sm11asm spans,
// so the assembler's share of set-up is attributed (SystemBuilder assembles
// internally, out of reach of a timer).
inline void AttributeAssembly(const std::vector<std::string>& sources, Probes* probes) {
  if (probes == nullptr) {
    return;
  }
  for (const std::string& source : sources) {
    ScopedSpan span(&probes->spans, "sm11asm.assemble");
    sep::Result<sep::AssembledProgram> program = sep::Assemble(source);
    if (program.ok()) {
      probes->sums["sm11asm.words"] += static_cast<double>(program->words.size());
    }
  }
}

// One kernelized system; on the probed lane the kernel is reached through a
// ClientProxy installed with Machine::set_client.
class MachineLane {
 public:
  void Adopt(std::unique_ptr<sep::KernelizedSystem> system, Probes* probes) {
    system_ = std::move(system);
    if (probes != nullptr) {
      proxy_ = std::make_unique<ClientProxy>(system_->kernel(), probes->kernel);
      system_->machine().set_client(proxy_.get());
    }
  }

  sep::KernelizedSystem& system() { return *system_; }

  std::size_t Run(std::size_t steps, Probes* probes) {
    ScopedSpan span(probes ? &probes->spans : nullptr, "machine.run");
    const std::size_t done = system_->Run(steps);
    if (probes != nullptr) {
      probes->sums["machine.steps"] += static_cast<double>(done);
    }
    return done;
  }

  // Simulated state that must be identical with and without the probes:
  // kernel counters, CPU registers and all of physical memory. Device state
  // is left out (a decorated device snapshots differently); what the
  // devices emit is compared by each workload's oracle instead.
  std::vector<std::uint64_t> Sim() const {
    const sep::Machine& m = system_->machine();
    const sep::SeparationKernel& k = system_->kernel();
    sep::Hasher state;
    m.cpu().AppendHash(state);
    for (sep::PhysAddr a = 0; a < m.memory().size(); ++a) {
      state.Mix(m.memory().Read(a));
    }
    return {m.tick(),     k.KernelCallCount(),   k.SwapCount(),
            k.FaultCount(), k.IrqForwardCount(), state.digest()};
  }

  // On the probed lane, the proxy's per-code trap counts must add up to the
  // kernel's own count of kernel calls.
  void CheckTrapAccounting(const Probes* probes, Checks& checks) const {
    if (probes == nullptr) {
      return;
    }
    std::uint64_t calls = 0;
    for (int code = 0; code < kTrapSlotFault; ++code) {
      calls += probes->kernel.traps[static_cast<std::size_t>(code)].calls;
    }
    checks.Expect(calls == system_->kernel().KernelCallCount(),
                  "proxy trap counts differ from the kernel's call counter");
  }

 private:
  std::unique_ptr<sep::KernelizedSystem> system_;
  std::unique_ptr<ClientProxy> proxy_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LANES_H_
