// verify: the verifier's pipeline, in two timed phases per round.
//
//   1. Certify: sepcheck::AnalyzeSystem over every Catalog() entry, repeated
//      kCertifyPasses times, with each entry's findings rendered as JSON
//      (FormatFindings) and the whole obligation ledger rendered once per
//      pass (RenderObligationsJson). Checks: each verdict equals the entry's
//      expect_certified (and its expected discharge), and every pass renders
//      a ledger byte-identical to the first.
//   2. Prove: CheckSeparabilityExhaustive with `threads` workers over one
//      seeded cycle-config system (two regimes looping over seeded register
//      masks; the kernel's counters make the space unbounded, so the state
//      budget fixes the work), every certified catalogue system built with
//      BuildEntrySystem under a small state budget, and one seeded
//      KernelFaults variant of a cycle config. Checks: no violation on the
//      cycle config; on a catalogue system a violation exactly when its
//      channels are uncut, it uses a shared ring, or its probe ground truth
//      says it leaks (Rushby's Section 4: an uncut channel is a shared object
//      and fails the proof); and a violation on the KernelFaults variant.
//
// On the probed lane every proven system is wrapped in a SystemProbe, and
// the assembler's share of AnalyzeSystem is attributed by assembling the
// same sources separately.
#include <time.h>

#include <cstdio>
#include <string>

#include "perfbench/src/runner.h"
#include "src/analysis/finding.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/core/exhaustive.h"
#include "src/core/kernel_system.h"
#include "src/sepcheck/catalog.h"
#include "src/sepcheck/obligations.h"
#include "src/sm11asm/assembler.h"

namespace perfbench {
namespace {

constexpr int kCertifyPasses = 20;
constexpr std::size_t kCycleStates = 6144;
constexpr std::size_t kEntryStates = 200;
constexpr std::size_t kFaultStates = 4096;
constexpr int kCycleMaskBits = 9;  // the two regimes' cycle bits sum to this

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string CycleSource(int bits, int increment) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "START:  ADD #%d, R3\n        BIC #0x%04X, R3\n        TRAP 0\n        BR START\n",
                increment, (0xFFFF << bits) & 0xFFFF);
  return buf;
}

std::unique_ptr<sep::KernelizedSystem> BuildCycle(int red_bits, int black_bits, int red_inc,
                                                  int black_inc, const sep::KernelFaults& faults) {
  sep::SystemBuilder sb;
  sb.WithMemoryWords(1u << 12);
  bool ok = sb.AddRegime("red", 64, CycleSource(red_bits, red_inc)).ok();
  ok &= sb.AddRegime("black", 64, CycleSource(black_bits, black_inc)).ok();
  sb.WithFaults(faults);
  sep::Result<std::unique_ptr<sep::KernelizedSystem>> system = sb.Build();
  if (!ok || !system.ok()) {
    std::fprintf(stderr, "verify: cycle config did not build\n");
    std::exit(2);
  }
  return std::move(system.value());
}

struct ProofTarget {
  std::unique_ptr<sep::KernelizedSystem> system;
  std::size_t max_states = 0;
  bool expect_violation = false;
};

bool ExpectExhaustiveViolation(const sep::sepcheck::CatalogEntry& entry) {
  return !entry.spec.cut_channels || !entry.spec.shared_rings.empty() ||
         (entry.has_probe && entry.probe_expect_leak);
}

class VerifyWorkload : public Workload {
 public:
  VerifyWorkload(const Tamper& tamper, int threads) : tamper_(tamper), threads_(threads) {}

  void Setup(std::uint64_t seed, Probes*) override {
    sep::Rng rng(seed ^ 0x5EC5EC5EULL);
    const int red_bits = static_cast<int>(rng.NextInRange(3, kCycleMaskBits - 3));
    const int red_inc = static_cast<int>(2 * rng.NextBelow(8) + 1);
    const int black_inc = static_cast<int>(2 * rng.NextBelow(8) + 1);

    targets_.clear();
    targets_.push_back({BuildCycle(red_bits, kCycleMaskBits - red_bits, red_inc, black_inc, {}),
                        kCycleStates, false});
    for (const sep::sepcheck::CatalogEntry& entry : sep::sepcheck::Catalog()) {
      if (!entry.expect_certified) {
        continue;
      }
      sep::Result<std::unique_ptr<sep::KernelizedSystem>> system =
          sep::sepcheck::BuildEntrySystem(entry);
      if (!system.ok()) {
        std::fprintf(stderr, "verify: %s did not build: %s\n", entry.name.c_str(),
                     system.error().c_str());
        std::exit(2);
      }
      targets_.push_back(
          {std::move(system.value()), kEntryStates, ExpectExhaustiveViolation(entry)});
    }
    sep::KernelFaults faults;
    if (rng.NextBelow(2) == 0) {
      faults.skip_register_restore = true;
    } else {
      faults.leak_condition_codes = true;
    }
    targets_.push_back({BuildCycle(red_bits, kCycleMaskBits - red_bits, red_inc, black_inc, faults),
                        kFaultStates, !tamper_.verify_faults_separable});
  }

  UnitResult RunUnit(int, Probes* probes, Checks& checks) override {
    UnitResult r;
    sep::Hasher sim_hash;
    SpanLog* spans = probes ? &probes->spans : nullptr;

    // Phase 1: certify.
    {
      ScopedSpan phase(spans, "verify.certify");
      std::string& first = probes ? probed_ledger_ : plain_ledger_;
      for (int pass = 0; pass < kCertifyPasses; ++pass) {
        const std::string ledger = CertifyPass(probes, checks);
        if (first.empty()) {
          first = ledger;
        }
        checks.Expect(ledger == first, "verify: obligation ledger differs between passes");
        r.outputs += static_cast<double>(sep::sepcheck::Catalog().size());
        if (pass == 0) {
          sim_hash.MixBytes(ledger);
        }
      }
    }

    // Phase 2: prove.
    const std::int64_t t0 = NowNs();
    for (const ProofTarget& target : targets_) {
      sep::ExhaustiveOptions options;
      options.max_states = target.max_states;
      options.threads = threads_;
      sep::ExhaustiveReport report;
      if (probes == nullptr) {
        report = sep::CheckSeparabilityExhaustive(*target.system, options);
      } else {
        SystemProbe probed(target.system->Clone(), probes->checker);
        const double cpu0 = CpuSeconds();
        const std::int64_t w0 = NowNs();
        {
          ScopedSpan span(spans, "exhaustive.check");
          report = sep::CheckSeparabilityExhaustive(probed, options);
        }
        const double wall = static_cast<double>(NowNs() - w0) * 1e-9;
        auto& s = probes->sums;
        s["exhaustive.cpu_s"] += CpuSeconds() - cpu0;
        s["exhaustive.thread_wall_s"] += wall * threads_;
        s["exhaustive.states"] += static_cast<double>(report.states_explored);
        s["exhaustive.transitions"] += static_cast<double>(report.transitions);
        s["exhaustive.pairs_checked"] += static_cast<double>(report.pairs_checked);
        s["exhaustive.steal_count"] += static_cast<double>(report.steal_count);
        s["exhaustive.peak_state_bytes"] = std::max(
            s["exhaustive.peak_state_bytes"], static_cast<double>(report.peak_state_bytes));
      }
      checks.Expect(report.Passed() != target.expect_violation,
                    target.expect_violation
                        ? "verify: no violation found on a system expected to violate"
                        : "verify: violation found on a system expected to be separable");
      r.steps += static_cast<double>(report.states_explored);
      r.outputs += 1;
      sim_hash.Mix(report.states_explored)
          .Mix(report.transitions)
          .Mix(report.pairs_checked)
          .Mix(report.complete ? 1 : 0)
          .Mix(report.violations.size());
    }
    r.step_wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    r.sim = {sim_hash.digest()};
    return r;
  }

 private:
  // One certification pass over the catalogue; returns the rendered ledger.
  std::string CertifyPass(Probes* probes, Checks& checks) {
    SpanLog* spans = probes ? &probes->spans : nullptr;
    std::vector<sep::sepcheck::EntryObligations> ledgers;
    for (const sep::sepcheck::CatalogEntry& entry : sep::sepcheck::Catalog()) {
      double assemble_s = 0;
      if (probes != nullptr) {
        const std::int64_t a0 = NowNs();
        for (const sep::sepcheck::SystemSpec::Regime& regime : entry.spec.regimes) {
          ScopedSpan span(spans, "sm11asm.assemble");
          sep::Result<sep::AssembledProgram> program = sep::Assemble(regime.source);
          if (program.ok()) {
            probes->sums["sm11asm.words"] += static_cast<double>(program->words.size());
          }
        }
        assemble_s = static_cast<double>(NowNs() - a0) * 1e-9;
      }
      const std::int64_t t0 = NowNs();
      const int span = spans ? spans->Begin("sepcheck.analyze") : -1;
      sep::Result<sep::sepcheck::SystemAnalysis> analysis = sep::sepcheck::AnalyzeSystem(entry.spec);
      if (probes != nullptr) {
        spans->End(span);
        probes->sums["sepcheck.analyze_s"] +=
            std::max(0.0, static_cast<double>(NowNs() - t0) * 1e-9 - assemble_s);
      }
      if (!analysis.ok()) {
        checks.Expect(false, "verify: a catalogue entry failed to assemble");
        continue;
      }
      int discharged = 0;
      for (const sep::Finding& f : analysis->findings) {
        discharged += f.severity == sep::FindingSeverity::kDischarged ? 1 : 0;
      }
      checks.Expect(analysis->certified == entry.expect_certified &&
                        (!entry.expect_discharged || discharged > 0),
                    "verify: a certification verdict differs from the catalogue's expectation");
      std::string findings;
      {
        ScopedSpan span(spans, "analysis.format_findings");
        findings = sep::FormatFindings(analysis->findings, /*json=*/true);
      }
      if (probes != nullptr) {
        probes->sums["sepcheck.obligations"] += static_cast<double>(analysis->obligations.size());
        probes->sums["sepcheck.findings"] += static_cast<double>(analysis->findings.size());
        probes->sums["analysis.render_bytes"] += static_cast<double>(findings.size());
        probes->sums["sepcheck.systems"] += 1;
      }
      ledgers.push_back({entry.name, analysis->certified, std::move(analysis->obligations)});
    }
    std::string ledger;
    {
      ScopedSpan span(spans, "analysis.render_obligations");
      ledger = sep::sepcheck::RenderObligationsJson(ledgers);
    }
    if (probes != nullptr) {
      probes->sums["analysis.render_bytes"] += static_cast<double>(ledger.size());
    }
    return ledger;
  }

  Tamper tamper_;
  int threads_;
  std::vector<ProofTarget> targets_;
  std::string plain_ledger_;
  std::string probed_ledger_;
};

}  // namespace

std::unique_ptr<Workload> MakeVerifyWorkload(const Tamper& tamper, int threads) {
  return std::make_unique<VerifyWorkload>(tamper, threads);
}

}  // namespace perfbench
