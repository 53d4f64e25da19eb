// The benchmark's own tests.
//
//   * Oracles can fail: with each workload's expectation deliberately broken
//     (Tamper), the run completes and counts the broken checks as failed.
//   * Seeds: the same seed reproduces a workload's simulated counts exactly;
//     another seed changes them.
//   * Decorator transparency: every workload run traced (proxy client,
//     device decorators, system decorator, spans, recorder) simulates exactly
//     what the plain run simulates, unit by unit; the trace slowdown is
//     printed.
//
// Run with `python3 perfbench/run.py --selftest`; exits 0 iff every check holds.
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/runner.h"

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

perfbench::RunReport Run(const std::string& workload, std::uint64_t seed, bool trace,
                         int units, const perfbench::Tamper& tamper = {}) {
  perfbench::RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.trace = trace;
  options.threads = 2;
  options.max_units = units;
  options.tamper = tamper;
  return perfbench::RunBenchmark(options);
}

const std::vector<std::string> kWorkloads = {"kernel_compute", "kernel_channels", "verify",
                                             "tunnel_chaos"};

void OraclesCanFail() {
  perfbench::Tamper t;
  t.compute_reference = true;
  perfbench::RunReport r = Run("kernel_compute", 1, false, 2, t);
  Check(r.checks.failed() == 1, "kernel_compute: a wrong expected checksum is counted failed");
  t = {};
  t.compute_starved = true;
  r = Run("kernel_compute", 1, false, 2, t);
  Check(r.checks.failed() == 2,
        "kernel_compute: a regime whose results never arrive is counted failed in each slice");
  Check(Run("kernel_compute", 1, false, 2).checks.failed() == 0,
        "kernel_compute: untampered run passes every check");

  t = {};
  t.channels_model = true;
  r = Run("kernel_channels", 1, false, 2, t);
  Check(r.checks.failed() == 1, "kernel_channels: a wrong modelled word is counted failed");
  Check(Run("kernel_channels", 1, false, 2).checks.failed() == 0,
        "kernel_channels: untampered run passes every check");

  t = {};
  t.verify_faults_separable = true;
  r = Run("verify", 1, false, 1, t);
  Check(r.checks.failed() == 1,
        "verify: a KernelFaults system declared separable is counted failed");
  Check(Run("verify", 1, false, 1).checks.failed() == 0,
        "verify: untampered run passes every check");

  t = {};
  t.tunnel_stream = true;
  r = Run("tunnel_chaos", 1, false, 3, t);
  Check(r.checks.attempted() == 3 && r.checks.failed() == 3,
        "tunnel_chaos: a corrupted received stream is counted failed");
}

void SeedsReproduceInputs() {
  for (const std::string& w : kWorkloads) {
    const std::uint64_t a = Run(w, 7, false, 1).sim_digest;
    const std::uint64_t b = Run(w, 7, false, 1).sim_digest;
    const std::uint64_t c = Run(w, 8, false, 1).sim_digest;
    Check(a == b, w + ": the same seed reproduces the simulated counts");
    Check(a != c, w + ": another seed changes them");
  }
}

void DecoratorsAreTransparent() {
  for (const std::string& w : kWorkloads) {
    perfbench::RunReport r = Run(w, 3, true, 2);
    Check(r.units == 2 && r.sim_mismatches == 0,
          w + ": probed and plain runs simulate identically");
    if (w != "tunnel_chaos") {
      // Includes the proxy's trap accounting against the kernel's counter.
      Check(r.checks.failed() == 0, w + ": every check of the traced run passes");
    }
    std::printf("     %s: obs.trace_slowdown = %.3f\n", w.c_str(),
                r.metrics["obs.trace_slowdown"]);
  }
}

}  // namespace

int main() {
  OraclesCanFail();
  SeedsReproduceInputs();
  DecoratorsAreTransparent();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
