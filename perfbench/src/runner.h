// The benchmark runner: workload interface, oracle ledger, run loop and the
// metric tables.
//
// A run sets the workload up, then repeats units of work until --seconds
// have elapsed, timing further set-ups between units (setup_s is their
// median). Untraced, the rates are run totals (work over wall time) and the
// per-unit samples are summarised as context. Traced, each unit runs twice
// from identical inputs: once on the plain lane and once on the probed lane
// (proxy client, device decorators, system decorator, spans, obs recorder).
// The two lanes' simulated counts must agree exactly; a difference is
// counted as a failed check. The layer metrics come from the probed lane
// only.
#ifndef PERFBENCH_SRC_RUNNER_H_
#define PERFBENCH_SRC_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/probes.h"

namespace perfbench {

// Deliberate oracle defects, used only by the benchmark's self-test to show
// that every check can fail and is counted rather than crashing the run.
struct Tamper {
  bool compute_reference = false;        // one expected checksum is wrong
  bool channels_model = false;           // one expected delivered word is wrong
  bool verify_faults_separable = false;  // the KernelFaults system is declared separable
  bool tunnel_stream = false;            // every received tunnel stream is corrupted
  bool compute_starved = false;          // the last compute regime's results never arrive
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;         // exhaustive-checker threads (verify only)
  int max_units = 0;       // > 0: stop after this many units whatever the time
  Tamper tamper;
};

// Oracle ledger: every check a workload makes, and the ones that failed.
class Checks {
 public:
  void Expect(bool ok, const char* what) {
    ++attempted_;
    if (!ok) {
      Fail(what);
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  void Fail(const char* what);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;  // the first few failures
};

// Everything the probed lane records. `sums` holds layer quantities the
// workloads measure themselves (report fields, byte counts, span-derived
// times), summed over traced units.
struct Probes {
  KernelTally kernel;
  DeviceTally device;
  CheckerTally checker;
  SpanLog spans;
  std::map<std::string, double> sums;
  std::vector<double> recovery_ticks;  // per crash, for the p99
};

// What one unit of work did.
struct UnitResult {
  double steps = 0;        // guest steps, proven states or network ticks
  double outputs = 0;      // checked outputs: result or delivered words, verdicts
  double step_wall_s = 0;  // wall time `steps` is rated against; 0 = the whole unit
  // Simulated quantities that must not depend on the probes.
  std::vector<std::uint64_t> sim;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs from `seed` and builds the plain lane, plus the
  // probed lane wired to `probes` when it is non-null.
  virtual void Setup(std::uint64_t seed, Probes* probes) = 0;

  // Runs unit `index` on the plain lane (probes == nullptr) or on the probed
  // lane, checking every output into `checks`.
  virtual UnitResult RunUnit(int index, Probes* probes, Checks& checks) = 0;
};

std::unique_ptr<Workload> MakeComputeWorkload(const Tamper& tamper);
std::unique_ptr<Workload> MakeChannelsWorkload(const Tamper& tamper);
std::unique_ptr<Workload> MakeVerifyWorkload(const Tamper& tamper, int threads);
std::unique_ptr<Workload> MakeTunnelWorkload(const Tamper& tamper);

struct MetricDef {
  std::string name;
  std::string unit;
};

// Printed with --trace 0 and --trace 1 respectively, in this order.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& LayerMetrics();

struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 0;
};
// Median and quartiles with the "exclusive" method of Python's
// statistics.quantiles(n=4).
Summary Summarize(std::vector<double> values);

struct RunReport {
  Checks checks;
  bool known_workload = true;
  std::size_t units = 0;
  std::uint64_t sim_mismatches = 0;  // traced units whose lanes disagreed
  std::uint64_t sim_digest = 0;      // hash of every plain-lane simulated count
  std::map<std::string, Summary> summaries;  // end-to-end samples (untraced)
  std::map<std::string, double> metrics;     // the values to print
  SpanLog spans;
};

RunReport RunBenchmark(const RunOptions& options);

// Fixed host-calibration loop: ns per iteration of a dependent integer
// chain. Context for reading numbers across hosts and days, not a metric.
double CalibrationNsPerIter();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RUNNER_H_
