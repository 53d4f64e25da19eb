// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Prints context lines (host calibration, median and quartiles of every
// end-to-end sample) starting with '#', then one JSON object as the last
// line: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status: 0 after a completed run (even with failed checks, which the
// JSON reports), 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/src/runner.h"

namespace {

constexpr char kUsage[] =
    "usage: perfbench --workload kernel_compute|kernel_channels|verify|tunnel_chaos\n"
    "                 --seed N --seconds S --trace 0|1 [--spans FILE]\n";

int Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n%s", why.c_str(), kUsage);
  return 2;
}

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 0);
  return end != nullptr && *end == '\0';
}

void PrintJsonNumber(double v) {
  // Enough digits to round-trip a double.
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  // verify's checker threads: min(4, nproc - 1), at least 1. The calling
  // thread keeps a CPU of its own: with a worker on every CPU of a 4-CPU
  // host the run was preempted ~50k times a second for the same throughput,
  // which left it at the mercy of any other load on the host.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  options.threads = static_cast<int>(std::clamp(cpus - 1, 1u, 4u));
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseU64(value, &options.seed)) return Usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      if (!ParseU64(value, &n) || n < 1 || n > 3600) return Usage("bad --seconds " + value);
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (!have_workload) {
    return Usage("--workload is required");
  }

  const double calibration = perfbench::CalibrationNsPerIter();
  perfbench::RunReport report = perfbench::RunBenchmark(options);
  if (!report.known_workload) {
    return Usage("unknown workload " + options.workload);
  }

  std::printf("# perfbench workload=%s seed=%llu trace=%d threads=%d units=%zu\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, options.threads, report.units);
  std::printf("# host calibration: %.4f ns/iter (context, not a metric)\n", calibration);
  for (const auto& [name, s] : report.summaries) {
    std::printf("# %s median=%.6g q1=%.6g q3=%.6g n=%zu\n", name.c_str(), s.median, s.q1, s.q3,
                s.n);
  }
  for (const std::string& message : report.checks.messages()) {
    std::printf("# FAILED CHECK: %s\n", message.c_str());
  }
  if (!spans_path.empty() && options.trace && !report.spans.WriteJsonLines(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }

  const auto& defs =
      options.trace ? perfbench::LayerMetrics() : perfbench::EndToEndMetrics();
  for (const perfbench::MetricDef& def : defs) {
    if (report.metrics.count(def.name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s was not computed\n", def.name.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.checks.attempted()),
              static_cast<unsigned long long>(report.checks.failed()));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", defs[i].name.c_str());
    PrintJsonNumber(report.metrics.at(defs[i].name));
    std::printf(", \"unit\": \"%s\"}", defs[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
