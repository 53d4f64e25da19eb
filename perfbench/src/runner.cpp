#include "perfbench/src/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/base/hash.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace perfbench {

void Checks::Fail(const char* what) {
  ++failed_;
  if (messages_.size() < 8) {
    messages_.push_back(what);
  }
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"steps_per_s", "1/s"},
      {"outputs_per_s", "1/s"},
  };
  return defs;
}

namespace {

// Kernel-call trap codes reported one by one (the channel fabric's calls
// plus SWAP); every other code still counts in kernel.traps / kernel.trap_s.
struct TrapName {
  int code;
  const char* name;
};
constexpr TrapName kTrapNames[] = {
    {0, "swap"},     {1, "send"},     {2, "recv"},     {9, "sendv"},
    {10, "recvv"},   {11, "ringput"}, {12, "ringget"}, {13, "ringstat"},
};

// obs::Metrics() counters read around every probed unit (they count only
// while the recorder is started).
constexpr const char* kObsCounters[] = {
    "kernel.swaps",         "kernel.channel_stall", "kernel.faults",
    "net.retransmits",      "net.timeouts",         "net.faults_injected",
    "net.node_crashes",     "net.node_restores",    "net.recovery_ticks",
};

constexpr std::size_t kTraceRingEvents = std::size_t{1} << 20;

// setup_s is the median of up to this many set-ups.
constexpr int kSetupSamples = 15;

// VmHWM of this process image. getrusage's ru_maxrss is not used: Linux
// carries it across execve, so it would report the launching interpreter's
// peak when that is larger.
double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Percentile99(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  // Nearest rank.
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

std::unique_ptr<Workload> Make(const RunOptions& options) {
  if (options.workload == "kernel_compute") {
    return MakeComputeWorkload(options.tamper);
  }
  if (options.workload == "kernel_channels") {
    return MakeChannelsWorkload(options.tamper);
  }
  if (options.workload == "verify") {
    return MakeVerifyWorkload(options.tamper, options.threads);
  }
  if (options.workload == "tunnel_chaos") {
    return MakeTunnelWorkload(options.tamper);
  }
  return nullptr;
}

std::map<std::string, double> LayerValues(Probes& p, double plain_wall, double probed_wall,
                                          double obs_events, double obs_dropped) {
  std::map<std::string, double> v;
  const auto& s = p.sums;

  // machine
  const double run_s = p.spans.TotalSeconds("machine.run");
  const double steps = Get(s, "machine.steps");
  v["machine.steps"] = steps;
  v["machine.ns_per_step"] = Ratio(run_s * 1e9, steps);

  // kernel
  const KernelTally& k = p.kernel;
  v["kernel.before_execute_calls"] = static_cast<double>(k.before_execute.calls);
  v["kernel.before_execute_s"] = k.before_execute.Seconds();
  double traps = 0;
  double trap_s = 0;
  for (const Tally& t : k.traps) {
    traps += static_cast<double>(t.calls);
    trap_s += t.Seconds();
  }
  v["kernel.traps"] = traps;
  v["kernel.trap_s"] = trap_s;
  for (const TrapName& tn : kTrapNames) {
    const Tally& t = k.traps[static_cast<std::size_t>(tn.code)];
    v[std::string("kernel.traps.") + tn.name] = static_cast<double>(t.calls);
    v[std::string("kernel.trap_s.") + tn.name] = t.Seconds();
  }
  v["kernel.irq_s"] = k.irq.Seconds();
  v["kernel.swaps"] = Get(s, "kernel.swaps");
  v["kernel.channel_stall"] = Get(s, "kernel.channel_stall");
  v["kernel.faults"] = Get(s, "kernel.faults");

  // device
  v["device.steps"] = static_cast<double>(p.device.steps.calls);
  v["device.step_s"] = p.device.steps.Seconds();
  v["device.register_accesses"] = static_cast<double>(p.device.register_accesses);

  // Self time of Run: its spans minus the client and device calls inside,
  // and minus what the timers of those calls cost.
  double timer_s = k.before_execute.TimerSeconds() + k.irq.TimerSeconds() +
                   p.device.steps.TimerSeconds();
  for (const Tally& t : k.traps) {
    timer_s += t.TimerSeconds();
  }
  v["machine.dispatch_s"] = std::max(0.0, run_s - timer_s - v["kernel.before_execute_s"] - trap_s -
                                              v["kernel.irq_s"] - v["device.step_s"]);

  // exhaustive checker
  const CheckerCounts c = p.checker.Sum();
  const char* op_names[kCheckerOps] = {"restore", "serialize", "execute", "abstract", "clone"};
  double op_s = 0;
  for (int i = 0; i < kCheckerOps; ++i) {
    const double secs = static_cast<double>(c.ns[static_cast<std::size_t>(i)]) * 1e-9;
    v[std::string("exhaustive.") + op_names[i] + "s"] =
        static_cast<double>(c.calls[static_cast<std::size_t>(i)]);
    v[std::string("exhaustive.") + op_names[i] + "_s"] = secs;
    op_s += secs;
  }
  const double check_wall = p.spans.TotalSeconds("exhaustive.check");
  const double check_cpu = Get(s, "exhaustive.cpu_s");
  const double states = Get(s, "exhaustive.states");
  v["exhaustive.self_s"] = std::max(0.0, check_cpu - op_s);
  v["exhaustive.states"] = states;
  v["exhaustive.transitions"] = Get(s, "exhaustive.transitions");
  v["exhaustive.pairs_checked"] = Get(s, "exhaustive.pairs_checked");
  v["exhaustive.steal_count"] = Get(s, "exhaustive.steal_count");
  v["exhaustive.peak_state_bytes"] = Get(s, "exhaustive.peak_state_bytes");
  v["exhaustive.restores_per_state"] = Ratio(v["exhaustive.restores"], states);
  v["exhaustive.thread_utilisation"] = Ratio(check_cpu, Get(s, "exhaustive.thread_wall_s"));
  v["exhaustive.states_per_s"] = Ratio(states, check_wall);

  // sm11asm / sepcheck / analysis
  v["sm11asm.assemble_s"] = p.spans.TotalSeconds("sm11asm.assemble");
  v["sm11asm.words"] = Get(s, "sm11asm.words");
  v["sepcheck.analyze_s"] = Get(s, "sepcheck.analyze_s");
  v["sepcheck.obligations"] = Get(s, "sepcheck.obligations");
  v["sepcheck.findings"] = Get(s, "sepcheck.findings");
  v["sepcheck.systems_per_s"] =
      Ratio(Get(s, "sepcheck.systems"), p.spans.TotalSeconds("verify.certify"));
  v["analysis.render_s"] = p.spans.TotalSeconds("analysis.render_obligations") +
                           p.spans.TotalSeconds("analysis.format_findings");
  v["analysis.render_bytes"] = Get(s, "analysis.render_bytes");

  // distributed
  v["net.ticks"] = Get(s, "net.ticks");
  v["net.run_s"] = p.spans.TotalSeconds("net.run");
  for (const char* name : {"net.retransmits", "net.timeouts", "net.faults_injected",
                           "net.node_crashes", "net.node_restores", "net.recovery_ticks"}) {
    v[name] = Get(s, name);
  }
  v["net.goodput_ratio"] = Ratio(Get(s, "net.delivered_words"), Get(s, "net.wire_words"));

  // simulated protocol quantities
  v["sim.ticks_per_word"] = Ratio(Get(s, "sim.ticks"), Get(s, "sim.words"));
  v["sim.recovery_ticks_p99"] = Percentile99(p.recovery_ticks);

  // obs
  v["obs.events"] = obs_events;
  v["obs.dropped"] = obs_dropped;
  v["obs.trace_slowdown"] = Ratio(probed_wall, plain_wall);
  return v;
}

}  // namespace

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"machine.steps", "count"},
        {"machine.dispatch_s", "s"},
        {"machine.ns_per_step", "ns"},
        {"kernel.before_execute_calls", "count"},
        {"kernel.before_execute_s", "s"},
        {"kernel.traps", "count"},
        {"kernel.trap_s", "s"},
    };
    for (const TrapName& tn : kTrapNames) {
      d.push_back({std::string("kernel.traps.") + tn.name, "count"});
      d.push_back({std::string("kernel.trap_s.") + tn.name, "s"});
    }
    const std::vector<MetricDef> rest = {
        {"kernel.irq_s", "s"},
        {"kernel.swaps", "count"},
        {"kernel.channel_stall", "count"},
        {"kernel.faults", "count"},
        {"device.steps", "count"},
        {"device.step_s", "s"},
        {"device.register_accesses", "count"},
        {"exhaustive.restores", "count"},
        {"exhaustive.restore_s", "s"},
        {"exhaustive.serializes", "count"},
        {"exhaustive.serialize_s", "s"},
        {"exhaustive.executes", "count"},
        {"exhaustive.execute_s", "s"},
        {"exhaustive.abstracts", "count"},
        {"exhaustive.abstract_s", "s"},
        {"exhaustive.clones", "count"},
        {"exhaustive.clone_s", "s"},
        {"exhaustive.self_s", "s"},
        {"exhaustive.states", "count"},
        {"exhaustive.transitions", "count"},
        {"exhaustive.pairs_checked", "count"},
        {"exhaustive.steal_count", "count"},
        {"exhaustive.peak_state_bytes", "B"},
        {"exhaustive.restores_per_state", "ratio"},
        {"exhaustive.thread_utilisation", "ratio"},
        {"exhaustive.states_per_s", "1/s"},
        {"sm11asm.assemble_s", "s"},
        {"sm11asm.words", "count"},
        {"sepcheck.analyze_s", "s"},
        {"sepcheck.obligations", "count"},
        {"sepcheck.findings", "count"},
        {"sepcheck.systems_per_s", "1/s"},
        {"analysis.render_s", "s"},
        {"analysis.render_bytes", "B"},
        {"net.ticks", "count"},
        {"net.run_s", "s"},
        {"net.retransmits", "count"},
        {"net.timeouts", "count"},
        {"net.faults_injected", "count"},
        {"net.node_crashes", "count"},
        {"net.node_restores", "count"},
        {"net.recovery_ticks", "ticks"},
        {"net.goodput_ratio", "ratio"},
        {"sim.ticks_per_word", "ticks"},
        {"sim.recovery_ticks_p99", "ticks"},
        {"obs.events", "count"},
        {"obs.dropped", "count"},
        {"obs.trace_slowdown", "ratio"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(values, n=4, method="exclusive").
  const auto quantile = [&](int i) {
    const std::size_t m = n + 1;
    std::size_t j = static_cast<std::size_t>(i) * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(static_cast<std::size_t>(i) * m - j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quantile(1);
  s.q3 = quantile(3);
  return s;
}

double CalibrationNsPerIter() {
  constexpr std::uint64_t kIters = 50'000'000;
  volatile std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
  std::uint64_t x = seed;
  const std::int64_t t0 = NowNs();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  const std::int64_t t1 = NowNs();
  seed = x;
  return static_cast<double>(t1 - t0) / static_cast<double>(kIters);
}

RunReport RunBenchmark(const RunOptions& options) {
  RunReport report;
  if (Make(options) == nullptr) {
    report.known_workload = false;
    return report;
  }

  Probes probes;
  Probes* traced = options.trace ? &probes : nullptr;

  // Set-up: generate, assemble, build and boot. The instance set up first
  // is the one that runs; further set-ups are timed between units, so the
  // set-up samples span the same stretch of host time as the rates.
  std::vector<double> setup_samples;
  const auto time_setup = [&](Workload& w) {
    const std::int64_t t0 = NowNs();
    w.Setup(options.seed, traced);
    setup_samples.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  };
  std::unique_ptr<Workload> workload = Make(options);
  time_setup(*workload);

  // Per-unit samples (context lines) and run totals (the reported rates).
  std::vector<double> steps_rates;
  std::vector<double> output_rates;
  double total_steps = 0;
  double total_step_wall = 0;
  double total_outputs = 0;
  double plain_wall = 0;
  double probed_wall = 0;
  double obs_events = 0;
  double obs_dropped = 0;
  const std::int64_t start = NowNs();
  const auto elapsed = [&] { return static_cast<double>(NowNs() - start) * 1e-9; };

  sep::Hasher digest;
  int index = 0;
  do {
    const std::int64_t t0 = NowNs();
    const UnitResult plain = workload->RunUnit(index, nullptr, report.checks);
    const double wall = static_cast<double>(NowNs() - t0) * 1e-9;
    plain_wall += wall;
    digest.MixRange(plain.sim);
    if (!options.trace) {
      const double step_wall = plain.step_wall_s > 0 ? plain.step_wall_s : wall;
      steps_rates.push_back(plain.steps / step_wall);
      output_rates.push_back(plain.outputs / wall);
      total_steps += plain.steps;
      total_step_wall += step_wall;
      total_outputs += plain.outputs;
      // Sample k is taken once k/kSetupSamples of the run has elapsed.
      const double due = options.seconds * static_cast<double>(setup_samples.size()) /
                         static_cast<double>(kSetupSamples);
      if (static_cast<int>(setup_samples.size()) < kSetupSamples && elapsed() >= due) {
        time_setup(*Make(options));
      }
    } else {
      std::map<std::string, std::uint64_t> before;
      for (const char* name : kObsCounters) {
        before[name] = sep::obs::Metrics().GetCounter(name).value();
      }
      sep::obs::Recorder().Start(kTraceRingEvents);
      const std::int64_t p0 = NowNs();
      const UnitResult probed = workload->RunUnit(index, &probes, report.checks);
      probed_wall += static_cast<double>(NowNs() - p0) * 1e-9;
      sep::obs::Recorder().Stop();
      obs_events += static_cast<double>(sep::obs::Recorder().Drain().size());
      obs_dropped += static_cast<double>(sep::obs::Recorder().dropped());
      for (const char* name : kObsCounters) {
        probes.sums[name] +=
            static_cast<double>(sep::obs::Metrics().GetCounter(name).value() - before[name]);
      }
      // The probes must not change what the system simulates.
      report.checks.Expect(plain.sim == probed.sim,
                           "simulated counts differ between the plain and probed runs");
      report.sim_mismatches += plain.sim == probed.sim ? 0 : 1;
    }
    ++index;
  } while ((options.max_units <= 0 || index < options.max_units) &&
           (options.max_units > 0 || elapsed() < options.seconds));
  report.units = static_cast<std::size_t>(index);
  report.sim_digest = digest.digest();

  if (!options.trace) {
    report.summaries["setup_s"] = Summarize(setup_samples);
    report.summaries["steps_per_s"] = Summarize(steps_rates);
    report.summaries["outputs_per_s"] = Summarize(output_rates);
    report.metrics["setup_s"] = report.summaries["setup_s"].median;
    report.metrics["peak_rss_mib"] = PeakRssMib();
    // Whole-run throughput: the host this runs on alternates between fast
    // and slow stretches of a few seconds, and a ratio of run totals
    // averages them where a median of per-unit rates jumps between modes.
    report.metrics["steps_per_s"] = total_steps / total_step_wall;
    report.metrics["outputs_per_s"] = total_outputs / plain_wall;
  } else {
    report.metrics = LayerValues(probes, plain_wall, probed_wall, obs_events, obs_dropped);
  }
  report.spans = std::move(probes.spans);
  return report;
}

}  // namespace perfbench
