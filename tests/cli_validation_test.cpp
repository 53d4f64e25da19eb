// End-to-end CLI input validation: every tool must reject malformed numeric
// arguments with a non-zero exit and a usage message, and must exit 0 on
// --help. Runs the real binaries as subprocesses (SEP_TOOLS_DIR is injected
// by tests/CMakeLists.txt); each rejection here was a silent-zero bug when
// the tools still used atoi/strtod with no end-pointer checks.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "src/base/file.h"
#include "src/base/json.h"
#include "src/base/strings.h"

namespace sep {
namespace {

std::string Tool(const char* name) { return std::string(SEP_TOOLS_DIR) + "/" + name; }

// Runs `cmd` silenced, returns the exit code (-1 if it did not exit cleanly).
int RunTool(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  if (status == -1 || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
}

TEST(CliValidation, HelpExitsZeroEverywhere) {
  EXPECT_EQ(RunTool(Tool("sm11run") + " --help"), 0);
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --help"), 0);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --help"), 0);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --help"), 0);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --help"), 0);
}

TEST(CliValidation, Sm11RunRejectsBadNumbers) {
  EXPECT_EQ(RunTool(Tool("sm11run") + " --steps 12x prog.s"), 2);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --steps 0 prog.s"), 2);      // must be >= 1
  EXPECT_EQ(RunTool(Tool("sm11run") + " --dump 0x10000 4 prog.s"), 2);  // > 16-bit
  EXPECT_EQ(RunTool(Tool("sm11run") + " --bogus prog.s"), 2);
  EXPECT_EQ(RunTool(Tool("sm11run")), 2);  // no program
}

TEST(CliValidation, Sm11RunValidatesSuperblockFlag) {
  // Strict on|off: anything else is a usage error, and a missing value must
  // not silently swallow the program path.
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock yes prog.s"), 2);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock 1 prog.s"), 2);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock"), 2);
  // Valid values reach the file loader (exit 1: prog.s does not exist).
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock on prog.s"), 1);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock off prog.s"), 1);
}

// Reads a whole file; empty string if it cannot be read.
std::string Slurp(const std::string& path) { return ReadFile(path).value_or(""); }

// One sm11run invocation with stdin closed; stdout, stderr (which carries
// the step count) and the metrics dump are kept for comparison.
struct Sm11RunOutput {
  int exit_code = -1;
  std::string out;
  std::string err;
  std::string metrics;
};

Sm11RunOutput RunSm11(const std::string& flags, const std::string& program) {
  const std::string dir = ::testing::TempDir();
  const std::string out = dir + "/sm11run.out";
  const std::string err = dir + "/sm11run.err";
  const std::string metrics = dir + "/sm11run.metrics";
  const std::string cmd = Tool("sm11run") + " " + flags + " --metrics " + metrics + " " +
                          program + " </dev/null >" + out + " 2>" + err;
  Sm11RunOutput result;
  const int status = std::system(cmd.c_str());
  if (status != -1 && WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  result.out = Slurp(out);
  result.err = Slurp(err);
  result.metrics = Slurp(metrics);
  return result;
}

std::string WriteProgram(const std::string& name, const std::string& source) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << source;
  return path;
}

// A hot loop that prints one character per outer pass on the serial line
// (registers at 0xE000 in both modes), so superblocks form and the device
// is polled between them.
std::string PrinterLoop(const char* finish) {
  return std::string(R"(
        .EQU XCSR, 0xE002
        .EQU XBUF, 0xE003
START:  CLR R3
OUTER:  CLR R1
        MOV #300, R2
LOOP:   ADD R2, R1
        XOR R3, R1
        DEC R2
        BNE LOOP
        BIC #0xFFF0, R1
        ADD #65, R1
W:      BIT #0x80, @XCSR
        BEQ W
        MOV R1, @XBUF
        INC R3
        CMP #24, R3
        BNE OUTER
WD:     BIT #0x80, @XCSR
        BEQ WD
)") + finish + "\n";
}

TEST(CliValidation, Sm11RunSuperblockFlagChangesNothingButTheEngine) {
  const std::string bare = WriteProgram("bare_loop.s", PrinterLoop("        HALT"));
  const std::string regime = WriteProgram("regime_loop.s", PrinterLoop("        TRAP 7"));
  for (const std::string& mode : {std::string(""), std::string("--regime ")}) {
    SCOPED_TRACE(mode.empty() ? "bare" : "regime");
    const std::string& program = mode.empty() ? bare : regime;
    const Sm11RunOutput on = RunSm11(mode + "--superblock on", program);
    const Sm11RunOutput off = RunSm11(mode + "--superblock off", program);
    EXPECT_EQ(on.exit_code, 0) << on.err;
    EXPECT_EQ(off.exit_code, 0) << off.err;
    EXPECT_EQ(on.out.size(), 24u);
    EXPECT_EQ(on.out, off.out);
    EXPECT_EQ(on.err, off.err);  // "[N steps, halted ...]"
    EXPECT_NE(on.err.find(" steps, halted"), std::string::npos) << on.err;
    // The flag reaches the engine: traces are built only with it on.
    EXPECT_EQ(off.metrics.find("machine.superblock_builds 0\n") != std::string::npos, true)
        << off.metrics;
    EXPECT_EQ(on.metrics.find("machine.superblock_builds 0\n"), std::string::npos)
        << on.metrics;
  }
}

TEST(CliValidation, SepcheckRejectsBadNumbers) {
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --jobs x --all"), 2);
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --jobs -1 --all"), 2);
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --words 0 guest.s"), 2);  // must be >= 1
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --devices 9999 guest.s"), 2);
  // --obligations needs a real path operand, not a following flag.
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --all --obligations"), 2);
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --all --obligations --json"), 2);
}

// Runs `cmd` exactly as given (the caller owns any redirections), returns
// the exit code.
int RunToolRaw(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
}

TEST(CliValidation, SepcheckParallelRunIsByteIdenticalToSerial) {
  // The findings text and the obligation ledger must not depend on --jobs:
  // entries are analyzed in parallel but buffered and emitted in catalogue
  // order.
  const std::string dir = testing::TempDir();
  const std::string serial = dir + "/sepcheck_serial.out";
  const std::string parallel = dir + "/sepcheck_parallel.out";
  const std::string serial_obl = dir + "/sepcheck_serial.json";
  const std::string parallel_obl = dir + "/sepcheck_parallel.json";
  ASSERT_EQ(RunToolRaw(Tool("sepcheck") + " --all --obligations " + serial_obl +
                       " > " + serial + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunToolRaw(Tool("sepcheck") + " --all --jobs 4 --obligations " +
                       parallel_obl + " > " + parallel + " 2>/dev/null"),
            0);
  const std::string serial_text = Slurp(serial);
  ASSERT_FALSE(serial_text.empty());
  EXPECT_EQ(serial_text, Slurp(parallel));
  const std::string ledger = Slurp(serial_obl);
  ASSERT_FALSE(ledger.empty());
  EXPECT_EQ(ledger, Slurp(parallel_obl));
}

TEST(CliValidation, CheckObligationsGatesTheLedger) {
  const std::string dir = testing::TempDir();
  const std::string ledger = dir + "/obligations.json";
  ASSERT_EQ(RunTool(Tool("sepcheck") + " --all --obligations " + ledger), 0);
  EXPECT_EQ(RunTool(Tool("check_obligations") + " " + ledger), 0);
  EXPECT_EQ(RunTool(Tool("check_obligations") + " /nonexistent/ledger.json"), 2);
  EXPECT_EQ(RunTool(Tool("check_obligations")), 2);

  // A ledger claiming certification with an open obligation must fail.
  const std::string forged = dir + "/forged.json";
  std::string text = Slurp(ledger);
  const std::string from = "\"status\":\"proved\"";
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), "\"status\":\"open\"");
  std::ofstream(forged) << text;
  EXPECT_EQ(RunTool(Tool("check_obligations") + " " + forged), 1);
}

TEST(CliValidation, CheckObligationsRejectsHostileLedgers) {
  // Malformed JSON is a validation failure (exit 1) with a parse
  // diagnostic: never an uncaught exception (exit 134) or a stack overflow
  // (exit 139).
  const std::string dir = testing::TempDir();
  const std::string err = dir + "/check_obligations.err";
  const std::pair<const char*, std::string> hostile[] = {
      {"huge_number.json", "{\"schema\": 99999999999999999999999}\n"},
      {"deep.json", std::string(200000, '[')},
      {"control_byte.json", "{\"schema\": \"sepcheck-obligations-v1\x01\"}\n"},
  };
  for (const auto& [name, text] : hostile) {
    SCOPED_TRACE(name);
    const std::string ledger = dir + "/" + name;
    std::ofstream(ledger) << text;
    EXPECT_EQ(RunToolRaw(Tool("check_obligations") + " " + ledger + " >/dev/null 2>" + err), 1);
    EXPECT_NE(Slurp(err).find("JSON parse error"), std::string::npos) << Slurp(err);
  }
  // The schema drift guard reads the parsed "$id", not a substring.
  const std::string ledger = dir + "/good_ledger.json";
  ASSERT_EQ(RunTool(Tool("sepcheck") + " --all --obligations " + ledger), 0);
  const std::string schema = dir + "/schema.json";
  std::ofstream(schema) << "{\"nested\": {\"$id\": \"sepcheck-obligations-v1\"}}\n";
  EXPECT_EQ(RunTool(Tool("check_obligations") + " --schema " + schema + " " + ledger), 1);
  EXPECT_EQ(RunTool(Tool("check_obligations") + " --schema " + std::string(SEP_SOURCE_DIR) +
                    "/docs/obligations.schema.json " + ledger),
            0);
  EXPECT_EQ(RunTool(Tool("check_obligations") + " --schema /nonexistent.json " + ledger), 2);
}

TEST(CliValidation, SepcheckJsonEscapesAnnotationControlBytes) {
  // Annotation text reaches findings and obligations verbatim; control
  // bytes in it must come out as \u escapes, so every line stays JSON.
  const std::string guest = WriteProgram("ctl_annotation.s",
                                         "START:  MOV #1, R1    ; sepcheck: trust why\x1f not\n"
                                         "        MOV R1, @0x100\n"
                                         "        BR START\n"
                                         "; sepcheck: bogus\x01 directive\n");
  const std::string dir = testing::TempDir();
  const std::string out = dir + "/ctl_annotation.jsonl";
  const std::string ledger = dir + "/ctl_annotation_ledger.json";
  RunToolRaw(Tool("sepcheck") + " --json --obligations " + ledger + " " + guest + " >" + out +
             " 2>/dev/null");
  const std::string text = Slurp(out);
  ASSERT_NE(text.find("\\u0001"), std::string::npos) << text;
  int lines = 0;
  bool seen_raw_byte = false;
  for (const std::string& line : Split(text, '\n')) {
    if (line.empty()) continue;
    ++lines;
    const Result<JsonValue> doc = ParseJson(line);
    ASSERT_TRUE(doc.ok()) << doc.error() << "\n" << line;
    const JsonValue* message = doc->Find("message");
    if (message != nullptr && message->str.find('\x01') != std::string::npos) {
      seen_raw_byte = true;
    }
  }
  EXPECT_GT(lines, 0);
  EXPECT_TRUE(seen_raw_byte);  // the byte survives the round trip
  const Result<JsonValue> ledger_doc = ParseJson(Slurp(ledger));
  EXPECT_TRUE(ledger_doc.ok()) << ledger_doc.error();
}

TEST(CliValidation, FailedWritesExitTwo) {
  // /dev/full accepts the open and fails the flush: a tool that does not
  // check its close would report success with nothing written.
  const std::string halt = WriteProgram("halt.s", "        HALT\n");
  const std::string ping = WriteProgram("ping.s", "LOOP: TRAP 0\n      BR LOOP\n");
  EXPECT_EQ(RunTool(Tool("sm11run") + " --trace /dev/full " + halt + " </dev/null"), 2);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --regime --metrics /dev/full " + halt + " </dev/null"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --steps 200 --out /dev/full " + ping), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --trace /dev/full 1"), 2);
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --obligations /dev/full " + halt), 2);
}

TEST(CliValidation, ChaosRunRejectsBadNumbers) {
  EXPECT_EQ(RunTool(Tool("chaos_run") + " -5"), 2);       // the atoi(-5) trap
  EXPECT_EQ(RunTool(Tool("chaos_run") + " abc"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " 12 34 56"), 2); // too many positionals
  EXPECT_EQ(RunTool(Tool("chaos_run") + " 0"), 2);        // zero packets
}

TEST(CliValidation, ChaosRunRejectsBadSweepArguments) {
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range 5"), 2);      // no ..
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range 9..3"), 2);   // reversed
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range a..b"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range"), 2);        // missing value
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range 0..1 --rate 99"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --replay /nonexistent/path.sched"), 2);
}

TEST(CliValidation, ChaosRunValidatesBatchWords) {
  // The batched-fabric segment size must be a real integer in [1, 64]
  // (kMaxBatchWords); rejections are usage errors, not silent clamps.
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words 0"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words -5"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words abc"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words 65"), 2);  // > kMaxBatchWords
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words"), 2);     // missing value
}

TEST(CliValidation, BenchReportRejectsBadNumbers) {
  EXPECT_EQ(RunTool(Tool("bench_report") + " --tolerance abc"), 2);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --tolerance -0.5"), 2);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --jobs x"), 2);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --bogus"), 2);
}

TEST(CliValidation, BenchReportRejectsMalformedBaseline) {
  // A --compare file without the sep-bench-v1 schema marker must be a clean
  // exit-2 diagnostic (pre-flight, before any benchmark runs), not a crash
  // or a silently-empty comparison.
  const std::string path = testing::TempDir() + "/not_a_baseline.json";
  std::ofstream(path) << "{\"schema\": \"something-else\"}\n";
  EXPECT_EQ(RunTool(Tool("bench_report") + " --compare " + path), 2);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --compare /nonexistent/baseline.json"), 2);

  // The whole baseline is validated up front: a truncated file that still
  // holds the schema marker, a non-object "metrics" and a non-numeric
  // guarded metric each exit 2 naming the file, and no benchmark starts
  // (--bindir points nowhere, so reaching the benchmarks would also fail,
  // but only after announcing them).
  const std::string committed = Slurp(std::string(SEP_SOURCE_DIR) + "/BENCH_10.json");
  ASSERT_NE(committed.find("\"predecode_speedup\": "), std::string::npos);
  const std::string dir = testing::TempDir();
  const std::string err = dir + "/bench_report.err";
  const auto preflight = [&](const std::string& baseline) {
    return RunToolRaw(Tool("bench_report") + " --bindir /nonexistent --compare " + baseline +
                      " >/dev/null 2>" + err);
  };
  std::string metrics_not_object = committed;
  const std::size_t metrics_at = metrics_not_object.find("\"metrics\": {");
  ASSERT_NE(metrics_at, std::string::npos);
  metrics_not_object.replace(metrics_at, 12, "\"metrics\": [], \"unused\": {");
  std::string non_numeric = committed;
  const std::string speedup = "\"predecode_speedup\": ";
  non_numeric.insert(non_numeric.find(speedup) + speedup.size(), "\"fast\", \"was\": ");
  const std::pair<const char*, std::string> bad[] = {
      {"truncated.json", committed.substr(0, committed.size() / 2)},
      {"metrics_array.json", metrics_not_object},
      {"metric_string.json", non_numeric},
  };
  for (const auto& [name, text] : bad) {
    SCOPED_TRACE(name);
    const std::string baseline = dir + "/" + name;
    std::ofstream(baseline) << text;
    EXPECT_EQ(preflight(baseline), 2);
    const std::string diagnostic = Slurp(err);
    EXPECT_NE(diagnostic.find(baseline), std::string::npos) << diagnostic;
    EXPECT_EQ(diagnostic.find("running"), std::string::npos) << diagnostic;
  }
  // The committed baseline itself passes pre-flight and reaches the
  // benchmarks (which then fail to start: exit 2 after announcing them).
  EXPECT_EQ(preflight(std::string(SEP_SOURCE_DIR) + "/BENCH_10.json"), 2);
  EXPECT_NE(Slurp(err).find("running bench_machine"), std::string::npos) << Slurp(err);
}

TEST(CliValidation, SepTraceRejectsBadArguments) {
  EXPECT_EQ(RunTool(Tool("sep_trace")), 2);  // no guests
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --steps abc guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --colour 99 guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --format bogus guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --format canonical guest.s"), 2);  // no --colour
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --exhaustive abc guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --exhaustive 0 guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --exhaustive -5 guest.s"), 2);
}

}  // namespace
}  // namespace sep
