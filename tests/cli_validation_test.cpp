// End-to-end CLI input validation: every tool must reject malformed numeric
// arguments with a non-zero exit and a usage message, and must exit 0 on
// --help. Runs the real binaries as subprocesses (SEP_TOOLS_DIR is injected
// by tests/CMakeLists.txt); each rejection here was a silent-zero bug when
// the tools still used atoi/strtod with no end-pointer checks.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

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

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

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
  result.out = ReadAll(out);
  result.err = ReadAll(err);
  result.metrics = ReadAll(metrics);
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

// Reads a whole file; empty string if it cannot be opened.
std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
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
