// Tests for the black-box flight recorder (common/blackbox.h), the durable
// run ledger (common/runledger.h) and the shared atomic-write helper
// (common/atomicio.h): ring recording, live flight-record snapshots, the
// kill matrix (each fatal signal raised in a forked child at an armed
// persistence/iteration point must yield a schema-valid crash report), and
// ledger append-crash consistency under injected I/O faults.

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "common/atomicio.h"
#include "common/blackbox.h"
#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/runledger.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/generators.h"
#include "support/json_reader.h"

// The kill matrix forks and dies on real signals; sanitizer runtimes
// install their own fatal-signal handlers and report the death as an
// error, so those tests are skipped under ASan.
#if defined(__SANITIZE_ADDRESS__)
#define BLACKBOX_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BLACKBOX_TEST_ASAN 1
#endif
#endif

namespace multiclust {
namespace {

std::string TempDir() {
  char tmpl[] = "/tmp/multiclust_blackbox_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : "/tmp";
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Matrix SmallData() {
  auto ds = MakeBlobs({{{0.0, 0.0}, 0.5, 40}, {{4.0, 4.0}, 0.5, 40}}, 11);
  EXPECT_TRUE(ds.ok());
  return ds->data();
}

// --- Ring recording --------------------------------------------------------

TEST(BlackboxTest, RecordsAndCountsEvents) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  blackbox::Reset();
  EXPECT_TRUE(blackbox::Enabled());
  const uint64_t before = blackbox::TotalRecords();
  blackbox::Record(blackbox::EventType::kIteration, "blackbox_test", 1);
  blackbox::Mark("blackbox_test.mark", 42);
  {
    MULTICLUST_TRACE_SPAN("blackbox_test.span");
  }
  EXPECT_EQ(blackbox::TotalRecords(), before + 4);
}

TEST(BlackboxTest, DisabledRecordingIsANoOp) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  blackbox::Reset();
  blackbox::SetEnabled(false);
  const uint64_t before = blackbox::TotalRecords();
  blackbox::Record(blackbox::EventType::kMark, "blackbox_test");
  EXPECT_EQ(blackbox::TotalRecords(), before);
  blackbox::SetEnabled(true);
}

TEST(BlackboxTest, RingOverwritesOldestBeyondCapacity) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  blackbox::Reset();
  const uint64_t before = blackbox::TotalRecords();
  for (size_t i = 0; i < 3 * blackbox::kRingCapacity; ++i) {
    blackbox::Record(blackbox::EventType::kMark, "blackbox_test.flood", i);
  }
  // Every record counts even though the ring only retains the newest
  // kRingCapacity of them.
  EXPECT_EQ(blackbox::TotalRecords(), before + 3 * blackbox::kRingCapacity);
  const json::Value doc =
      test::ParseJsonOrFail(blackbox::FlightRecordJson());
  const json::Value& threads = test::FieldOrFail(doc, "threads");
  size_t events = 0;
  for (const json::Value& thread : threads.array_items()) {
    events += test::FieldOrFail(thread, "events").size();
  }
  EXPECT_LE(events, blackbox::kRingCapacity);
  EXPECT_GT(events, 0u);
}

TEST(BlackboxTest, SpanHooksFireEvenWithTracerDisabled) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  trace::Disable();
  blackbox::Reset();
  const uint64_t before = blackbox::TotalRecords();
  {
    MULTICLUST_TRACE_SPAN("blackbox_test.always_on");
  }
  // One enter + one exit despite the tracer being off: the recorder is
  // the always-on black box, the tracer the opt-in profiler.
  EXPECT_EQ(blackbox::TotalRecords(), before + 2);
}

TEST(BlackboxTest, FreshWorkersRecordAfterManyPoolRespawns) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  auto ChunkSpans = [] {
    ParallelFor(0, 16, 1, [](size_t, size_t) {
      MULTICLUST_TRACE_SPAN("blackbox_test.chunk");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  };
  // Each SetThreadCount respawns the pool: 100 rounds of 3 workers outlive
  // more threads than the recorder has slots.
  for (int round = 0; round < 100; ++round) {
    SetThreadCount(4);
    ChunkSpans();
  }
  SetThreadCount(4);
  blackbox::Reset();
  blackbox::Mark("blackbox_test.main");
  const uint64_t before = blackbox::TotalRecords();
  ChunkSpans();
  // One enter and one exit per chunk span, wherever it ran.
  EXPECT_EQ(blackbox::TotalRecords(), before + 2 * 16);
  SetThreadCount(0);

  // Every chunk span is in the flight record, and some ran on a worker.
  const json::Value doc =
      test::ParseJsonOrFail(blackbox::FlightRecordJson());
  size_t spans = 0;
  size_t main_spans = 0;
  for (const json::Value& thread :
       test::FieldOrFail(doc, "threads").array_items()) {
    size_t chunk_spans = 0;
    bool is_main = false;
    for (const json::Value& event :
         test::FieldOrFail(thread, "events").array_items()) {
      const std::string name = event.GetString("name", "");
      is_main = is_main || name == "blackbox_test.main";
      if (event.GetString("type", "") == "span_enter" &&
          name == "blackbox_test.chunk") {
        ++chunk_spans;
      }
    }
    spans += chunk_spans;
    if (is_main) main_spans = chunk_spans;
  }
  EXPECT_EQ(spans, 16u);
  EXPECT_LT(main_spans, spans) << "no chunk span recorded on a pool worker";
}

// --- Live flight-record snapshots ------------------------------------------

TEST(BlackboxTest, FlightRecordJsonIsAValidSnapshotReport) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  blackbox::Reset();
  blackbox::Record(blackbox::EventType::kIteration, "blackbox_test.site", 7);
  blackbox::RecordCheckpoint(blackbox::EventType::kCheckpointWrite,
                             "blackbox_test.algo", 3);
  const json::Value doc =
      test::ParseJsonOrFail(blackbox::FlightRecordJson());
  EXPECT_EQ(doc.GetString("kind", ""), blackbox::kCrashReportKind);
  EXPECT_EQ(doc.GetNumber("schema_version", -1),
            blackbox::kCrashReportSchemaVersion);
  EXPECT_EQ(doc.GetNumber("signal", -1), 0);
  EXPECT_EQ(doc.GetString("signal_name", ""), "snapshot");
  EXPECT_TRUE(test::FieldOrFail(doc, "resource").is_object());
  const json::Value& ckpt = test::FieldOrFail(doc, "checkpoint");
  EXPECT_EQ(ckpt.GetNumber("last_sequence", -1), 3);
  EXPECT_EQ(ckpt.GetString("last_algorithm", ""), "blackbox_test.algo");
  const json::Value& threads = test::FieldOrFail(doc, "threads");
  ASSERT_TRUE(threads.is_array());
  ASSERT_GT(threads.size(), 0u);
  bool saw_iteration = false;
  for (const json::Value& thread : threads.array_items()) {
    for (const json::Value& event :
         test::FieldOrFail(thread, "events").array_items()) {
      if (event.GetString("type", "") == "iteration" &&
          event.GetString("name", "") == "blackbox_test.site" &&
          event.GetNumber("a", -1) == 7) {
        saw_iteration = true;
      }
    }
  }
  EXPECT_TRUE(saw_iteration);
}

TEST(BlackboxTest, FlightRecordCapturesOpenSpans) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  blackbox::Reset();
  MULTICLUST_TRACE_SPAN("blackbox_test.outer");
  MULTICLUST_TRACE_SPAN("blackbox_test.inner");
  const json::Value doc =
      test::ParseJsonOrFail(blackbox::FlightRecordJson());
  bool saw_stack = false;
  for (const json::Value& thread :
       test::FieldOrFail(doc, "threads").array_items()) {
    const json::Value& spans = test::FieldOrFail(thread, "open_spans");
    std::vector<std::string> names;
    for (const json::Value& s : spans.array_items()) {
      names.push_back(s.string_value());
    }
    if (names.size() >= 2 && names[names.size() - 2] == "blackbox_test.outer" &&
        names.back() == "blackbox_test.inner") {
      saw_stack = true;
    }
  }
  EXPECT_TRUE(saw_stack);
}

TEST(BlackboxTest, WriteFlightRecordValidatesAgainstSchema) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  const std::string dir = TempDir();
  const std::string path = dir + "/flight.json";
  blackbox::Reset();
  blackbox::Mark("blackbox_test.write");
  ASSERT_TRUE(blackbox::WriteFlightRecord(path).ok());
  const json::Value doc = test::ParseJsonOrFail(ReadAll(path));
  EXPECT_EQ(doc.GetString("kind", ""), blackbox::kCrashReportKind);
}

TEST(BlackboxTest, ResetClearsRingsAndCheckpointState) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  blackbox::RecordCheckpoint(blackbox::EventType::kCheckpointWrite, "algo",
                             9);
  blackbox::Reset();
  const json::Value doc =
      test::ParseJsonOrFail(blackbox::FlightRecordJson());
  EXPECT_EQ(test::FieldOrFail(doc, "checkpoint").GetNumber("snapshots", -1),
            0);
  for (const json::Value& thread :
       test::FieldOrFail(doc, "threads").array_items()) {
    EXPECT_EQ(test::FieldOrFail(thread, "events").size(), 0u);
  }
}

// --- Crash handler install/uninstall ---------------------------------------

TEST(CrashHandlerTest, RejectsEmptyPathAndDoubleInstall) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  EXPECT_FALSE(blackbox::InstallCrashHandler("").ok());
  const std::string dir = TempDir();
  ASSERT_TRUE(blackbox::InstallCrashHandler(dir + "/crash.json").ok());
  EXPECT_TRUE(blackbox::CrashHandlerInstalled());
  EXPECT_FALSE(blackbox::InstallCrashHandler(dir + "/other.json").ok());
  blackbox::UninstallCrashHandler();
  EXPECT_FALSE(blackbox::CrashHandlerInstalled());
  // Uninstall makes the slot reusable.
  ASSERT_TRUE(blackbox::InstallCrashHandler(dir + "/crash.json").ok());
  blackbox::UninstallCrashHandler();
}

// --- Kill matrix -----------------------------------------------------------

// Forks, installs the crash handler in the child, runs `child` (which must
// die on `expected_signal`), and returns the crash-report text the child
// left behind. The child exits 97/98 on setup failure / survival, which
// the WIFSIGNALED assertion below turns into a test failure.
template <typename ChildFn>
std::string RunKillChild(const std::string& report_path, int expected_signal,
                         ChildFn child) {
  const pid_t pid = fork();
  if (pid == 0) {
    blackbox::Reset();
    if (!blackbox::InstallCrashHandler(report_path).ok()) _exit(97);
    child();
    _exit(98);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status))
      << "child exited " << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of dying on signal " << expected_signal;
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), expected_signal);
  }
  return ReadAll(report_path);
}

// Shared schema assertions for a report produced by a real fatal signal.
void ExpectValidCrashReport(const std::string& text, int signal,
                            const std::string& signal_name) {
  ASSERT_FALSE(text.empty()) << "crash handler wrote no report";
  const json::Value doc = test::ParseJsonOrFail(text);
  EXPECT_EQ(doc.GetString("kind", ""), blackbox::kCrashReportKind);
  EXPECT_EQ(doc.GetNumber("schema_version", -1),
            blackbox::kCrashReportSchemaVersion);
  EXPECT_EQ(doc.GetNumber("signal", -1), signal);
  EXPECT_EQ(doc.GetString("signal_name", ""), signal_name);
  EXPECT_TRUE(test::FieldOrFail(doc, "resource").is_object());
  const json::Value& threads = test::FieldOrFail(doc, "threads");
  ASSERT_TRUE(threads.is_array());
  EXPECT_GT(threads.size(), 0u);
}

#if !defined(BLACKBOX_TEST_ASAN)

// SIGSEGV raised by the armed kRaiseSegv fault at a real iteration point
// of a checkpoint-armed k-means run: the report's event tail must name
// the active site and iteration, the open-span stack the workload span,
// and the pre-registered ledger line must land in the ledger.
TEST(CrashHandlerKillMatrix, SigsegvAtArmedIterationPoint) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
#if !defined(MULTICLUST_FAULT_INJECTION)
  GTEST_SKIP() << "fault injection compiled out";
#else
  const std::string dir = TempDir();
  const std::string report_path = dir + "/crash.json";
  const std::string ledger_path = dir + "/runs.jsonl";
  const Matrix data = SmallData();

  ledger::RunRecord crashed;
  crashed.run_id = "run-killmatrix";
  crashed.tool = "blackbox_test";
  crashed.status = "crashed";
  crashed.crash_report = report_path;
  const std::string crashed_line = ledger::RunRecordJson(crashed);

  const std::string text =
      RunKillChild(report_path, SIGSEGV, [&] {
        blackbox::SetCrashLedger(ledger_path, crashed_line);
        fault::Reset();
        // at_iteration 0: fire at the very first budget check — this tiny
        // well-separated workload can converge in one or two iterations,
        // so any later trigger point may never be reached.
        fault::Arm({"kmeans", FaultKind::kRaiseSegv, 0, 1});
        CheckpointPolicy policy;
        policy.every_iterations = 1;
        Checkpointer ck(dir, policy);
        KMeansOptions opts;
        opts.k = 2;
        opts.restarts = 1;
        opts.max_iters = 30;
        opts.seed = 3;
        opts.budget.checkpoint = &ck;
        MULTICLUST_TRACE_SPAN("blackbox_test.workload");
        (void)RunKMeans(data, opts);
      });
  ExpectValidCrashReport(text, SIGSEGV, "SIGSEGV");

  const json::Value doc = test::ParseJsonOrFail(text);
  bool saw_site_iteration = false;
  bool saw_workload_span = false;
  bool saw_fault = false;
  for (const json::Value& thread :
       test::FieldOrFail(doc, "threads").array_items()) {
    for (const json::Value& span :
         test::FieldOrFail(thread, "open_spans").array_items()) {
      if (span.string_value() == "blackbox_test.workload") {
        saw_workload_span = true;
      }
    }
    for (const json::Value& event :
         test::FieldOrFail(thread, "events").array_items()) {
      const std::string type = event.GetString("type", "");
      if (type == "iteration" && event.GetString("name", "") == "kmeans") {
        saw_site_iteration = true;
      }
      if (type == "fault" && event.GetString("name", "") == "kmeans") {
        saw_fault = true;
      }
    }
  }
  EXPECT_TRUE(saw_site_iteration)
      << "event tail should name the active site/iteration";
  EXPECT_TRUE(saw_workload_span)
      << "open-span stack should name the active span";
  EXPECT_TRUE(saw_fault) << "the armed fault fire should be on record";

  // The pre-registered "crashed" ledger record survived the signal.
  std::vector<ledger::RunRecord> records;
  ASSERT_TRUE(ledger::Read(ledger_path, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].run_id, "run-killmatrix");
  EXPECT_EQ(records[0].status, "crashed");
  EXPECT_EQ(records[0].crash_report, report_path);
#endif
}

TEST(CrashHandlerKillMatrix, SigbusSigabrtSigfpe) {
  if (!blackbox::kCompiledIn) GTEST_SKIP() << "blackbox compiled out";
  const struct {
    int signal;
    const char* name;
  } kMatrix[] = {
      {SIGBUS, "SIGBUS"}, {SIGABRT, "SIGABRT"}, {SIGFPE, "SIGFPE"}};
  for (const auto& entry : kMatrix) {
    SCOPED_TRACE(entry.name);
    const std::string dir = TempDir();
    const std::string report_path = dir + "/crash.json";
    const int sig = entry.signal;
    const std::string text = RunKillChild(report_path, sig, [sig] {
      blackbox::Mark("blackbox_test.before_signal", 1);
      std::raise(sig);
    });
    ExpectValidCrashReport(text, entry.signal, entry.name);
  }
}

#endif  // !BLACKBOX_TEST_ASAN

// --- Run ledger ------------------------------------------------------------

TEST(RunLedgerTest, GeneratesDistinctRunIds) {
  const std::string a = ledger::GenerateRunId(1);
  const std::string b = ledger::GenerateRunId(1);
  EXPECT_EQ(a.rfind("run-", 0), 0u);
  EXPECT_NE(a, b);
}

TEST(RunLedgerTest, RecordJsonCarriesEnvelopeAndBuildInfo) {
  ledger::RunRecord rec;
  rec.run_id = "run-test";
  rec.tool = "blackbox_test";
  rec.status = "ok";
  rec.seed = 42;
  rec.objective = 0.5;
  const json::Value doc = test::ParseJsonOrFail(ledger::RunRecordJson(rec));
  EXPECT_EQ(doc.GetString("kind", ""), ledger::kRunRecordKind);
  EXPECT_EQ(doc.GetNumber("schema_version", -1),
            ledger::kRunRecordSchemaVersion);
  EXPECT_EQ(doc.GetNumber("seed", -1), 42);
  EXPECT_EQ(doc.GetNumber("objective", -1), 0.5);
  const json::Value& build = test::FieldOrFail(doc, "build");
  EXPECT_FALSE(build.GetString("git_rev", "").empty());
  // Absent optional fields are omitted, not empty strings.
  EXPECT_EQ(doc.Find("crash_report"), nullptr);
  EXPECT_EQ(doc.Find("note"), nullptr);
}

TEST(RunLedgerTest, AppendReadRoundTrip) {
  const std::string path = TempDir() + "/runs.jsonl";
  ledger::RunRecord first;
  first.run_id = "run-1";
  first.tool = "blackbox_test";
  first.status = "crashed";
  first.exit_code = -1;
  first.seed = 7;
  first.fingerprint = "deadbeef";
  first.crash_report = "crash.json";
  ledger::RunRecord second;
  second.run_id = "run-2";
  second.tool = "blackbox_test";
  second.status = "ok";
  second.seed = 7;
  second.fingerprint = "deadbeef";
  second.objective = 0.25;
  second.note = "resume";
  ASSERT_TRUE(ledger::Append(path, first).ok());
  ASSERT_TRUE(ledger::Append(path, second).ok());

  std::vector<ledger::RunRecord> records;
  size_t skipped = 99;
  ASSERT_TRUE(ledger::Read(path, &records, &skipped).ok());
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].run_id, "run-1");
  EXPECT_EQ(records[0].status, "crashed");
  EXPECT_EQ(records[0].exit_code, -1);
  EXPECT_EQ(records[0].crash_report, "crash.json");
  EXPECT_TRUE(records[0].objective != records[0].objective)  // NaN
      << "objective should read back as NaN when absent";
  EXPECT_EQ(records[1].run_id, "run-2");
  EXPECT_EQ(records[1].fingerprint, records[0].fingerprint);
  EXPECT_EQ(records[1].objective, 0.25);
  EXPECT_EQ(records[1].note, "resume");
}

TEST(RunLedgerTest, ReadMissingFileIsNotFound) {
  std::vector<ledger::RunRecord> records;
  EXPECT_EQ(ledger::Read("/no/such/ledger.jsonl", &records).code(),
            StatusCode::kNotFound);
}

TEST(RunLedgerTest, ReaderSkipsForeignAndTornLines) {
  const std::string path = TempDir() + "/runs.jsonl";
  ledger::RunRecord rec;
  rec.run_id = "run-good";
  rec.tool = "blackbox_test";
  rec.status = "ok";
  ASSERT_TRUE(ledger::Append(path, rec).ok());
  {
    // Foreign junk plus a torn half-line with no newline, as a crash
    // mid-append would leave.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"kind\":\"something_else\"}\n";
    out << "{\"kind\":\"multiclust.run_record\",\"schema_ver";
  }
  std::vector<ledger::RunRecord> records;
  size_t skipped = 0;
  ASSERT_TRUE(ledger::Read(path, &records, &skipped).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].run_id, "run-good");
  EXPECT_EQ(skipped, 2u);
}

#if defined(MULTICLUST_FAULT_INJECTION)

TEST(RunLedgerTest, InjectedWriteFailLeavesLedgerUntouched) {
  const std::string path = TempDir() + "/runs.jsonl";
  ledger::RunRecord rec;
  rec.run_id = "run-a";
  rec.tool = "blackbox_test";
  rec.status = "ok";
  ASSERT_TRUE(ledger::Append(path, rec).ok());
  const std::string before = ReadAll(path);

  fault::Reset();
  fault::Arm({"ledger", FaultKind::kIoWriteFail, 0, 1});
  rec.run_id = "run-b";
  EXPECT_FALSE(ledger::Append(path, rec).ok());
  fault::Reset();
  EXPECT_EQ(ReadAll(path), before);
}

// Append-crash consistency: a torn append (kIoShortWrite at site
// "ledger") reports failure and leaves a half line, but every complete
// record before it — and every append after it — still reads back.
TEST(RunLedgerTest, TornAppendKeepsEarlierAndLaterRecordsReadable) {
  const std::string path = TempDir() + "/runs.jsonl";
  ledger::RunRecord rec;
  rec.tool = "blackbox_test";
  rec.status = "ok";
  rec.run_id = "run-before";
  ASSERT_TRUE(ledger::Append(path, rec).ok());

  fault::Reset();
  fault::Arm({"ledger", FaultKind::kIoShortWrite, 0, 1});
  rec.run_id = "run-torn";
  EXPECT_FALSE(ledger::Append(path, rec).ok());
  fault::Reset();

  rec.run_id = "run-after";
  ASSERT_TRUE(ledger::Append(path, rec).ok());

  std::vector<ledger::RunRecord> records;
  size_t skipped = 0;
  ASSERT_TRUE(ledger::Read(path, &records, &skipped).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].run_id, "run-before");
  EXPECT_EQ(records[1].run_id, "run-after");
  EXPECT_EQ(skipped, 1u)
      << "the torn half-line must be skipped, not fatal";
}

// --- atomicio / telemetry export under I/O faults --------------------------

TEST(AtomicIoTest, ShortWriteLeaksNoTempByDefault) {
  const std::string dir = TempDir();
  fault::Reset();
  fault::Arm({"atomicio_test", FaultKind::kIoShortWrite, 0, 1});
  atomicio::AtomicWriteOptions options;
  options.what = "atomicio_test";
  options.fault_site = "atomicio_test";
  EXPECT_FALSE(
      atomicio::AtomicWriteFile(dir, "out.txt", "0123456789", options).ok());
  fault::Reset();
  EXPECT_FALSE(FileExists(dir + "/out.txt.tmp")) << "temp file leaked";
  EXPECT_FALSE(FileExists(dir + "/out.txt"));
}

TEST(AtomicIoTest, ShortWriteKeepsTempWhenAskedTo) {
  const std::string dir = TempDir();
  fault::Reset();
  fault::Arm({"atomicio_test", FaultKind::kIoShortWrite, 0, 1});
  atomicio::AtomicWriteOptions options;
  options.what = "atomicio_test";
  options.fault_site = "atomicio_test";
  options.keep_temp_on_short_write = true;  // the checkpoint model
  EXPECT_FALSE(
      atomicio::AtomicWriteFile(dir, "out.txt", "0123456789", options).ok());
  fault::Reset();
  EXPECT_TRUE(FileExists(dir + "/out.txt.tmp"));
  EXPECT_FALSE(FileExists(dir + "/out.txt"));
}

TEST(AtomicIoTest, RenameFailLeaksNothing) {
  const std::string dir = TempDir();
  fault::Reset();
  fault::Arm({"atomicio_test", FaultKind::kIoRenameFail, 0, 1});
  atomicio::AtomicWriteOptions options;
  options.what = "atomicio_test";
  options.fault_site = "atomicio_test";
  EXPECT_FALSE(
      atomicio::AtomicWriteFile(dir, "out.txt", "0123456789", options).ok());
  fault::Reset();
  EXPECT_FALSE(FileExists(dir + "/out.txt.tmp")) << "temp file leaked";
  EXPECT_FALSE(FileExists(dir + "/out.txt"));
}

// The metrics exporter must never leak a temp file or leave a truncated
// exposition behind, whatever I/O fault fires at site "telemetry".
TEST(TelemetryExportFaultTest, FaultedSnapshotLeavesNoPartialArtifacts) {
  if (!telemetry::kTelemetryCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::string dir = TempDir();
  const std::string path = dir + "/metrics.prom";
  metrics::Reset();
  MC_METRIC_COUNT("blackbox_test.counter", 1);

  const FaultKind kinds[] = {FaultKind::kIoWriteFail,
                             FaultKind::kIoShortWrite,
                             FaultKind::kIoFsyncFail,
                             FaultKind::kIoRenameFail};
  for (const FaultKind kind : kinds) {
    SCOPED_TRACE(FaultKindName(kind));
    fault::Reset();
    fault::Arm({"telemetry", kind, 0, 1});
    EXPECT_FALSE(telemetry::WriteMetricsSnapshotNow(path).ok());
    fault::Reset();
    EXPECT_FALSE(FileExists(path + ".tmp")) << "temp file leaked";
    EXPECT_FALSE(FileExists(path))
        << "a failed export must not leave a (possibly truncated) file";
  }

  // And the clean path produces a complete exposition.
  ASSERT_TRUE(telemetry::WriteMetricsSnapshotNow(path).ok());
  const std::string text = ReadAll(path);
  EXPECT_NE(text.find("# EOF"), std::string::npos);
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// A faulted rewrite of an EXISTING exposition keeps the previous complete
// file in place (rename is the commit point; the temp never replaces it).
TEST(TelemetryExportFaultTest, FaultedRewriteKeepsPreviousSnapshot) {
  if (!telemetry::kTelemetryCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::string dir = TempDir();
  const std::string path = dir + "/metrics.prom";
  metrics::Reset();
  MC_METRIC_COUNT("blackbox_test.counter", 1);
  ASSERT_TRUE(telemetry::WriteMetricsSnapshotNow(path).ok());
  const std::string before = ReadAll(path);

  fault::Reset();
  fault::Arm({"telemetry", FaultKind::kIoShortWrite, 0, 1});
  EXPECT_FALSE(telemetry::WriteMetricsSnapshotNow(path).ok());
  fault::Reset();
  EXPECT_EQ(ReadAll(path), before);
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

#endif  // MULTICLUST_FAULT_INJECTION

}  // namespace
}  // namespace multiclust
