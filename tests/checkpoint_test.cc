// Checkpoint/resume suite: artifact fundamentals (CRC, atomic write,
// rotation), the corruption matrix (truncated file, flipped byte, wrong
// schema version, missing field — all fall back to a cold start with an
// attributed warning), and the crash/resume oracle: for every iterative
// algorithm, killing the run at EVERY persistence point and resuming must
// reproduce the uninterrupted run's labels and objectives bit-identically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "altspace/coala.h"
#include "altspace/dec_kmeans.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/runguard.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "multiview/co_em.h"
#include "subspace/orclus.h"
#include "subspace/proclus.h"

namespace multiclust {
namespace {

// ---- scratch-directory helper --------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/multiclust_ckpt_XXXXXX";
    char* got = mkdtemp(tmpl);
    path_ = got != nullptr ? got : "/tmp";
  }
  ~TempDir() {
    // Best-effort cleanup of the flat checkpoint files + the directory.
    Checkpointer(path_).Clear();
    remove(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Matrix BlobData(uint64_t seed = 21) {
  auto ds = MakeBlobs(
      {{{0, 0}, 0.6, 20}, {{6, 0}, 0.6, 20}, {{3, 5}, 0.6, 20}}, seed);
  return ds->data();
}

// ---- artifact fundamentals -----------------------------------------------

TEST(CheckpointStoreTest, Crc32KnownVectors) {
  // zlib's crc32("123456789") reference value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(CheckpointStoreTest, WriteRestoreRoundTrip) {
  TempDir dir;
  Checkpointer ck(dir.path());
  const Status st = ck.Flush("alg", 42, [](json::Writer* w) {
    w->BeginObject();
    w->Key("x");
    w->Double(0.1 + 0.2);  // a value with a non-trivial shortest form
    w->Key("v");
    ckpt::WriteU64(w, 0xDEADBEEFCAFEBABEULL);
    w->EndObject();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  auto restored = ck.TryRestore("alg", 42, nullptr);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sequence, 1u);
  EXPECT_EQ(restored->payload.GetNumber("x", 0.0), 0.1 + 0.2);
  auto v = ckpt::ReadU64(*restored->payload.Find("v"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0xDEADBEEFCAFEBABEULL);
}

TEST(CheckpointStoreTest, FingerprintMismatchIsStale) {
  TempDir dir;
  Checkpointer ck(dir.path());
  ASSERT_TRUE(ck.Flush("alg", 1, [](json::Writer* w) {
                  w->BeginObject();
                  w->EndObject();
                }).ok());
  RunDiagnostics diag;
  EXPECT_FALSE(ck.TryRestore("alg", 2, &diag).has_value());
  ASSERT_EQ(diag.warnings.size(), 1u);
  EXPECT_NE(diag.warnings[0].find("different configuration"),
            std::string::npos);
  // The matching fingerprint still restores.
  EXPECT_TRUE(ck.TryRestore("alg", 1, nullptr).has_value());
}

TEST(CheckpointStoreTest, AlgorithmSlotsAreIndependent) {
  TempDir dir;
  Checkpointer ck(dir.path());
  auto payload = [](json::Writer* w) {
    w->BeginObject();
    w->EndObject();
  };
  ASSERT_TRUE(ck.Flush("alpha", 7, payload).ok());
  ASSERT_TRUE(ck.Flush("beta", 7, payload).ok());
  EXPECT_TRUE(ck.TryRestore("alpha", 7, nullptr).has_value());
  EXPECT_TRUE(ck.TryRestore("beta", 7, nullptr).has_value());
  EXPECT_FALSE(ck.TryRestore("gamma", 7, nullptr).has_value());
}

TEST(CheckpointStoreTest, RotationKeepsExactlyN) {
  TempDir dir;
  CheckpointPolicy policy;
  policy.keep_last = 3;
  Checkpointer ck(dir.path(), policy);
  auto payload = [](json::Writer* w) {
    w->BeginObject();
    w->EndObject();
  };
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(ck.Flush("alg", 9, payload).ok());
  EXPECT_EQ(ck.snapshots_written(), 7u);
  // Newest survives with its original (monotonic) sequence number.
  auto restored = ck.TryRestore("alg", 9, nullptr);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sequence, 7u);
  // Exactly keep_last files remain: count via a fresh checkpointer's
  // Clear() after deleting — instead, probe the oldest surviving one by
  // corrupting newer files one at a time. Simpler: list via ifstream on
  // the known names.
  int present = 0;
  for (uint64_t seq = 1; seq <= 7; ++seq) {
    char name[128];
    std::snprintf(name, sizeof(name), "%s/alg.%020llu.ckpt.json",
                  dir.path().c_str(), static_cast<unsigned long long>(seq));
    std::ifstream f(name);
    if (f.good()) ++present;
  }
  EXPECT_EQ(present, 3);
}

TEST(CheckpointStoreTest, ClearRemovesEverything) {
  TempDir dir;
  Checkpointer ck(dir.path());
  auto payload = [](json::Writer* w) {
    w->BeginObject();
    w->EndObject();
  };
  ASSERT_TRUE(ck.Flush("a", 1, payload).ok());
  ASSERT_TRUE(ck.Flush("b", 1, payload).ok());
  ASSERT_TRUE(ck.Clear().ok());
  EXPECT_FALSE(ck.TryRestore("a", 1, nullptr).has_value());
  EXPECT_FALSE(ck.TryRestore("b", 1, nullptr).has_value());
}

TEST(CheckpointStoreTest, MissingDirectoryIsColdStartNotError) {
  Checkpointer ck("/tmp/multiclust_ckpt_does_not_exist_12345");
  RunDiagnostics diag;
  EXPECT_FALSE(ck.TryRestore("alg", 1, &diag).has_value());
  EXPECT_TRUE(diag.warnings.empty());  // absent dir = clean cold start
}

TEST(CheckpointStoreTest, NestedCheckpointDirectoryIsCreatedRecursively) {
  TempDir base;
  // Several missing levels at once — EnsureDir must behave like mkdir -p.
  const std::string nested = base.path() + "/runs/2026/shard-a";
  Checkpointer ck(nested);
  const Status st = ck.Flush("alg", 3, [](json::Writer* w) {
    w->BeginObject();
    w->EndObject();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(ck.TryRestore("alg", 3, nullptr).has_value());
  // Cleanup the nested tree (TempDir only removes its own level).
  ASSERT_TRUE(Checkpointer(nested).Clear().ok());
  remove(nested.c_str());
  remove((base.path() + "/runs/2026").c_str());
  remove((base.path() + "/runs").c_str());
}

// ---- corruption matrix ---------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ck_ = std::make_unique<Checkpointer>(dir_.path());
    const Status st = ck_->Flush("alg", 5, [](json::Writer* w) {
      w->BeginObject();
      w->Key("iter");
      w->Uint(12);
      w->EndObject();
    });
    ASSERT_TRUE(st.ok());
    char name[128];
    std::snprintf(name, sizeof(name), "%s/alg.%020llu.ckpt.json",
                  dir_.path().c_str(), 1ULL);
    path_ = name;
  }

  std::string ReadFile() {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  void WriteFile(const std::string& text) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << text;
  }

  // Restoring must fail, with exactly one warning mentioning `needle`.
  void ExpectColdStart(const char* needle) {
    RunDiagnostics diag;
    EXPECT_FALSE(ck_->TryRestore("alg", 5, &diag).has_value());
    ASSERT_EQ(diag.warnings.size(), 1u) << "warnings: " << diag.warnings.size();
    EXPECT_NE(diag.warnings[0].find(needle), std::string::npos)
        << diag.warnings[0];
  }

  TempDir dir_;
  std::unique_ptr<Checkpointer> ck_;
  std::string path_;
};

TEST_F(CorruptionTest, TruncatedFile) {
  const std::string text = ReadFile();
  WriteFile(text.substr(0, text.size() / 2));
  ExpectColdStart("corrupt");
}

TEST_F(CorruptionTest, FlippedByteInPayload) {
  std::string text = ReadFile();
  // Flip a digit inside the payload ("iter":12 -> "iter":13): the JSON
  // stays well-formed, only the CRC catches it.
  const size_t pos = text.find("\"iter\":12");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 8] = '3';
  WriteFile(text);
  ExpectColdStart("CRC-32");
}

TEST_F(CorruptionTest, WrongSchemaVersion) {
  std::string text = ReadFile();
  const std::string current =
      "\"schema_version\":" + std::to_string(kCheckpointSchemaVersion);
  const size_t pos = text.find(current);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, current.size(), "\"schema_version\":9");
  WriteFile(text);
  ExpectColdStart("unsupported schema");
}

TEST_F(CorruptionTest, WrongKind) {
  std::string text = ReadFile();
  const size_t pos = text.find("multiclust.checkpoint");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 21, "multiclust.elsewhiche");
  WriteFile(text);
  ExpectColdStart("unsupported schema");
}

TEST_F(CorruptionTest, MissingField) {
  // Drop the crc32 member entirely.
  std::string text = ReadFile();
  const size_t pos = text.find(",\"crc32\":");
  ASSERT_NE(pos, std::string::npos);
  const size_t end = text.find(',', pos + 1);
  ASSERT_NE(end, std::string::npos);
  text.erase(pos, end - pos);
  WriteFile(text);
  ExpectColdStart("missing payload or checksum");
}

TEST_F(CorruptionTest, OlderValidCheckpointStillRestores) {
  // A corrupt newest file falls back to the previous valid one.
  ASSERT_TRUE(ck_->Flush("alg", 5, [](json::Writer* w) {
                  w->BeginObject();
                  w->Key("iter");
                  w->Uint(20);
                  w->EndObject();
                }).ok());
  char newest[128];
  std::snprintf(newest, sizeof(newest), "%s/alg.%020llu.ckpt.json",
                dir_.path().c_str(), 2ULL);
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << "{garbage";
  }
  RunDiagnostics diag;
  auto restored = ck_->TryRestore("alg", 5, &diag);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sequence, 1u);
  EXPECT_EQ(restored->payload.GetNumber("iter", 0.0), 12.0);
  EXPECT_EQ(diag.warnings.size(), 1u);
}

// ---- serialization helpers ----------------------------------------------

TEST(CheckpointSerdeTest, RngRoundTripContinuesStream) {
  Rng a(12345);
  for (int i = 0; i < 17; ++i) a.NextU64();
  a.NextGaussian();  // prime the Box-Muller cache

  json::Writer w;
  ckpt::Archive(&w).Value(a);
  auto parsed = json::Parse(w.str());
  ASSERT_TRUE(parsed.ok());
  Rng b;
  ckpt::Archive in(*parsed);
  in.Value(b);
  ASSERT_TRUE(in.status().ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  EXPECT_EQ(a.NextGaussian(), b.NextGaussian());
}

TEST(CheckpointSerdeTest, MatrixRoundTripBitIdentical) {
  Matrix m(3, 2);
  Rng rng(7);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) m.at(i, j) = rng.NextGaussian() * 1e-7;
  }
  json::Writer w;
  ckpt::Archive(&w).Value(m);
  auto parsed = json::Parse(w.str());
  ASSERT_TRUE(parsed.ok());
  Matrix back;
  ckpt::Archive in(*parsed);
  in.Value(back);
  ASSERT_TRUE(in.status().ok());
  ASSERT_EQ(back.rows(), 3u);
  ASSERT_EQ(back.cols(), 2u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(m.at(i, j), back.at(i, j));  // bitwise, not approx
    }
  }
}

// A payload exercising every Archive field type, including the values
// JSON cannot carry natively.
struct AllFields {
  struct Inner {
    int x = 0;
    void Visit(ckpt::Archive& ar) { ar.Field("x", x); }
  };

  bool flag = true;
  int count = -7;
  size_t size = 42;
  uint64_t big = 0xFEDCBA9876543211ULL;  // > 2^53: a double would round it
  std::vector<double> doubles = {-0.0,
                                 std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 0.1 + 0.2};
  std::string text = "quote \" backslash \\ newline \n";
  StopReason reason = StopReason::kDeadline;
  Matrix matrix = Matrix::Identity(3);
  Rng rng{99};
  Status status = Status::IoError("disk full");
  RunDiagnostics diag;
  std::vector<std::vector<int>> nested = {{1, -2}, {}, {3}};
  std::vector<Inner> inners = {{4}, {-5}};
  bool present = false;
  double optional_value = 2.5;

  void Visit(ckpt::Archive& ar) {
    ar.Field("flag", flag)
        .Field("count", count)
        .Field("size", size)
        .Field("big", big)
        .Field("doubles", doubles)
        .Field("text", text)
        .Field("reason", reason)
        .Field("matrix", matrix)
        .Field("rng", rng)
        .Field("status", status)
        .Field("diag", diag)
        .Field("nested", nested)
        .Field("inners", inners);
    ar.Optional("present", present,
                [&] { ar.Field("optional_value", optional_value); });
  }
};

AllFields MakeAllFields(bool present) {
  AllFields f;
  f.present = present;
  for (int i = 0; i < 5; ++i) f.rng.NextU64();
  f.rng.NextGaussian();  // mid-stream, with a cached Box-Muller value
  f.diag.algorithm = "kmeans";
  f.diag.stop_reason = StopReason::kMaxIterations;
  f.diag.warnings = {"kmeans: w"};
  f.diag.trace.winning_restart = 1;
  f.diag.trace.points.push_back({1, 2, -3.5, 0.25, 1, -1.0});
  return f;
}

std::string WriteAll(AllFields& f) {
  json::Writer w;
  ckpt::Archive(&w).Value(f);
  return std::move(w).str();
}

// Reads `text` into a fresh AllFields; the Archive's status.
Status ReadAll(const std::string& text, AllFields* out) {
  auto parsed = json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  ckpt::Archive ar(*parsed);
  ar.Value(*out);
  return ar.status();
}

TEST(CheckpointSerdeTest, ArchiveWriteReadWriteIsByteIdentical) {
  for (bool present : {false, true}) {
    AllFields original = MakeAllFields(present);
    const std::string first = WriteAll(original);
    AllFields restored;
    restored.present = !present;
    restored.optional_value = 0.0;
    ASSERT_TRUE(ReadAll(first, &restored).ok()) << first;
    EXPECT_EQ(WriteAll(restored), first);

    EXPECT_EQ(restored.present, present);
    EXPECT_EQ(restored.big, original.big);
    EXPECT_TRUE(std::signbit(restored.doubles[0]));  // -0.0 survives
    EXPECT_TRUE(std::isnan(restored.doubles[1]));    // NaN/inf read as NaN
    EXPECT_EQ(restored.doubles[4], 0.1 + 0.2);
    EXPECT_EQ(restored.text, original.text);
    EXPECT_EQ(restored.reason, StopReason::kDeadline);
    EXPECT_EQ(restored.status.code(), StatusCode::kIoError);
    EXPECT_EQ(restored.diag.trace.points.size(), 1u);
    EXPECT_EQ(restored.rng.NextU64(), original.rng.NextU64());
    EXPECT_EQ(restored.rng.NextGaussian(), original.rng.NextGaussian());
  }
}

TEST(CheckpointSerdeTest, ArchiveRejectsMissingAndMistypedFields) {
  AllFields original = MakeAllFields(true);
  const std::string text = WriteAll(original);
  const auto expect_rejected = [&](const std::string& from,
                                   const std::string& to,
                                   const std::string& needle) {
    std::string edited = text;
    const size_t pos = edited.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    edited.replace(pos, from.size(), to);
    AllFields restored;
    const Status st = ReadAll(edited, &restored);
    EXPECT_EQ(st.code(), StatusCode::kComputationError) << st.ToString();
    EXPECT_NE(st.message().find(needle), std::string::npos)
        << st.ToString();
  };
  // Missing field.
  expect_rejected("\"count\":-7,", "", "'count' is missing");
  // A string field holding a number.
  expect_rejected("\"algorithm\":\"kmeans\"", "\"algorithm\":3",
                  "'algorithm' is not a string");
  // An out-of-range enum (StopReason has four values).
  expect_rejected("\"reason\":2", "\"reason\":9", "'reason' is out of range");
}

TEST(CheckpointSerdeTest, FingerprintSensitivity) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0;
  const uint64_t base =
      Fingerprint().Mix("alg").Mix(uint64_t{3}).Mix(m).value();
  EXPECT_EQ(base, Fingerprint().Mix("alg").Mix(uint64_t{3}).Mix(m).value());
  EXPECT_NE(base, Fingerprint().Mix("alg").Mix(uint64_t{4}).Mix(m).value());
  m.at(1, 1) = 1e-300;
  EXPECT_NE(base, Fingerprint().Mix("alg").Mix(uint64_t{3}).Mix(m).value());
}

// ---- crash/resume oracle -------------------------------------------------

#if defined(MULTICLUST_FAULT_INJECTION)

// Runs `run(ck, cancel, diag)` killing it at persistence point
// `crash_step` (snapshot-then-abort), resumes it once under a pre-cancelled
// token, then resumes it to completion from the checkpoint directory.
// Returns the number of crash points exercised before the run completes
// without the fault firing.
//
// The oracle: every completed result must equal the baseline bit-for-bit
// (the caller's `compare` enforces it), and its convergence trace must
// equal `want` (winner; every point's restart, iteration, objective, delta
// and reseeds — budget_remaining_ms is wall-clock). The cancelled resume
// must stop with kCancelled and flush a snapshot at its first cancellation
// check; when the restored state has no iteration left to run it completes
// instead, and that result must match too. `flushes_on_cancel` is false
// for composites whose cancellation check precedes the checkpointed
// algorithm (nothing new to flush; the crash snapshot remains).
template <typename RunFn, typename CompareFn>
int CrashAtEveryStep(const std::string& site, RunFn&& run,
                     CompareFn&& compare, const ConvergenceTrace& want,
                     bool flushes_on_cancel = true, int max_steps = 200) {
  const auto check = [&](const auto& result, const RunDiagnostics& diag) {
    compare(result);
    EXPECT_EQ(diag.trace.winning_restart, want.winning_restart) << site;
    ASSERT_EQ(diag.trace.points.size(), want.points.size()) << site;
    for (size_t i = 0; i < want.points.size(); ++i) {
      const ConvergencePoint& got = diag.trace.points[i];
      const ConvergencePoint& exp = want.points[i];
      EXPECT_EQ(got.restart, exp.restart) << site << " point " << i;
      EXPECT_EQ(got.iteration, exp.iteration) << site << " point " << i;
      EXPECT_EQ(got.objective, exp.objective) << site << " point " << i;
      EXPECT_EQ(got.delta, exp.delta) << site << " point " << i;
      EXPECT_EQ(got.reseeds, exp.reseeds) << site << " point " << i;
    }
  };
  int exercised = 0;
  for (int crash_step = 0; crash_step < max_steps; ++crash_step) {
    TempDir dir;
    CheckpointPolicy policy;  // every persistence point
    Checkpointer ck(dir.path(), policy);

    fault::Reset();
    FaultSpec spec;
    spec.site = site;
    spec.kind = FaultKind::kCrash;
    spec.at_iteration = static_cast<size_t>(crash_step);
    spec.max_fires = 1;
    fault::Arm(spec);
    RunDiagnostics crash_diag;
    auto crashed = run(&ck, nullptr, &crash_diag);
    fault::Reset();
    if (crashed.ok()) {
      // The run outlived every persistence point: the sweep is complete.
      check(*crashed, crash_diag);
      return exercised;
    }
    EXPECT_EQ(crashed.status().code(), StatusCode::kAborted)
        << crashed.status().ToString();

    // Resume under a pre-cancelled token: same directory, no armed fault.
    CancelToken cancelled;
    cancelled.Cancel();
    Checkpointer cancel_ck(dir.path(), policy);
    RunDiagnostics cancel_diag;
    auto stopped = run(&cancel_ck, &cancelled, &cancel_diag);
    if (stopped.ok()) {
      check(*stopped, cancel_diag);
    } else {
      EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled)
          << site << " at step " << crash_step << ": "
          << stopped.status().ToString();
      if (flushes_on_cancel) {
        EXPECT_GE(cancel_ck.snapshots_written(), 1u)
            << site << ": no flush on cancellation at step " << crash_step;
      }
    }

    // Resume to completion.
    Checkpointer resume_ck(dir.path(), policy);
    RunDiagnostics diag;
    auto resumed = run(&resume_ck, nullptr, &diag);
    if (!resumed.ok()) {
      ADD_FAILURE() << site << ": resume after crash at step " << crash_step
                    << " failed: " << resumed.status().ToString();
      return exercised;
    }
    check(*resumed, diag);
    ++exercised;
  }
  ADD_FAILURE() << site << ": run still crashing after " << max_steps
                << " persistence points";
  return exercised;
}

TEST(CrashResumeTest, KMeansBitIdenticalAtEveryStep) {
  const Matrix data = BlobData();
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 3;
  opts.max_iters = 12;
  opts.seed = 77;

  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    KMeansOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    o.diagnostics = diag;
    return RunKMeans(data, o);
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const Clustering& c) {
    EXPECT_EQ(c.labels, baseline->labels);
    EXPECT_EQ(c.quality, baseline->quality);  // bitwise
    EXPECT_EQ(c.iterations, baseline->iterations);
    EXPECT_EQ(c.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("kmeans", run, compare, want.trace);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, GmmBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(31);
  GmmOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.max_iters = 10;
  opts.seed = 5;

  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    GmmOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    o.diagnostics = diag;
    return RunGmm(data, o);
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const Clustering& c) {
    EXPECT_EQ(c.labels, baseline->labels);
    EXPECT_EQ(c.quality, baseline->quality);  // bitwise log-likelihood
    EXPECT_EQ(c.iterations, baseline->iterations);
    EXPECT_EQ(c.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("gmm", run, compare, want.trace);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, SpectralBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(11);
  SpectralOptions opts;
  opts.k = 3;
  opts.kmeans_restarts = 2;
  opts.seed = 9;

  // Spectral checkpoints live in the embedded k-means slot, so the crash
  // site is "kmeans"; the whole front half (affinity, eigensolve, embed)
  // is deterministic recomputation on resume.
  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    SpectralOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    o.diagnostics = diag;
    return RunSpectral(data, o);
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const Clustering& c) {
    EXPECT_EQ(c.labels, baseline->labels);
    EXPECT_EQ(c.quality, baseline->quality);
    EXPECT_EQ(c.iterations, baseline->iterations);
    EXPECT_EQ(c.converged, baseline->converged);
  };
  // A pre-cancelled spectral run stops before its embedded k-means, so
  // the cancel leg flushes nothing; the crash snapshot remains.
  const int exercised = CrashAtEveryStep("kmeans", run, compare, want.trace,
                                         /*flushes_on_cancel=*/false);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, DecKMeansBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(41);
  DecKMeansOptions opts;
  opts.ks = {2, 2};
  opts.restarts = 2;
  opts.max_iters = 8;
  opts.seed = 13;

  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    DecKMeansOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    o.diagnostics = diag;
    return RunDecorrelatedKMeans(data, o);
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const DecKMeansResult& r) {
    ASSERT_EQ(r.solutions.size(), baseline->solutions.size());
    for (size_t t = 0; t < r.solutions.size(); ++t) {
      EXPECT_EQ(r.solutions.at(t).labels, baseline->solutions.at(t).labels);
      EXPECT_EQ(r.solutions.at(t).quality, baseline->solutions.at(t).quality);
    }
    EXPECT_EQ(r.objective, baseline->objective);  // bitwise
    EXPECT_EQ(r.history, baseline->history);
    EXPECT_EQ(r.iterations, baseline->iterations);
    EXPECT_EQ(r.converged, baseline->converged);
  };
  const int exercised =
      CrashAtEveryStep("dec-kmeans", run, compare, want.trace);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, CoalaBitIdenticalAtEveryStep) {
  // Small n: COALA has one persistence point per merge (n - k of them) and
  // the sweep reruns the whole dendrogram per crash point.
  auto ds = MakeBlobs({{{0, 0}, 0.6, 8}, {{6, 0}, 0.6, 8}, {{3, 5}, 0.6, 8}},
                      51);
  const Matrix data = ds->data();
  // Given clustering: the generating blob index (8 points per blob).
  std::vector<int> given(data.rows());
  for (size_t i = 0; i < given.size(); ++i) {
    given[i] = static_cast<int>(i / 8);
  }
  CoalaOptions opts;
  opts.k = 3;
  opts.w = 0.8;

  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    CoalaOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    o.diagnostics = diag;
    return RunCoala(data, given, o);
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const Clustering& c) {
    EXPECT_EQ(c.labels, baseline->labels);
    EXPECT_EQ(c.iterations, baseline->iterations);
    EXPECT_EQ(c.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("coala", run, compare, want.trace);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, CoEmBitIdenticalAtEveryStep) {
  const Matrix view1 = BlobData(61);
  const Matrix view2 = BlobData(62);  // same n, independent geometry
  CoEmOptions opts;
  opts.k = 3;
  opts.max_iters = 15;
  opts.patience = 3;
  opts.seed = 17;

  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    CoEmOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    o.diagnostics = diag;
    return RunCoEm(view1, view2, o);
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const CoEmResult& r) {
    EXPECT_EQ(r.labels_view1, baseline->labels_view1);
    EXPECT_EQ(r.labels_view2, baseline->labels_view2);
    EXPECT_EQ(r.consensus.labels, baseline->consensus.labels);
    EXPECT_EQ(r.log_likelihood_view1, baseline->log_likelihood_view1);
    EXPECT_EQ(r.log_likelihood_view2, baseline->log_likelihood_view2);
    EXPECT_EQ(r.agreement, baseline->agreement);
    EXPECT_EQ(r.iterations, baseline->iterations);
    EXPECT_EQ(r.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("co-em", run, compare, want.trace);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, OrclusBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(71);
  OrclusOptions opts;
  opts.k = 3;
  opts.l = 2;
  opts.a_factor = 2;
  opts.max_iters = 5;
  opts.restarts = 2;
  opts.seed = 23;

  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    OrclusOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    o.diagnostics = diag;
    return RunOrclus(data, o);
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const OrclusResult& r) {
    EXPECT_EQ(r.clustering.labels, baseline->clustering.labels);
    EXPECT_EQ(r.projected_energy, baseline->projected_energy);  // bitwise
    EXPECT_EQ(r.clustering.iterations, baseline->clustering.iterations);
    EXPECT_EQ(r.clustering.converged, baseline->clustering.converged);
    ASSERT_EQ(r.subspaces.size(), baseline->subspaces.size());
  };
  const int exercised = CrashAtEveryStep("orclus", run, compare, want.trace);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, ProclusBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(81);
  ProclusOptions opts;
  opts.k = 3;
  opts.avg_dims = 2;
  opts.max_iters = 8;
  opts.seed = 29;

  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    ProclusOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    o.diagnostics = diag;
    return RunProclus(data, o);
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const ProclusResult& r) {
    EXPECT_EQ(r.clustering.labels, baseline->clustering.labels);
    EXPECT_EQ(r.clustering.quality, baseline->clustering.quality);
    EXPECT_EQ(r.clustering.iterations, baseline->clustering.iterations);
    EXPECT_EQ(r.clustering.converged, baseline->clustering.converged);
    EXPECT_EQ(r.dims, baseline->dims);
  };
  const int exercised = CrashAtEveryStep("proclus", run, compare, want.trace);
  EXPECT_GT(exercised, 0);
}

// Compares every deterministic field of a DiscoveryReport (wall-clock
// timings excluded) bit-for-bit.
void ExpectReportsEqual(const DiscoveryReport& got,
                        const DiscoveryReport& want) {
  EXPECT_EQ(got.chosen_k, want.chosen_k);
  EXPECT_EQ(got.strategy_name, want.strategy_name);
  EXPECT_EQ(got.warnings, want.warnings);
  EXPECT_EQ(got.degraded, want.degraded);
  ASSERT_EQ(got.solutions.size(), want.solutions.size());
  for (size_t s = 0; s < got.solutions.size(); ++s) {
    EXPECT_EQ(got.solutions.at(s).labels, want.solutions.at(s).labels);
    EXPECT_EQ(got.solutions.at(s).quality, want.solutions.at(s).quality);
    EXPECT_EQ(got.solutions.at(s).algorithm, want.solutions.at(s).algorithm);
  }
  EXPECT_EQ(got.objective.qualities, want.objective.qualities);
  EXPECT_EQ(got.objective.mean_quality, want.objective.mean_quality);
  EXPECT_EQ(got.objective.mean_dissimilarity,
            want.objective.mean_dissimilarity);
  EXPECT_EQ(got.objective.combined, want.objective.combined);
  ASSERT_EQ(got.attempts.size(), want.attempts.size());
  for (size_t a = 0; a < got.attempts.size(); ++a) {
    EXPECT_EQ(got.attempts[a].algorithm, want.attempts[a].algorithm);
    EXPECT_EQ(got.attempts[a].iterations, want.attempts[a].iterations);
    EXPECT_EQ(got.attempts[a].converged, want.attempts[a].converged);
  }
}

// Crash inside the strategy (the inner dec-kmeans persistence points): the
// kAborted must propagate out of the pipeline un-salvaged, and the resumed
// discovery must replay the inner algorithm from its own checkpoint slot.
TEST(CrashResumeTest, PipelineInnerCrashBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(91);
  DiscoveryOptions opts;
  opts.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
  opts.num_solutions = 2;
  opts.k = 3;
  opts.seed = 43;

  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    DiscoveryOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    auto report = DiscoverMultipleClusterings(data, o);
    // The pipeline has no diagnostics sink of its own: the trace leg
    // checks the solving attempt's trace, restored through the ledger.
    if (report.ok()) *diag = report->attempts.back();
    return report;
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const DiscoveryReport& r) {
    ExpectReportsEqual(r, *baseline);
  };
  const int exercised =
      CrashAtEveryStep("dec-kmeans", run, compare, want.trace);
  EXPECT_GT(exercised, 0);
}

// Crash at the pipeline's own stage boundaries (after model selection, after
// a solved attempt). k = 0 so the restored chosen_k actually carries the
// model-selection stage across the crash.
TEST(CrashResumeTest, PipelineStageCrashBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(92);
  DiscoveryOptions opts;
  opts.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
  opts.num_solutions = 2;
  opts.k = 0;  // exercise SelectKBySilhouette + the chosen_k snapshot
  opts.max_k = 4;
  opts.seed = 47;

  auto run = [&](Checkpointer* ck, const CancelToken* cancel,
                 RunDiagnostics* diag) {
    DiscoveryOptions o = opts;
    o.budget.checkpoint = ck;
    o.budget.cancel = cancel;
    auto report = DiscoverMultipleClusterings(data, o);
    // The pipeline has no diagnostics sink of its own: the trace leg
    // checks the solving attempt's trace, restored through the ledger.
    if (report.ok()) *diag = report->attempts.back();
    return report;
  };
  RunDiagnostics want;
  auto baseline = run(nullptr, nullptr, &want);
  ASSERT_TRUE(baseline.ok());
  auto compare = [&](const DiscoveryReport& r) {
    ExpectReportsEqual(r, *baseline);
  };
  const int exercised = CrashAtEveryStep("pipeline", run, compare, want.trace);
  EXPECT_GT(exercised, 0);
}

// ---- rotation under injected I/O failure ---------------------------------

// The invariant these tests pin down: keep-last-N rotation must never
// delete the last good snapshot when a newer write failed. Every failed
// write is detected (reported error or read-back verification), does not
// count as written, and leaves the previous snapshot restorable.
class RotationUnderIoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    CheckpointPolicy policy;
    policy.keep_last = 1;  // tightest rotation: one bad write is fatal
    ck_ = std::make_unique<Checkpointer>(dir_.path(), policy);
    ASSERT_TRUE(ck_->Flush("alg", 1, Payload()).ok());  // write attempt 0
    ASSERT_EQ(ck_->snapshots_written(), 1u);
  }
  void TearDown() override { fault::Reset(); }

  static FunctionRef<void(json::Writer*)> Payload() {
    static const auto payload = [](json::Writer* w) {
      w->BeginObject();
      w->Key("iter");
      w->Uint(7);
      w->EndObject();
    };
    return payload;
  }

  // Arms `kind` against the second write attempt (io_step 1).
  void ArmAtNextWrite(FaultKind kind) {
    FaultSpec spec;
    spec.site = "checkpoint";
    spec.kind = kind;
    spec.at_iteration = 1;
    spec.max_fires = 1;
    fault::Arm(spec);
  }

  void ExpectLastGoodSnapshotSurvives() {
    EXPECT_EQ(ck_->snapshots_written(), 1u);
    auto restored = ck_->TryRestore("alg", 1, nullptr);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->sequence, 1u);
    // And the channel recovers: the next clean write rotates normally.
    fault::Reset();
    ASSERT_TRUE(ck_->Flush("alg", 1, Payload()).ok());
    auto newest = ck_->TryRestore("alg", 1, nullptr);
    ASSERT_TRUE(newest.has_value());
    EXPECT_GT(newest->sequence, 1u);
  }

  TempDir dir_;
  std::unique_ptr<Checkpointer> ck_;
};

TEST_F(RotationUnderIoFaultTest, FailedWrite) {
  ArmAtNextWrite(FaultKind::kIoWriteFail);
  EXPECT_FALSE(ck_->Flush("alg", 1, Payload()).ok());
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, ShortWrite) {
  ArmAtNextWrite(FaultKind::kIoShortWrite);
  EXPECT_FALSE(ck_->Flush("alg", 1, Payload()).ok());
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, FailedFsync) {
  ArmAtNextWrite(FaultKind::kIoFsyncFail);
  EXPECT_FALSE(ck_->Flush("alg", 1, Payload()).ok());
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, FailedRename) {
  ArmAtNextWrite(FaultKind::kIoRenameFail);
  EXPECT_FALSE(ck_->Flush("alg", 1, Payload()).ok());
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, TornWriteIsCaughtByReadBackVerification) {
  ArmAtNextWrite(FaultKind::kIoTornWrite);
  // The tear itself is silent — the write path reports success — so only
  // read-back verification stands between it and the rotation pass.
  const Status st = ck_->Flush("alg", 1, Payload());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("read-back"), std::string::npos);
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, CorruptAfterWriteIsCaughtByRestoreCrc) {
  // kCheckpointCorrupt models post-write bit rot: the snapshot counts (it
  // was genuinely good when written), but restore must reject it and fall
  // back to the previous good snapshot.
  // keep_last = 1 would rotate the good file out before the rot lands, so
  // use a fresh channel (own write-attempt counter) with room for both.
  CheckpointPolicy policy;
  policy.keep_last = 2;
  Checkpointer ck(dir_.path(), policy);
  FaultSpec rot;
  rot.site = "checkpoint";
  rot.kind = FaultKind::kCheckpointCorrupt;
  rot.at_iteration = 0;  // the fresh channel's first write attempt
  rot.max_fires = 1;
  fault::Arm(rot);
  ASSERT_TRUE(ck.Flush("alg", 1, Payload()).ok());  // written, then rotted
  fault::Reset();
  RunDiagnostics diag;
  auto restored = ck.TryRestore("alg", 1, &diag);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sequence, 1u);  // the older, still-good snapshot
  EXPECT_FALSE(diag.warnings.empty());
}

#endif  // MULTICLUST_FAULT_INJECTION

}  // namespace
}  // namespace multiclust
