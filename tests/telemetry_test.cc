// Telemetry-plane suite: live progress events (schema + streaming),
// per-run resource accounting, the span sampler, and the v2 report schema
// carrying ResourceProfile sections. Tests that need the capture machinery
// skip themselves when it is compiled out (-DMULTICLUST_TRACING=OFF); the
// report round-trip tests always run — the serialized schema is
// build-independent.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cluster/kmeans.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/profile.h"
#include "common/report.h"
#include "common/runguard.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "support/json_reader.h"

namespace multiclust {
namespace {

Matrix TestData(uint64_t seed) {
  std::vector<ViewSpec> views(2);
  views[0] = {2, 2, 12.0, 0.8, ""};
  views[1] = {2, 2, 8.0, 0.8, ""};
  return MakeMultiView(120, views, 1, seed)->data();
}

// Collects every dispatched event in memory.
struct CollectingSink : telemetry::ProgressSink {
  void OnEvent(const telemetry::ProgressEvent& event) override {
    events.push_back(event);
  }
  std::vector<telemetry::ProgressEvent> events;
};

// RAII: sink installed for the test body, uninstalled before destruction.
struct SinkSession {
  explicit SinkSession(telemetry::ProgressSink* sink) {
    telemetry::SetProgressSink(sink);
  }
  ~SinkSession() { telemetry::SetProgressSink(nullptr); }
};

TEST(ProgressEventTest, JsonOmitsInapplicableFields) {
  if (!telemetry::kTelemetryCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::ProgressEvent event;
  event.stage = "kmeans";
  event.phase = "start";
  const std::string json = telemetry::ProgressEventJson(event, 1, 2.5);
  EXPECT_TRUE(test::IsValidJson(json)) << json;
  auto parsed = json::Parse(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("kind", ""), "multiclust.progress");
  EXPECT_EQ(parsed->GetNumber("schema_version", -1),
            telemetry::kProgressSchemaVersion);
  EXPECT_EQ(parsed->GetNumber("seq", -1), 1.0);
  EXPECT_EQ(parsed->GetNumber("elapsed_ms", -1), 2.5);
  EXPECT_EQ(parsed->GetString("stage", ""), "kmeans");
  EXPECT_EQ(parsed->GetString("phase", ""), "start");
  // Defaults mean "not applicable" and must be absent, not null/NaN.
  EXPECT_EQ(parsed->Find("restart"), nullptr);
  EXPECT_EQ(parsed->Find("iteration"), nullptr);
  EXPECT_EQ(parsed->Find("objective"), nullptr);
  EXPECT_EQ(parsed->Find("delta"), nullptr);
  EXPECT_EQ(parsed->Find("budget_remaining_ms"), nullptr);
  EXPECT_EQ(parsed->Find("eta_ms"), nullptr);
  EXPECT_EQ(parsed->Find("terminal"), nullptr);
}

TEST(ProgressEventTest, JsonCarriesAllFields) {
  if (!telemetry::kTelemetryCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::ProgressEvent event;
  event.stage = "gmm";
  event.phase = "iteration";
  event.restart = 2;
  event.iteration = 17;
  event.objective = -123.5;
  event.delta = 0.25;
  event.budget_remaining_ms = 900.0;
  event.eta_ms = 40.0;
  event.terminal = true;
  const std::string json = telemetry::ProgressEventJson(event, 9, 100.0);
  auto parsed = json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed->GetNumber("restart", -1), 2.0);
  EXPECT_EQ(parsed->GetNumber("iteration", -1), 17.0);
  EXPECT_EQ(parsed->GetNumber("objective", 0), -123.5);
  EXPECT_EQ(parsed->GetNumber("delta", 0), 0.25);
  EXPECT_EQ(parsed->GetNumber("budget_remaining_ms", 0), 900.0);
  EXPECT_EQ(parsed->GetNumber("eta_ms", 0), 40.0);
  EXPECT_TRUE(parsed->GetBool("terminal", false));
}

TEST(ProgressStreamTest, RecorderStreamsIterationEvents) {
  if (!telemetry::kTelemetryCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  CollectingSink sink;
  SinkSession session(&sink);
  ASSERT_TRUE(telemetry::ProgressEnabled());

  const Matrix data = TestData(11);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.seed = 7;
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunKMeans(data, opts).ok());
  telemetry::EmitStage("run", "complete", /*terminal=*/true);

  ASSERT_FALSE(sink.events.empty());
  size_t iteration_events = 0;
  bool saw_eta = false;
  for (const telemetry::ProgressEvent& e : sink.events) {
    EXPECT_FALSE(e.stage.empty());
    if (e.phase == "iteration") {
      ++iteration_events;
      EXPECT_GE(e.iteration, 0);
      EXPECT_GE(e.restart, 0);
      if (!std::isnan(e.eta_ms)) saw_eta = true;
    }
  }
  // One event per recorded outer iteration, then the recorder's "end" and
  // the explicit terminal event.
  EXPECT_GT(iteration_events, 0u);
  EXPECT_TRUE(saw_eta) << "ETA should appear once cadence is established";
  EXPECT_TRUE(sink.events.back().terminal);
  EXPECT_EQ(sink.events.back().phase, "complete");

  // Uninstalled sink receives nothing.
  telemetry::SetProgressSink(nullptr);
  const size_t before = sink.events.size();
  telemetry::EmitStage("run", "start");
  EXPECT_EQ(sink.events.size(), before);
}

TEST(ProgressStreamTest, NdjsonSinkWritesValidStream) {
  if (!telemetry::kTelemetryCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::string path = ::testing::TempDir() + "telemetry_progress.ndjson";
  {
    telemetry::NdjsonProgressSink sink(std::fopen(path.c_str(), "w"),
                                       /*take_ownership=*/true);
    SinkSession session(&sink);
    telemetry::EmitStage("pipeline", "start");
    telemetry::ProgressEvent event;
    event.stage = "kmeans";
    event.phase = "iteration";
    event.iteration = 0;
    event.objective = 10.0;
    telemetry::EmitProgress(event);
    telemetry::EmitStage("run", "complete", /*terminal=*/true);
    EXPECT_EQ(sink.events_written(), 3u);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());

  // Three lines, each a self-contained JSON object, seq strictly
  // increasing, last one terminal.
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < content.size()) {
    const size_t eol = content.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "stream must end with a newline";
    lines.push_back(content.substr(pos, eol - pos));
    pos = eol + 1;
  }
  ASSERT_EQ(lines.size(), 3u) << content;
  double last_seq = 0.0;
  for (const std::string& line : lines) {
    auto parsed = json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed->GetString("kind", ""), "multiclust.progress");
    const double seq = parsed->GetNumber("seq", -1);
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
  }
  auto last = json::Parse(lines.back());
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(last->GetBool("terminal", false));
}

TEST(ResourceProfileTest, ScopeCapturesMonotonicCounters) {
  if (!telemetry::kProfileCompiledIn) {
    GTEST_SKIP() << "profiling compiled out";
  }
  telemetry::ResourceScope scope;
  Matrix a(64, 64);
  const telemetry::ResourceProfile first = scope.Snapshot();
  EXPECT_TRUE(first.captured);
  EXPECT_GE(first.alloc_count, 1u);
  EXPECT_GE(first.alloc_bytes, 64u * 64u * sizeof(double));

  // More work strictly grows the tallies; clocks never run backwards.
  Matrix b(128, 128);
  volatile double sink = 0.0;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(5);
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  const telemetry::ResourceProfile second = scope.Snapshot();
  EXPECT_GT(second.wall_ms, first.wall_ms);
  EXPECT_GE(second.user_cpu_ms, first.user_cpu_ms);
  EXPECT_GE(second.system_cpu_ms, first.system_cpu_ms);
  EXPECT_GE(second.minor_faults, first.minor_faults);
  EXPECT_GE(second.major_faults, first.major_faults);
  EXPECT_GT(second.alloc_count, first.alloc_count);
  EXPECT_GE(second.alloc_bytes,
            first.alloc_bytes + 128u * 128u * sizeof(double));
  EXPECT_GE(second.flops, first.flops);
  EXPECT_GE(second.kernel_bytes, first.kernel_bytes);
  EXPECT_GT(second.peak_rss_kb, 0u);

  // A nested scope sees only its own window.
  telemetry::ResourceScope inner;
  const telemetry::ResourceProfile inner_view = inner.Snapshot();
  EXPECT_LT(inner_view.alloc_count, second.alloc_count);

  const std::string text = second.ToString();
  EXPECT_NE(text.find("wall"), std::string::npos) << text;
}

TEST(ResourceProfileTest, RunDiagnosticsCarryResource) {
  if (!telemetry::kProfileCompiledIn) {
    GTEST_SKIP() << "profiling compiled out";
  }
  const Matrix data = TestData(13);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.seed = 7;
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunKMeans(data, opts).ok());
  EXPECT_TRUE(diag.resource.captured);
  EXPECT_GT(diag.resource.wall_ms, 0.0);
  EXPECT_GT(diag.resource.alloc_count, 0u);
  EXPECT_GT(diag.resource.flops, 0u) << "kernel hooks should have fired";
}

TEST(SamplerTest, AttributesSamplesToOpenSpans) {
  if (!telemetry::kProfileCompiledIn || !trace::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  trace::Reset();
  trace::Enable();

  struct SampleRun {
    size_t total = 0;
    size_t named_self = 0;
    size_t hot_inner_self = 0;
    size_t hot_outer_total = 0;
    std::string table;
    std::string collapsed;
  };
  auto SampleOnce = [](bool check_double_start) {
    SampleRun run;
    telemetry::ResetSamples();
    telemetry::SamplerOptions sopts;
    sopts.interval_ms = 1.0;
    EXPECT_TRUE(telemetry::StartSampler(sopts).ok());
    EXPECT_TRUE(telemetry::SamplerRunning());
    if (check_double_start) {
      // Starting twice is an error, not a second thread.
      EXPECT_FALSE(telemetry::StartSampler(sopts).ok());
    }
    {
      MULTICLUST_TRACE_SPAN("telemetry.hot_outer");
      MULTICLUST_TRACE_SPAN("telemetry.hot_inner");
      // Synthetic hot loop: long enough for dozens of 1 ms ticks even on a
      // loaded single-core host.
      volatile double sink = 0.0;
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(150);
      while (std::chrono::steady_clock::now() < until) {
        for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
      }
    }
    telemetry::StopSampler();
    EXPECT_FALSE(telemetry::SamplerRunning());
    run.total = telemetry::SampleCount();
    for (const telemetry::SampleStats& s : telemetry::SamplerTable()) {
      if (s.name != "(no span)") run.named_self += s.self;
      if (s.name == "telemetry.hot_inner") run.hot_inner_self = s.self;
      if (s.name == "telemetry.hot_outer") run.hot_outer_total = s.total;
    }
    run.table = telemetry::SamplerTableString();
    run.collapsed = telemetry::CollapsedStacks();
    return run;
  };
  auto AttributionHolds = [](const SampleRun& run) {
    return run.total > 10u && run.named_self * 5 >= run.total * 4 &&
           run.hot_inner_self > 0u;
  };

  // The whole sampled window ran inside the synthetic spans, so >= 80% of
  // all samples should attribute to a named span. The bound is
  // statistical: a loaded CI host can preempt the workload long enough
  // for a batch of ticks to land outside the spans, so a run that misses
  // the threshold gets ONE retry before the assertion below decides.
  SampleRun run = SampleOnce(/*check_double_start=*/true);
  if (!AttributionHolds(run)) {
    run = SampleOnce(/*check_double_start=*/false);
  }
  ASSERT_GT(run.total, 10u);
  EXPECT_GE(run.named_self * 5, run.total * 4) << run.table;
  EXPECT_GT(run.hot_inner_self, 0u);
  // The outer span encloses the inner, so its total covers at least as
  // many samples.
  EXPECT_GE(run.hot_outer_total, run.hot_inner_self);

  // Collapsed stacks preserve nesting order for flamegraph.pl.
  EXPECT_NE(run.collapsed.find("telemetry.hot_outer;telemetry.hot_inner "),
            std::string::npos)
      << run.collapsed;

  telemetry::ResetSamples();
  EXPECT_EQ(telemetry::SampleCount(), 0u);
  trace::Disable();
  trace::Reset();
}

TEST(SamplerTest, ExitedThreadsLeaveTheSampledSet) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  trace::Reset();
  trace::Enable();
  SetThreadCount(1);  // joins the pool: only this thread's slot is live
  {
    MULTICLUST_TRACE_SPAN("telemetry.respawn_main");  // claims that slot
  }
  const size_t before = trace::SnapshotOpenSpans().size();
  // Each SetThreadCount respawns the pool, so every round's workers exit.
  for (int round = 0; round < 20; ++round) {
    SetThreadCount(4);
    ParallelFor(0, 16, 1, [](size_t, size_t) {
      MULTICLUST_TRACE_SPAN("telemetry.respawn_chunk");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  }
  SetThreadCount(1);
  // The sampler would otherwise tick every exited worker as "(no span)".
  EXPECT_EQ(trace::SnapshotOpenSpans().size(), before);
  SetThreadCount(0);
  trace::Disable();
  trace::Reset();
}

// --- Report schema v2 ------------------------------------------------------

DiscoveryReport SmallReport(bool with_resource) {
  DiscoveryReport report;
  report.strategy_name = "dec-kmeans";
  report.chosen_k = 2;
  report.degraded = true;
  report.warnings = {"kmeans: reseeded empty cluster"};

  Clustering c;
  c.labels = {0, 0, 1, 1};
  c.algorithm = "kmeans";
  c.quality = 12.5;
  c.iterations = 4;
  c.converged = true;
  EXPECT_TRUE(report.solutions.Add(c).ok());
  c.labels = {0, 1, 0, 1};
  c.quality = 9.75;
  EXPECT_TRUE(report.solutions.Add(c).ok());

  report.objective.qualities = {0.5, 0.25};
  report.objective.mean_quality = 0.375;
  report.objective.mean_dissimilarity = 0.8;
  report.objective.min_dissimilarity = 0.8;
  report.objective.combined = 1.175;

  RunDiagnostics attempt;
  attempt.algorithm = "dec-kmeans";
  attempt.iterations = 4;
  attempt.converged = true;
  attempt.elapsed_ms = 1.5;
  attempt.warnings = {"dec-kmeans: note"};
  if (with_resource) {
    attempt.resource.captured = true;
    attempt.resource.wall_ms = 1.5;
    attempt.resource.alloc_count = 3;
    attempt.resource.alloc_bytes = 4096;
  }
  report.attempts.push_back(attempt);

  if (with_resource) {
    report.resource.captured = true;
    report.resource.wall_ms = 2.25;
    report.resource.user_cpu_ms = 2.0;
    report.resource.system_cpu_ms = 0.25;
    report.resource.peak_rss_kb = 10240;
    report.resource.minor_faults = 100;
    report.resource.major_faults = 1;
    report.resource.alloc_count = 5;
    report.resource.alloc_bytes = 8192;
    report.resource.flops = 123456;
    report.resource.kernel_bytes = 654321;
  }
  return report;
}

TEST(ReportV2Test, ResourceSurvivesRoundTrip) {
  const DiscoveryReport original = SmallReport(/*with_resource=*/true);
  const std::string json = DiscoveryReportJson(original, {});
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"resource\""), std::string::npos);

  auto restored = ReadDiscoveryReportJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->strategy_name, original.strategy_name);
  EXPECT_EQ(restored->chosen_k, original.chosen_k);
  EXPECT_EQ(restored->degraded, original.degraded);
  EXPECT_EQ(restored->warnings, original.warnings);
  ASSERT_EQ(restored->solutions.size(), 2u);
  EXPECT_EQ(restored->solutions.at(0).labels, original.solutions.at(0).labels);
  EXPECT_EQ(restored->solutions.at(1).labels, original.solutions.at(1).labels);
  EXPECT_DOUBLE_EQ(restored->objective.combined, original.objective.combined);
  ASSERT_EQ(restored->attempts.size(), 1u);
  EXPECT_TRUE(restored->attempts[0].resource.captured);
  EXPECT_DOUBLE_EQ(restored->attempts[0].resource.wall_ms, 1.5);
  EXPECT_EQ(restored->attempts[0].resource.alloc_bytes, 4096u);

  EXPECT_TRUE(restored->resource.captured);
  EXPECT_DOUBLE_EQ(restored->resource.wall_ms, 2.25);
  EXPECT_EQ(restored->resource.peak_rss_kb, 10240u);
  EXPECT_EQ(restored->resource.flops, 123456u);
  EXPECT_EQ(restored->resource.kernel_bytes, 654321u);
}

TEST(ReportV2Test, UncapturedResourceStaysAbsent) {
  const DiscoveryReport original = SmallReport(/*with_resource=*/false);
  const std::string json = DiscoveryReportJson(original, {});
  EXPECT_EQ(json.find("\"resource\""), std::string::npos)
      << "uncaptured profiles must not serialize";
  auto restored = ReadDiscoveryReportJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(restored->resource.captured);
  ASSERT_EQ(restored->attempts.size(), 1u);
  EXPECT_FALSE(restored->attempts[0].resource.captured);
}

TEST(ReportV2Test, ReadsV1Documents) {
  // A minimal hand-written v1 document (the PR-4 schema: no "resource"
  // members anywhere). Must keep parsing forever.
  const std::string v1 =
      "{\"schema_version\":1,\"kind\":\"multiclust.discovery_report\","
      "\"report\":{\"strategy\":\"dec-kmeans\",\"chosen_k\":2,"
      "\"degraded\":false,\"warnings\":[],"
      "\"solutions\":[{\"algorithm\":\"kmeans\",\"quality\":1.5,"
      "\"iterations\":3,\"converged\":true,\"labels\":[0,0,1,1]}],"
      "\"objective\":{\"qualities\":[0.5],\"mean_quality\":0.5,"
      "\"mean_dissimilarity\":0.0,\"min_dissimilarity\":0.0,"
      "\"combined\":0.5},"
      "\"attempts\":[{\"algorithm\":\"dec-kmeans\",\"iterations\":3,"
      "\"converged\":true,\"stop_reason\":\"converged\",\"retries\":0,"
      "\"elapsed_ms\":1.0,\"note\":\"\",\"warnings\":[]}]}}";
  auto restored = ReadDiscoveryReportJson(v1);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->strategy_name, "dec-kmeans");
  EXPECT_EQ(restored->chosen_k, 2u);
  ASSERT_EQ(restored->solutions.size(), 1u);
  EXPECT_EQ(restored->solutions.at(0).labels, (std::vector<int>{0, 0, 1, 1}));
  EXPECT_FALSE(restored->resource.captured);
  ASSERT_EQ(restored->attempts.size(), 1u);
  EXPECT_FALSE(restored->attempts[0].resource.captured);
}

TEST(ReportV2Test, RejectsUnknownSchemaAndKind) {
  EXPECT_FALSE(ReadDiscoveryReportJson("not json").ok());
  EXPECT_FALSE(ReadDiscoveryReportJson("{\"schema_version\":99,"
                                       "\"kind\":\"multiclust.discovery_"
                                       "report\",\"report\":{}}")
                   .ok());
  EXPECT_FALSE(
      ReadDiscoveryReportJson(
          "{\"schema_version\":2,\"kind\":\"wrong\",\"report\":{}}")
          .ok());
}

TEST(ReportV2Test, PipelineReportCarriesResourceWhenCompiledIn) {
  const Matrix data = TestData(17);
  DiscoveryOptions options;
  options.k = 2;
  options.num_solutions = 2;
  options.seed = 3;
  auto report = DiscoverMultipleClusterings(data, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->resource.captured, telemetry::kProfileCompiledIn);
  if (telemetry::kProfileCompiledIn) {
    EXPECT_GT(report->resource.wall_ms, 0.0);
    EXPECT_GT(report->resource.alloc_count, 0u);
    for (const RunDiagnostics& attempt : report->attempts) {
      EXPECT_TRUE(attempt.resource.captured);
    }
  }
}

}  // namespace
}  // namespace multiclust
