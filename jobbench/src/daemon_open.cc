// daemon_open: the real discoverd binary as a child process under an open
// loop of Poisson arrivals. One generator thread holds two connections:
// one submits on schedule, the other polls `status` until each job is
// terminal.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/parallel.h"
#include "common/report.h"
#include "serve/client.h"
#include "serve/jobrunner.h"
#include "workloads.h"

extern char** environ;

namespace jobbench {

namespace {

namespace fs = std::filesystem;
using multiclust::serve::Client;
using multiclust::serve::JobSpec;
using multiclust::serve::Request;

constexpr size_t kWorkers = 2;
constexpr size_t kThreadsPerWorker = 2;  // MULTICLUST_THREADS of the child
constexpr size_t kScenarioN = 2000;
constexpr double kPollPeriodMs = 10.0;
constexpr double kDrainLimitMs = 60000.0;

void SleepMs(double ms) {
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

// The discoverd child: started with a fresh spool, stopped by SIGTERM (a
// clean drain), killed if it does not exit; always reaped.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { Stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  std::string Start(const std::string& binary, const std::string& dir) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    socket_ = dir + "/d.sock";
    const std::string log = dir + "/daemon.log";
    std::vector<std::string> args = {binary, "--socket=" + socket_,
                                     "--root=" + dir + "/root",
                                     "--workers=" + std::to_string(kWorkers)};
    std::vector<std::string> env = {"MULTICLUST_THREADS=" +
                                    std::to_string(kThreadsPerWorker)};
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "MULTICLUST_THREADS=", 19) != 0) env.push_back(*e);
    }
    std::vector<char*> argv, envp;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return "cannot start " + binary + ": " + std::strerror(rc);
    }
    // Ready once it answers a ping.
    const double t0 = NowMs();
    while (NowMs() - t0 < 20000.0) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return "discoverd exited during start (see " + log + ")";
      }
      Client client(socket_);
      if (client.Connect().ok()) {
        Request ping;
        ping.op = "ping";
        auto reply = client.Call(ping);
        if (reply.ok() && reply->GetBool("ok", false)) return "";
      }
      SleepMs(2.0);
    }
    return "discoverd did not answer ping within 20 s";
  }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const double t0 = NowMs();
    while (waitpid(pid_, nullptr, WNOHANG) != pid_) {
      if (NowMs() - t0 > 15000.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        break;
      }
      SleepMs(5.0);
    }
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  const std::string& socket() const { return socket_; }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

// User + system CPU of a process, from /proc/<pid>/stat.
double ProcCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

enum class JobKind { kDefault, kOrtho, kMeta };

struct PlannedJob {
  JobSpec spec;
  std::string tenant;
  JobKind kind = JobKind::kDefault;
};

JobSpec SpecOf(JobKind kind, uint64_t seed) {
  JobSpec spec;
  spec.scenario = "customer";
  spec.scenario_n = kScenarioN;
  spec.seed = seed;
  spec.solutions = 2;
  spec.strategy = kind == JobKind::kOrtho  ? "ortho"
                  : kind == JobKind::kMeta ? "meta"
                                           : "deckm";
  spec.k = kind == JobKind::kDefault ? 0 : 3;
  return spec;
}

// The job mix, a pure function of the seed: in every block of four jobs,
// two default-path specs and one each of k = 3 ortho and meta, in a
// seeded order; tenants round-robin over four; three jobs in four reuse a
// dataset seed from {1..4} (cache hits), the rest are fresh (misses).
std::vector<PlannedJob> PlanJobs(uint64_t seed, size_t count) {
  uint64_t state = seed ^ 0xDAE40u;
  std::vector<PlannedJob> jobs(count);
  JobKind block[4] = {JobKind::kDefault, JobKind::kDefault, JobKind::kOrtho,
                      JobKind::kMeta};
  for (size_t j = 0; j < count; ++j) {
    if (j % 4 == 0) {
      for (size_t i = 3; i > 0; --i) {
        std::swap(block[i], block[SplitMix64(&state) % (i + 1)]);
      }
    }
    const bool reuse = UniformDouble(&state) < 0.75;
    const uint64_t draw = SplitMix64(&state);
    const uint64_t data_seed =
        reuse ? 1 + draw % 4 : 100 + draw % 1000000007ULL;
    jobs[j].kind = block[j % 4];
    jobs[j].spec = SpecOf(jobs[j].kind, data_seed);
    jobs[j].tenant = "tenant" + std::to_string(j % 4);
  }
  return jobs;
}

struct Tracked {
  size_t index = 0;
  double due_ms = 0.0, ack_ms = 0.0, running_ms = -1.0;
  std::string id;
  std::string report_path;
  double objective = 0.0;
  std::string fingerprint;
  double report_flops = 0.0;  ///< resource.flops of the daemon's report
};

Request SubmitRequest(const PlannedJob& job) {
  Request r;
  r.op = "submit";
  r.tenant = job.tenant;
  r.spec = job.spec;
  r.has_spec = true;
  return r;
}

Request IdRequest(const char* op, const std::string& id) {
  Request r;
  r.op = op;
  r.job_id = id;
  return r;
}

// Submits one job and polls until it is terminal; the set-up warm-up.
std::string RunOneJob(const std::string& socket, const PlannedJob& job) {
  Client client(socket);
  if (!client.Connect().ok()) return "warm-up: cannot connect";
  auto ack = client.Call(SubmitRequest(job));
  if (!ack.ok() || ack->GetString("state", "") != "queued") {
    return "warm-up submit not accepted";
  }
  const std::string id = ack->GetString("job_id", "");
  const double t0 = NowMs();
  while (NowMs() - t0 < kDrainLimitMs) {
    auto st = client.Call(IdRequest("status", id));
    const std::string state = st.ok() ? st->GetString("state", "") : "";
    if (state == "done") return "";
    if (state != "queued" && state != "running") {
      return "warm-up job ended " + state;
    }
    SleepMs(kPollPeriodMs);
  }
  return "warm-up job did not finish";
}

}  // namespace

RunResult RunDaemonOpen(const RunConfig& config) {
  RunResult out;
  multiclust::SetThreadCount(config.threads);
  const std::string base =
      ".bench_build/jobbench-run/" + std::to_string(getpid());

  // Set-up, repeated: daemon start to first ping reply, one warm-up job;
  // every daemon but the last is drained again.
  EndToEnd e;
  DaemonProcess daemon;
  const PlannedJob warm{SpecOf(JobKind::kDefault, 5), "warmup",
                        JobKind::kDefault};
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (rep > 0) daemon.Stop();
    const double t0 = NowMs();
    std::string error =
        daemon.Start(config.discoverd, base + "/" + std::to_string(rep));
    if (error.empty()) error = RunOneJob(daemon.socket(), warm);
    if (!error.empty()) {
      out.problems.push_back(error);
      return out;
    }
    e.setup_ms.push_back(NowMs() - t0);
  }

  const std::vector<double> due = ArrivalScheduleMs(config.seed, config.rate,
                                                    config.seconds);
  const std::vector<PlannedJob> plan = PlanJobs(config.seed, due.size());
  Client submitter(daemon.socket()), poller(daemon.socket());
  if (!submitter.Connect().ok() || !poller.Connect().ok()) {
    out.problems.push_back("cannot connect to discoverd");
    return out;
  }
  Request stats_request;
  stats_request.op = "stats";
  auto stats_before = poller.Call(stats_request);

  JobTally tally(config.slo_ms);
  LatenessLog lateness;
  std::vector<double> ack_ms, wait_ms, run_ms;
  std::vector<Tracked> pending, finished;
  const double cpu0 = ProcCpuMs(daemon.pid());
  const double start = NowMs();
  double last_terminal = 0.0;
  size_t next = 0;
  while (next < due.size() || !pending.empty()) {
    double now = NowMs() - start;
    if (next < due.size() && due[next] <= now) {
      const double sent = now;
      lateness.Record(due[next], sent);
      auto ack = submitter.Call(SubmitRequest(plan[next]));
      const double acked = NowMs() - start;
      ack_ms.push_back(acked - sent);
      if (ack.ok() && ack->GetBool("ok", false) &&
          ack->GetString("state", "") == "queued") {
        Tracked t;
        t.index = next;
        t.due_ms = due[next];
        t.ack_ms = acked;
        t.id = ack->GetString("job_id", "");
        pending.push_back(std::move(t));
      } else {
        tally.Failed();
      }
      ++next;
      continue;
    }
    if (now > config.seconds * 1000.0 + kDrainLimitMs) break;
    for (size_t p = 0; p < pending.size();) {
      Tracked& t = pending[p];
      auto st = poller.Call(IdRequest("status", t.id));
      const double seen = NowMs() - start;
      const std::string state = st.ok() ? st->GetString("state", "") : "lost";
      if (state == "running" && t.running_ms < 0.0) t.running_ms = seen;
      if (state == "queued" || state == "running") {
        ++p;
        continue;
      }
      last_terminal = std::max(last_terminal, seen);
      if (state == "done") {
        tally.Done(seen - t.due_ms);
        const double running = t.running_ms < 0.0 ? seen : t.running_ms;
        wait_ms.push_back(running - t.ack_ms);
        run_ms.push_back(seen - running);
        t.report_path = st->GetString("report", "");
        t.objective = st->GetNumber("objective", 0.0);
        t.fingerprint = st->GetString("fingerprint", "");
        finished.push_back(t);
      } else {
        tally.Failed();
        out.problems.push_back("job " + t.id + " ended " + state);
      }
      pending.erase(pending.begin() + static_cast<long>(p));
    }
    now = NowMs() - start;
    const double wake = next < due.size()
                            ? std::min(due[next], now + kPollPeriodMs)
                            : now + kPollPeriodMs;
    SleepMs(wake - now);
  }
  for (size_t p = 0; p < pending.size(); ++p) {
    tally.Failed();
    out.problems.push_back("job " + pending[p].id + " never terminal");
  }
  e.window_ms = std::max(last_terminal, config.seconds * 1000.0);
  e.cpu_ms = ProcCpuMs(daemon.pid()) - cpu0;
  e.peak_rss_mb = ProcPeakRssMb(daemon.pid());
  auto stats_after = poller.Call(stats_request);
  e.tally = &tally;

  // Output quality of every done job, from the report the daemon wrote.
  std::map<uint64_t, std::shared_ptr<const multiclust::Dataset>> truths;
  for (Tracked& t : finished) {
    const JobSpec& spec = plan[t.index].spec;
    std::ifstream in(t.report_path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto report = multiclust::ReadDiscoveryReportJson(text);
    if (!report.ok()) {
      out.problems.push_back("job " + t.id + ": unreadable report");
      continue;
    }
    t.report_flops = static_cast<double>(report->resource.flops);
    const std::string bad = CheckReport(*report, spec.scenario_n);
    if (!bad.empty()) out.problems.push_back("job " + t.id + ": " + bad);
    auto& data = truths[spec.seed];
    double ms = 0.0;
    if (data == nullptr) {
      data = GenerateCustomer(spec.scenario_n, spec.seed, &ms);
    }
    e.recovery_sum += ViewRecovery(*data, report->solutions.Labels());
    e.fill_sum += static_cast<double>(report->solutions.size()) /
                  static_cast<double>(spec.solutions);
    ++e.quality_jobs;
  }

  // The same specs in process: the first done job of each kind must match
  // the daemon's objective and work fingerprint.
  LayerTotals totals;
  double daemon_flops = 0.0, inproc_flops = 0.0;
  std::vector<const Tracked*> sample;
  for (JobKind kind : {JobKind::kDefault, JobKind::kOrtho, JobKind::kMeta}) {
    for (const Tracked& t : finished) {
      if (plan[t.index].kind == kind) {
        sample.push_back(&t);
        break;
      }
    }
  }
  double generate_ms = 0.0;
  for (const Tracked* t : sample) {
    const JobSpec& spec = plan[t->index].spec;
    const double g0 = NowMs();
    auto loaded = multiclust::serve::LoadDataset(spec);
    generate_ms += NowMs() - g0;
    auto options = multiclust::serve::MakeDiscoveryOptions(spec);
    if (!loaded.ok() || !options.ok()) {
      out.problems.push_back("cannot rebuild spec of job " + t->id);
      continue;
    }
    Job job{std::make_shared<const multiclust::Dataset>(
                std::move(loaded).value()),
            *options};
    std::string error;
    multiclust::DiscoveryReport report;
    if (config.trace) {
      report = TraceJob(job, static_cast<int64_t>(t->index), config.threads,
                        &totals, &error);
    } else {
      auto run = multiclust::DiscoverMultipleClusterings(job.dataset->data(),
                                                         job.options);
      if (run.ok()) report = std::move(run).value();
      else error = run.status().ToString();
    }
    const std::string fingerprint = multiclust::serve::FingerprintHex(
        multiclust::serve::WorkFingerprint(job.dataset->data(), spec));
    if (!error.empty() || report.objective.mean_quality != t->objective ||
        fingerprint != t->fingerprint) {
      out.problems.push_back("job " + t->id +
                             " differs from the in-process run of its spec");
      continue;
    }
    daemon_flops += t->report_flops;
    inproc_flops += static_cast<double>(report.resource.flops);
  }
  daemon.Stop();
  fs::remove_all(base);

  out.attempted = tally.attempted();
  out.failed = tally.failed();
  RunResult end_to_end;
  AddEndToEndMetrics(e, &end_to_end);
  if (!config.trace) {
    out.metrics = std::move(end_to_end.metrics);
    out.notes = std::move(end_to_end.notes);
    return out;
  }
  // A traced run still shows the loop's end-to-end figures, as a note.
  std::string summary = "daemon_open (" + end_to_end.notes.front() + "):";
  for (const Metric& m : end_to_end.metrics) {
    char item[96];
    std::snprintf(item, sizeof item, " %s=%.4g", m.name.c_str(), m.value);
    summary += item;
  }
  out.notes.push_back(summary);
  const auto delta = [&](const char* key) {
    const double after =
        stats_after.ok() ? stats_after->GetNumber(key, 0.0) : 0.0;
    const double before =
        stats_before.ok() ? stats_before->GetNumber(key, 0.0) : 0.0;
    return after - before;
  };
  const double hits = delta("cache_hits"), misses = delta("cache_misses");
  std::vector<Metric> serve = {
      {"serve.submit_ack_ms_p50", Percentile(ack_ms, 50.0), "ms"},
      {"serve.submit_ack_ms_p90", Percentile(ack_ms, 90.0), "ms"},
      {"serve.queue_wait_ms_p50", Percentile(wait_ms, 50.0), "ms"},
      {"serve.queue_wait_ms_p90", Percentile(wait_ms, 90.0), "ms"},
      {"serve.run_ms_p50", Percentile(run_ms, 50.0), "ms"},
      {"serve.run_ms_p90", Percentile(run_ms, 90.0), "ms"},
      {"serve.cache_hit_share",
       hits + misses > 0 ? hits / (hits + misses) : 0.0, "share"},
      {"serve.max_queued",
       stats_after.ok() ? stats_after->GetNumber("max_queued_seen", 0.0) : 0.0,
       "count"},
      {"serve.rejected", delta("rejected_total"), "count"},
      {"serve.report_flops_ratio",
       inproc_flops > 0.0 ? daemon_flops / inproc_flops : 0.0, "ratio"},
      {"serve.gen_late_ms_p90", lateness.P90Ms(), "ms"}};
  // The daemon's own pool use: its CPU over the window's wall time across
  // every worker's threads.
  totals.cpu_ms = e.cpu_ms;
  totals.wall_thread_ms = e.window_ms * kWorkers * kThreadsPerWorker;
  AddLayerMetrics(totals, sample.empty() ? 0.0 : generate_ms / sample.size(),
                  serve, &out);
  return out;
}

void MergeServeLayer(const RunResult& daemon, RunResult* out) {
  for (Metric& m : out->metrics) {
    if (m.name.rfind("serve.", 0) != 0) continue;
    for (const Metric& d : daemon.metrics) {
      if (d.name == m.name) m.value = d.value;
    }
  }
  out->attempted += daemon.attempted;
  out->failed += daemon.failed;
  for (const std::string& problem : daemon.problems) {
    out->problems.push_back("daemon_open: " + problem);
  }
  out->notes.insert(out->notes.end(), daemon.notes.begin(), daemon.notes.end());
}

}  // namespace jobbench
