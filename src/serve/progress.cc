#include "serve/progress.h"

#include <cmath>
#include <limits>
#include <string_view>

#include "common/json.h"

namespace multiclust {
namespace serve {

namespace {

/// The calling thread's current channel. Thread-local rather than a map
/// lookup per event: the pipeline can emit at iteration rates, and the
/// emitting thread is the identity anyway.
thread_local std::shared_ptr<void> t_channel;

/// The serving plane's own view of one progress event: string views into
/// the caller's strings, so building one never constructs (or destroys) a
/// telemetry::ProgressEvent — under -DMULTICLUST_TRACING=OFF this file must
/// emit no telemetry:: symbol.
struct JobEvent {
  std::string_view stage;
  std::string_view phase;
  int64_t restart = -1;
  int64_t iteration = -1;
  double objective = std::numeric_limits<double>::quiet_NaN();
  double delta = std::numeric_limits<double>::quiet_NaN();
  double budget_remaining_ms = std::numeric_limits<double>::quiet_NaN();
  double eta_ms = std::numeric_limits<double>::quiet_NaN();
  bool terminal = false;
};

JobEvent FromTelemetry(const telemetry::ProgressEvent& event) {
  return {event.stage,     event.phase, event.restart,
          event.iteration, event.objective, event.delta,
          event.budget_remaining_ms, event.eta_ms, event.terminal};
}

// Field-for-field the telemetry.cc serialization of the
// `multiclust.progress` schema, plus the "job" tag (an additive member: no
// schema_version bump, untagged readers ignore it).
std::string JobEventJson(const std::string& job_id, const JobEvent& event,
                         uint64_t seq, double elapsed_ms) {
  json::Writer w;
  w.BeginObject();
  w.Key("kind");
  w.String("multiclust.progress");
  w.Key("schema_version");
  w.Int(telemetry::kProgressSchemaVersion);
  w.Key("job");
  w.String(job_id);
  w.Key("seq");
  w.Uint(seq);
  w.Key("elapsed_ms");
  w.Double(elapsed_ms);
  w.Key("stage");
  w.String(event.stage);
  w.Key("phase");
  w.String(event.phase);
  if (event.restart >= 0) {
    w.Key("restart");
    w.Int(event.restart);
  }
  if (event.iteration >= 0) {
    w.Key("iteration");
    w.Int(event.iteration);
  }
  if (!std::isnan(event.objective)) {
    w.Key("objective");
    w.Double(event.objective);
  }
  if (!std::isnan(event.delta)) {
    w.Key("delta");
    w.Double(event.delta);
  }
  if (!std::isnan(event.budget_remaining_ms)) {
    w.Key("budget_remaining_ms");
    w.Double(event.budget_remaining_ms);
  }
  if (!std::isnan(event.eta_ms)) {
    w.Key("eta_ms");
    w.Double(event.eta_ms);
  }
  if (event.terminal) {
    w.Key("terminal");
    w.Bool(true);
  }
  w.EndObject();
  return std::move(w).str();
}

}  // namespace

std::string TaggedProgressJson(const std::string& job_id,
                               const telemetry::ProgressEvent& event,
                               uint64_t seq, double elapsed_ms) {
  return JobEventJson(job_id, FromTelemetry(event), seq, elapsed_ms);
}

JobProgressMux::~JobProgressMux() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, channel] : channels_) {
    if (channel->out != nullptr) std::fclose(channel->out);
    channel->out = nullptr;
  }
}

double JobProgressMux::ElapsedMs(const Channel& channel) const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - channel.start)
      .count();
}

Status JobProgressMux::BeginJob(const std::string& job_id,
                                const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::IoError("progress: cannot open " + path);
  }
  auto channel = std::make_shared<Channel>();
  channel->job_id = job_id;
  channel->out = out;
  channel->start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    channels_[job_id] = channel;
  }
  t_channel = channel;
  return Status::OK();
}

void JobProgressMux::FinishJob(const std::string& phase) {
  auto channel = std::static_pointer_cast<Channel>(t_channel);
  t_channel.reset();
  if (channel == nullptr || channel->out == nullptr) return;
  JobEvent event;
  event.stage = "run";
  event.phase = phase;
  event.terminal = true;
  const std::string line =
      JobEventJson(channel->job_id, event, ++channel->seq, ElapsedMs(*channel));
  std::fwrite(line.data(), 1, line.size(), channel->out);
  std::fputc('\n', channel->out);
  std::fclose(channel->out);
  channel->out = nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  channels_.erase(channel->job_id);
}

void JobProgressMux::AbandonJob() {
  auto channel = std::static_pointer_cast<Channel>(t_channel);
  t_channel.reset();
  if (channel == nullptr) return;
  if (channel->out != nullptr) {
    std::fclose(channel->out);
    channel->out = nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  channels_.erase(channel->job_id);
}

void JobProgressMux::OnEvent(const telemetry::ProgressEvent& event) {
  auto channel = std::static_pointer_cast<Channel>(t_channel);
  if (channel == nullptr || channel->out == nullptr) return;
  // The pipeline's own terminal event never fires inside a job (the CLI
  // emits it, the daemon's FinishJob does) — but drop the flag defensively
  // so the per-job stream keeps its exactly-one-terminal contract.
  JobEvent tagged = FromTelemetry(event);
  tagged.terminal = false;
  const std::string line = JobEventJson(channel->job_id, tagged,
                                        ++channel->seq, ElapsedMs(*channel));
  std::fwrite(line.data(), 1, line.size(), channel->out);
  std::fputc('\n', channel->out);
  if (event.phase != "iteration") std::fflush(channel->out);
}

}  // namespace serve
}  // namespace multiclust
