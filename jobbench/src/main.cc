// jobbench: the discovery-job benchmark program.
//
//   jobbench --workload=NAME --seed=N --seconds=S --trace=0|1
//            --rate=JOBS_PER_S --slo-ms=MS --discoverd=PATH
//
// Workloads: default_path, fixed_k_mix, spectral_views (in process) and
// daemon_open (a discoverd child). With --trace=0 the result line carries
// the end-to-end metrics, with --trace=1 the per-layer ones. The last line
// of stdout is the JSON result; lines before it start with '#'. Exit code
// 1 when an output check failed, 2 on bad usage.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "linalg/kernels.h"
#include "workloads.h"

namespace {

using jobbench::RunConfig;
using jobbench::RunResult;

bool Flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

// CPU time stolen by the hypervisor, and CPU time not idle, summed over
// all CPUs, in clock ticks (the first line of /proc/stat).
struct CpuTicks {
  double steal = 0.0;
  double busy = 0.0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  // user nice system idle iowait irq softirq steal
  double field[8] = {};
  for (double& f : field) in >> f;
  t.steal = field[7];
  t.busy = field[0] + field[1] + field[2] + field[5] + field[6] + field[7];
  return t;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintHostEnvelope(const RunConfig& config, size_t nproc) {
  double load[3] = {0.0, 0.0, 0.0};
  if (FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf %lf %lf", &load[0], &load[1], &load[2]) != 3) {
      load[0] = load[1] = load[2] = -1.0;
    }
    std::fclose(f);
  }
  const multiclust::kernels::SimdInfo simd = multiclust::kernels::Info();
  std::printf(
      "# host {\"nproc\": %zu, \"threads\": %zu, \"isa\": %s, "
      "\"simd_backend\": %s, \"build_type\": %s, \"loadavg\": [%.2f, %.2f, "
      "%.2f]}\n",
      nproc, config.threads,
      JsonString(multiclust::kernels::RuntimeIsa()).c_str(),
      JsonString(simd.backend).c_str(), JsonString(JOBBENCH_BUILD_TYPE).c_str(),
      load[0], load[1], load[2]);
  std::printf(
      "# run {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": "
      "%d, \"rate\": %g, \"slo_ms\": %g}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed), config.seconds,
      config.trace ? 1 : 0, config.rate, config.slo_ms);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (Flag(arg, "workload", &v)) {
      config.workload = v;
    } else if (Flag(arg, "seed", &v)) {
      config.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "seconds", &v)) {
      config.seconds = std::atof(v.c_str());
    } else if (Flag(arg, "trace", &v)) {
      config.trace = v == "1";
    } else if (Flag(arg, "rate", &v)) {
      config.rate = std::atof(v.c_str());
    } else if (Flag(arg, "slo-ms", &v)) {
      config.slo_ms = std::atof(v.c_str());
    } else if (Flag(arg, "discoverd", &v)) {
      config.discoverd = v;
    } else {
      std::fprintf(stderr, "jobbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  const bool in_process = config.workload == "default_path" ||
                          config.workload == "fixed_k_mix" ||
                          config.workload == "spectral_views";
  if ((!in_process && config.workload != "daemon_open") ||
      config.seconds <= 0.0 || config.rate <= 0.0 || config.slo_ms <= 0.0 ||
      config.discoverd.empty()) {
    std::fprintf(stderr,
                 "usage: jobbench --workload=default_path|fixed_k_mix|"
                 "spectral_views|daemon_open --seed=N --seconds=S "
                 "--trace=0|1 --rate=R --slo-ms=MS --discoverd=PATH\n");
    return 2;
  }
  const size_t nproc = AvailableCpus();
  config.threads = std::min<size_t>(nproc, 4);
  PrintHostEnvelope(config, nproc);
  std::fflush(stdout);
  const CpuTicks ticks0 = ReadCpuTicks();

  RunResult result = in_process ? jobbench::RunInProcess(config)
                                : jobbench::RunDaemonOpen(config);
  if (config.trace && config.workload == "default_path") {
    // The serve layer is on no gated workload's path, so the traced run of
    // default_path also runs the daemon_open loop for the serve.* rows.
    jobbench::MergeServeLayer(jobbench::RunDaemonOpen(config), &result);
  }
  const CpuTicks ticks1 = ReadCpuTicks();
  const double busy = ticks1.busy - ticks0.busy;
  // Job wall times include this; CPU times exclude it.
  std::printf("# host steal: %.1f%% of busy CPU time during the run\n",
              busy > 0.0 ? 100.0 * (ticks1.steal - ticks0.steal) / busy : 0.0);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::printf("# CHECK FAILED: %s\n", problem.c_str());
  }
  bool finite = true;
  for (const jobbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("# CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      finite = false;
    }
  }
  const bool correct =
      result.problems.empty() && finite && result.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const jobbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
