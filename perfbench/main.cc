// perfbench: runs one benchmark workload and prints its run record, its
// metrics, and — as the last line of standard output — one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}
//
// Usage:
//   perfbench --workload fleet_mem|serve_commit|shard_library --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--alter-witness]
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run and reports the per-layer metrics. --alter-witness corrupts
// one witness in the measured transcript (a self-test: the run must then
// fail its verdict check). The exit code is 0 only for a correct run.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/logging.h"
#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_mem|serve_commit|"
               "shard_library --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--alter-witness]\n");
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const RunConfig& config, const RunResult& r,
                 double wall_s, double steal_pct) {
  std::printf("run record\n");
  std::printf("  workload        %s\n", config.workload.c_str());
  std::printf("  seed            %llu\n",
              static_cast<unsigned long long>(config.seed));
  std::printf("  seconds         %g\n", config.seconds);
  std::printf("  trace           %d\n", config.trace ? 1 : 0);
  std::printf("  nproc           %ld\n", ::sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("  build type      %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("  wal filesystem  in-memory wal::Fs (perfbench MemFs)\n");
  std::printf("  wall time       %.3f s\n", wall_s);
  std::printf("  cpu steal       %.2f %%\n", steal_pct);
  std::printf("  attempted       %llu\n",
              static_cast<unsigned long long>(r.attempted));
  std::printf("  failed          %llu\n",
              static_cast<unsigned long long>(r.failed));
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  if (!r.correct) std::printf("  INCORRECT: %s\n", r.error.c_str());
  std::printf("metrics\n");
  for (const auto* list : {&r.metrics, &r.extra}) {
    for (const Metric& m : *list) {
      std::printf("  %-28s %14.4f %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.source.c_str());
    }
  }
  std::string json = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string work_dir = ".bench_build/perfbench-work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--workload" && (v = next())) {
      config.workload = v;
      have_workload = true;
    } else if (arg == "--seed" && (v = next())) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = next())) {
      config.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = next())) {
      config.trace = std::string(v) == "1";
    } else if (arg == "--work-dir" && (v = next())) {
      work_dir = v;
    } else if (arg == "--alter-witness") {
      config.alter_witness = true;
    } else {
      Usage();
      return 2;
    }
  }
  RunResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "fleet_mem") run = RunFleetMem;
  if (config.workload == "serve_commit") run = RunServeCommit;
  if (config.workload == "shard_library") run = RunShardLibrary;
  if (!have_workload || run == nullptr || !(config.seconds > 0)) {
    Usage();
    return 2;
  }
  rtic::SetLogLevel(rtic::LogLevel::kError);

  // The library creates real (empty) directories under the WAL root even
  // though every file goes to the in-memory file system.
  config.work_dir =
      work_dir + "/" + config.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(config.work_dir);
  // One spans file per workload, overwritten by its latest traced run.
  if (config.trace) {
    config.spans_path = work_dir + "/" + config.workload + ".spans.tsv";
  }

  const CpuTimes cpu0 = ReadCpuTimes();
  const std::int64_t t0 = NowNs();
  RunResult r = run(config);
  const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  const CpuTimes cpu1 = ReadCpuTimes();
  std::filesystem::remove_all(config.work_dir);
  const double steal_pct =
      cpu1.total > cpu0.total
          ? 100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                static_cast<double>(cpu1.total - cpu0.total)
          : 0.0;
  if (r.attempted == 0) r.Fail("no batch was attempted");
  PrintResult(config, r, wall_s, steal_pct);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
