// The closed loop shared by the in-process workloads (fleet_mem,
// shard_library): repeated set-up + timed batches against a fresh
// MonitorLike per repetition, until the run's seconds are used.

#ifndef PERFBENCH_MONITOR_LOOP_H_
#define PERFBENCH_MONITOR_LOOP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct InProcessSpec {
  const rtic::workload::Workload* input = nullptr;
  std::size_t warmup = 0;  // leading batches applied during set-up

  /// Constructs the monitor for one repetition. `fs` is the file system a
  /// durable monitor must use (a MemFs, wrapped in a TimingFs when traced)
  /// and `dir` an existing real directory it may use as its WAL root.
  std::function<Result<std::unique_ptr<rtic::MonitorLike>>(
      rtic::wal::Fs* fs, const std::string& dir)>
      make;
  bool durable = false;
};

struct InProcessOutcome {
  // Untraced repetitions.
  std::vector<double> setup_s;
  std::vector<double> updates_per_s;
  Latencies latencies;
  double mem_mb = 0;

  // Traced repetitions (trace mode only).
  std::vector<double> traced_updates_per_s;
  std::vector<double> register_ms;  // all RegisterConstraint calls, per rep
  std::map<std::string, SpanTotals> spans;  // measured batches, summed
  std::size_t traced_batches = 0;
  double counter_check_us = 0;  // ConstraintStats.total_check_micros delta
  TimingFs::Counters fs;        // measured batches, summed
  std::vector<Tracer::Span> last_spans;  // the last traced repetition
  std::size_t aux_anchors = 0;
  std::size_t aux_valuations = 0;
  std::size_t storage_rows = 0;

  std::vector<std::uint64_t> transcript;  // per-batch verdict digests
};

/// Runs repetitions of `spec` for config.seconds (at least one untraced
/// and, in trace mode, one traced). Every repetition's transcript must
/// equal the first; failures are recorded in `result`.
InProcessOutcome RunInProcess(const RunConfig& config,
                              const InProcessSpec& spec, RunResult* result);

/// A layer inside monitor.apply that the program runs out of the
/// benchmark's reach, timed instead in a replay of the same batches.
struct ReplayedChild {
  std::string name;         // per-layer metric name
  double reported = 0;      // the value printed for the metric
  double per_batch_us = 0;  // its mean share of one measured batch
  std::string source;
};

/// Folds the traced outcome and the replayed children of monitor.apply
/// into `layers`; monitor.self_us is what remains of monitor.apply.
void FillInProcessLayers(const InProcessOutcome& out,
                         const std::vector<ReplayedChild>& replayed,
                         LayerReport* layers);

}  // namespace perfbench

#endif  // PERFBENCH_MONITOR_LOOP_H_
