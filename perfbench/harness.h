// Shared pieces of the performance benchmark: clocks and percentiles,
// process observations (RSS, CPU steal), an in-memory wal::Fs, the span
// tracer with its timing wal::Fs, verdict transcripts, the engine replay
// used for per-layer timing, and the run/result types each workload fills.
//
// Nothing here reaches into the library's internals: every layer is timed
// around a public call (MonitorLike, CheckerEngine, wal::Fs, RticClient,
// RouteBatch, the server_format codecs), either on the live path or in a
// replay of the same batches through the layer beneath.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "engines/checker_engine.h"
#include "monitor/monitor_iface.h"
#include "wal/file.h"
#include "workload/generators.h"

namespace perfbench {

using rtic::Result;
using rtic::Status;

// ---- clocks and statistics ------------------------------------------------

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy-waits until the steady clock reaches `deadline_ns`.
inline void SpinUntil(std::int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// ---- process observations -------------------------------------------------

/// Resident set size of this process in MiB (/proc/self/statm).
double RssMiB();

/// Aggregate CPU time counters from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Moves the calling thread from CPU to CPU, one per repetition, over the
/// CPUs it may run on; restores its affinity when destroyed. On a virtual
/// machine the host slows single vCPUs down for tens of seconds at a time,
/// unseen by the guest's scheduler, which then keeps a busy thread on the
/// slow vCPU. Rotating gives every batch repetitions on each vCPU, so its
/// floor (see Latencies) comes from whichever was fast.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the `turn`-th allowed CPU (round-robin).
  void Pin(std::size_t turn);
  std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;  // empty when the affinity cannot be read
  cpu_set_t original_;
};

// ---- in-memory file system ------------------------------------------------

/// A wal::Fs that keeps every file in memory, standing in for a tmpfs so
/// durable workloads measure the WAL and checkpoint code rather than the
/// host's storage device. A file is a list of appended chunks, so appends
/// never copy what is already stored (as a tmpfs append does not).
/// Thread-safe (the server's worker writes while the benchmark thread
/// waits).
class MemFs final : public rtic::wal::Fs {
 public:
  Result<std::unique_ptr<rtic::wal::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status CreateDir(const std::string& dir) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status Truncate(const std::string& path, std::uint64_t size) override;
  Result<bool> FileExists(const std::string& path) override;

 private:
  friend class MemFile;
  using Chunks = std::vector<std::string>;

  std::mutex mu_;
  std::map<std::string, std::shared_ptr<Chunks>> files_;       // guarded
  std::set<std::string> dirs_;                                 // guarded
};

// ---- tracing --------------------------------------------------------------

/// In-memory span recorder. A span is (name, start, end, parent, batch);
/// a span begun on a thread with no open span of its own (the server's
/// worker) takes the adopted span as its parent, which is how WAL writes
/// made on the server's behalf land under the round trip that caused them.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::int64_t kSetup = -1;  // batch id of set-up spans

  struct Span {
    const char* name;
    std::uint32_t parent;
    std::int64_t batch;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  void set_batch(std::int64_t batch) {
    batch_.store(batch, std::memory_order_relaxed);
  }
  void Adopt(std::uint32_t span) {
    adopted_.store(span, std::memory_order_relaxed);
  }

  std::uint32_t Begin(const char* name);
  void End(std::uint32_t span);

  /// Returns and clears the recorded spans.
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> batch_{kSetup};
  std::atomic<std::uint32_t> adopted_{kNone};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// The process-wide tracer.
Tracer& Trace();

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(Trace().enabled() ? Trace().Begin(name) : Tracer::kNone) {}
  ~ScopedSpan() {
    if (id_ != Tracer::kNone) Trace().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// Per-name totals over a set of spans. Self time is a span's duration
/// minus the durations of its recorded children.
struct SpanTotals {
  double total_us = 0;
  double self_us = 0;
};

/// Adds the spans of measured batches (not set-up) to `totals`.
void AddMeasuredSpans(const std::vector<Tracer::Span>& spans,
                      std::map<std::string, SpanTotals>* totals);

/// Writes spans as tab-separated lines (name, parent, batch, start, end).
Status WriteSpans(const std::vector<Tracer::Span>& spans,
                  const std::string& path);

/// Wraps a wal::Fs, recording a span around every call and counting log
/// appends, syncs and checkpoint files. Segment files (`wal-*`) are the
/// log; checkpoint files (`ckpt-*`) and the renames, removals and directory
/// operations around them are checkpoint work.
class TimingFs final : public rtic::wal::Fs {
 public:
  struct Counters {
    std::uint64_t appends = 0;
    std::uint64_t append_bytes = 0;
    std::uint64_t syncs = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::set<std::string> log_dirs;

    /// Folds in another repetition: counts add up; every repetition writes
    /// the same logs (under its own directory), so log_dirs keeps the last.
    void Add(const Counters& rep) {
      appends += rep.appends;
      append_bytes += rep.append_bytes;
      syncs += rep.syncs;
      checkpoints += rep.checkpoints;
      checkpoint_bytes += rep.checkpoint_bytes;
      log_dirs = rep.log_dirs;
    }
  };

  explicit TimingFs(rtic::wal::Fs* base) : base_(base) {}

  Result<std::unique_ptr<rtic::wal::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status CreateDir(const std::string& dir) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Status Truncate(const std::string& path, std::uint64_t size) override;
  Result<bool> FileExists(const std::string& path) override;

  Counters TakeCounters();

 private:
  friend class TimingFile;

  rtic::wal::Fs* base_;
  std::mutex mu_;
  Counters counters_;  // guarded by mu_
};

// ---- verdict transcripts --------------------------------------------------

/// Order-sensitive digest of one batch's verdict (every violation's
/// ToString()); the empty verdict hashes to a fixed value.
std::uint64_t HashVerdict(const std::vector<rtic::Violation>& violations);

/// Replaces the first witness of the first violation (negative self-test:
/// an altered transcript must fail the run).
void AlterWitness(std::vector<rtic::Violation>* violations);

/// Index of the first differing entry, or -1 when equal.
std::int64_t FirstMismatch(const std::vector<std::uint64_t>& got,
                           const std::vector<std::uint64_t>& want);

// ---- engine replay --------------------------------------------------------

/// Replays batches through one checker engine per constraint, built by the
/// same engine factories the monitor uses (unshared), over a plain
/// Database. Times CheckerEngine::OnTransition and, on violation,
/// CurrentCounterexamples — the layer beneath the monitor, whose calls the
/// benchmark cannot time inside the program.
class EngineReplay {
 public:
  static Result<std::unique_ptr<EngineReplay>> Create(
      const rtic::workload::Workload& w);

  /// Applies one batch and runs every engine; `measured` batches count
  /// towards the totals.
  Status Apply(const rtic::UpdateBatch& batch, bool measured);

  double check_us = 0;        // OnTransition time, measured batches
  double witness_us = 0;      // CurrentCounterexamples time, measured
  std::size_t witness_batches = 0;  // measured batches with a violation

 private:
  EngineReplay() = default;

  rtic::Database db_;
  std::vector<std::unique_ptr<rtic::CheckerEngine>> engines_;
};

/// Share of (constraint, batch) pairs in which a table the constraint
/// names changed, over `batches`.
double RelevantCheckFraction(const rtic::workload::Workload& w,
                             std::size_t first, std::size_t last);

// ---- runs and results -----------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool alter_witness = false;  // negative self-test
  std::string work_dir;     // real directories the library mkdirs
  std::string spans_path;      // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string source;  // where a per-layer number came from
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;          // printed in the result object
  std::vector<Metric> extra;            // printed in the run record only
  std::vector<std::string> notes;       // run-record lines
  std::string error;                    // why the run is not correct

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& source = "") {
    metrics.push_back({name, value, unit, source});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Per-batch latencies (µs) over a run's repetitions. Every repetition
/// feeds the same batches to a fresh monitor, so batch i does the same work
/// each time; its floor, the lowest latency any repetition saw, is its cost
/// without the host's interference.
struct Latencies {
  std::vector<double> floor_us;  // per batch, lowest across repetitions
  std::vector<char> violated;    // per batch, whether the verdict violated
  std::vector<double> rep_p50;   // each repetition's own median (record)
  std::size_t reps = 0;

  /// Adds one repetition: per-batch latencies and whether each violated.
  void AddRep(const std::vector<double>& us,
              const std::vector<char>& violated);

  /// Percentile of the floors over all batches, or over violating ones.
  double Verdict(double p) const;
  double Detect(double p) const;
  std::size_t DetectCount() const;

  /// Closed-loop throughput at the floors: batches over their summed floors.
  double UpdatesPerS() const;
};

/// Adds the end-to-end metrics every workload reports, plus sample counts:
/// throughput from `closed`, latency percentiles from `lat` (the same
/// object unless the workload times an open loop), and the per-repetition
/// set-up times and directly timed loop throughputs.
void AddEndToEnd(RunResult* r, const std::vector<double>& setup_s,
                 const std::vector<double>& loop_updates_per_s,
                 const Latencies& closed, const Latencies& lat,
                 double mem_mb);

/// Per-layer values with the source each came from.
struct LayerReport {
  std::map<std::string, std::pair<double, std::string>> values;

  void Set(const std::string& name, double value, const std::string& source) {
    values[name] = {value, source};
  }
};

/// Adds every per-layer metric; workloads fill what applies and the rest
/// is reported as 0 (the layer is not on that workload's path).
void AddPerLayer(RunResult* r, const LayerReport& layers);

/// Sets the wal.* layers from the traced spans and file-system counters of
/// `reps` traced repetitions of `batches` measured batches in all; `where`
/// names the thread the WAL spans came from.
void SetWalLayers(const std::map<std::string, SpanTotals>& spans,
                  const TimingFs::Counters& fs, double batches, double reps,
                  const std::string& where, LayerReport* layers);

/// Tracing overhead: untraced against traced median throughput, in percent.
double OverheadPct(const std::vector<double>& untraced,
                   const std::vector<double>& traced);

/// True while a run of `seconds` (started at `start_ns`) should start
/// another repetition. At least `min_reps` run regardless.
bool WantAnotherRep(std::int64_t start_ns, double seconds, std::size_t done,
                    std::size_t min_reps);

RunResult RunFleetMem(const RunConfig& config);
RunResult RunServeCommit(const RunConfig& config);
RunResult RunShardLibrary(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
