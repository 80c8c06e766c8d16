#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "engines/incremental/engine.h"
#include "engines/response/response_engine.h"
#include "tl/parser.h"

namespace perfbench {

using rtic::Violation;
using rtic::wal::WritableFile;

// ---- clocks and statistics ------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ---- process observations -------------------------------------------------

double RssMiB() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (::sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Pin(std::size_t turn) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[turn % cpus_.size()], &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

// ---- in-memory file system ------------------------------------------------

namespace {

std::string DirName(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

std::string BaseName(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

class MemFile final : public WritableFile {
 public:
  MemFile(MemFs* fs, std::shared_ptr<MemFs::Chunks> data)
      : fs_(fs), data_(std::move(data)) {}

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> lock(fs_->mu_);
    data_->emplace_back(data);
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

 private:
  MemFs* fs_;
  std::shared_ptr<MemFs::Chunks> data_;
};

Result<std::unique_ptr<WritableFile>> MemFs::NewWritableFile(
    const std::string& path, bool truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(DirName(path)) == 0) {
    return Status::NotFound("no directory for " + path);
  }
  std::shared_ptr<Chunks>& data = files_[path];
  if (data == nullptr) data = std::make_shared<Chunks>();
  if (truncate) data->clear();
  return std::unique_ptr<WritableFile>(std::make_unique<MemFile>(this, data));
}

Result<std::string> MemFs::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file " + path);
  std::string content;
  for (const std::string& chunk : *it->second) content += chunk;
  return content;
}

Result<std::vector<std::string>> MemFs::ListDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(dir) == 0) return Status::NotFound("no directory " + dir);
  std::vector<std::string> names;
  for (const auto& [path, data] : files_) {
    if (DirName(path) == dir) names.push_back(BaseName(path));
  }
  for (const std::string& d : dirs_) {
    if (DirName(d) == dir) names.push_back(BaseName(d));
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status MemFs::CreateDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dirs_.insert(dir);
  return Status::OK();
}

Status MemFs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no file " + from);
  std::shared_ptr<Chunks> data = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(data);
  return Status::OK();
}

Status MemFs::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) return Status::NotFound("no file " + path);
  return Status::OK();
}

Status MemFs::Truncate(const std::string& path, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file " + path);
  std::string content;
  for (const std::string& chunk : *it->second) content += chunk;
  if (size < content.size()) content.resize(size);
  *it->second = Chunks{std::move(content)};
  return Status::OK();
}

Result<bool> MemFs::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

// ---- tracing --------------------------------------------------------------

namespace {
thread_local std::vector<std::uint32_t> open_spans;
}  // namespace

Tracer& Trace() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::Begin(const char* name) {
  const std::uint32_t parent =
      open_spans.empty() ? adopted_.load(std::memory_order_relaxed)
                         : open_spans.back();
  const std::int64_t start = NowNs();
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        {name, parent, batch_.load(std::memory_order_relaxed), start, start});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(std::uint32_t span) {
  const std::int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[span].end_ns = end;
  }
  open_spans.pop_back();
}

std::vector<Tracer::Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

void AddMeasuredSpans(const std::vector<Tracer::Span>& spans,
                      std::map<std::string, SpanTotals>* totals) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Tracer::Span& s : spans) {
    if (s.parent != Tracer::kNone && s.parent < spans.size()) {
      child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (s.batch == Tracer::kSetup) continue;
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    SpanTotals& t = (*totals)[s.name];
    t.total_us += us;
    t.self_us += us - child_us[i];
  }
}

void SetWalLayers(const std::map<std::string, SpanTotals>& spans,
                  const TimingFs::Counters& fs, double batches, double reps,
                  const std::string& where, LayerReport* layers) {
  auto total = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_us;
  };
  const double checkpoints = static_cast<double>(fs.checkpoints);
  const std::string counted = "timing wal::Fs";
  layers->Set("wal.append_us", total("wal.append") / batches, where);
  layers->Set("wal.sync_us", total("wal.sync") / batches, where);
  layers->Set("wal.checkpoint_us",
              checkpoints == 0 ? 0 : total("wal.checkpoint") / checkpoints,
              where + ", per checkpoint");
  layers->Set("wal.checkpoint_bytes",
              checkpoints == 0
                  ? 0
                  : static_cast<double>(fs.checkpoint_bytes) / checkpoints,
              counted + ", per checkpoint");
  layers->Set("wal.checkpoints", checkpoints / reps,
              counted + ", per repetition");
  layers->Set("wal.appends_per_batch",
              static_cast<double>(fs.appends) / batches, counted);
  layers->Set("wal.bytes_per_batch",
              static_cast<double>(fs.append_bytes) / batches, counted);
  layers->Set("wal.syncs_per_batch", static_cast<double>(fs.syncs) / batches,
              counted);
  layers->Set("wal.logs", static_cast<double>(fs.log_dirs.size()), counted);
}

double OverheadPct(const std::vector<double>& untraced,
                   const std::vector<double>& traced) {
  const double base = Median(untraced);
  return base == 0 ? 0 : 100.0 * (base - Median(traced)) / base;
}

Status WriteSpans(const std::vector<Tracer::Span>& spans,
                  const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  out << "name\tparent\tbatch\tstart_ns\tend_ns\n";
  for (const Tracer::Span& s : spans) {
    out << s.name << '\t'
        << (s.parent == Tracer::kNone ? std::int64_t{-1}
                                      : std::int64_t{s.parent})
        << '\t' << s.batch << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

namespace {
constexpr const char* kWalAppend = "wal.append";
constexpr const char* kWalSync = "wal.sync";
constexpr const char* kWalCheckpoint = "wal.checkpoint";

bool IsSegment(const std::string& path) {
  return BaseName(path).rfind("wal-", 0) == 0;
}
}  // namespace

class TimingFile final : public WritableFile {
 public:
  TimingFile(TimingFs* fs, std::unique_ptr<WritableFile> base, bool segment)
      : fs_(fs), base_(std::move(base)), segment_(segment) {}

  Status Append(std::string_view data) override {
    ScopedSpan span(segment_ ? kWalAppend : kWalCheckpoint);
    {
      std::lock_guard<std::mutex> lock(fs_->mu_);
      if (segment_) {
        ++fs_->counters_.appends;
        fs_->counters_.append_bytes += data.size();
      } else {
        fs_->counters_.checkpoint_bytes += data.size();
      }
    }
    return base_->Append(data);
  }
  Status Flush() override {
    ScopedSpan span(segment_ ? kWalAppend : kWalCheckpoint);
    return base_->Flush();
  }
  Status Sync() override {
    ScopedSpan span(segment_ ? kWalSync : kWalCheckpoint);
    if (segment_) {
      std::lock_guard<std::mutex> lock(fs_->mu_);
      ++fs_->counters_.syncs;
    }
    return base_->Sync();
  }
  Status Close() override {
    ScopedSpan span(segment_ ? kWalAppend : kWalCheckpoint);
    return base_->Close();
  }

 private:
  TimingFs* fs_;
  std::unique_ptr<WritableFile> base_;
  bool segment_;
};

Result<std::unique_ptr<WritableFile>> TimingFs::NewWritableFile(
    const std::string& path, bool truncate) {
  const bool segment = IsSegment(path);
  ScopedSpan span(segment ? kWalAppend : kWalCheckpoint);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (segment) {
      counters_.log_dirs.insert(DirName(path));
    } else {
      ++counters_.checkpoints;
    }
  }
  RTIC_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        base_->NewWritableFile(path, truncate));
  return std::unique_ptr<WritableFile>(
      std::make_unique<TimingFile>(this, std::move(file), segment));
}

Result<std::string> TimingFs::ReadFile(const std::string& path) {
  ScopedSpan span(kWalCheckpoint);
  return base_->ReadFile(path);
}

Result<std::vector<std::string>> TimingFs::ListDir(const std::string& dir) {
  ScopedSpan span(kWalCheckpoint);
  return base_->ListDir(dir);
}

Status TimingFs::CreateDir(const std::string& dir) {
  ScopedSpan span(kWalCheckpoint);
  return base_->CreateDir(dir);
}

Status TimingFs::Rename(const std::string& from, const std::string& to) {
  ScopedSpan span(kWalCheckpoint);
  return base_->Rename(from, to);
}

Status TimingFs::Remove(const std::string& path) {
  ScopedSpan span(kWalCheckpoint);
  return base_->Remove(path);
}

Status TimingFs::SyncDir(const std::string& dir) {
  ScopedSpan span(kWalCheckpoint);
  return base_->SyncDir(dir);
}

Status TimingFs::Truncate(const std::string& path, std::uint64_t size) {
  ScopedSpan span(kWalCheckpoint);
  return base_->Truncate(path, size);
}

Result<bool> TimingFs::FileExists(const std::string& path) {
  ScopedSpan span(kWalCheckpoint);
  return base_->FileExists(path);
}

TimingFs::Counters TimingFs::TakeCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  Counters out = std::move(counters_);
  counters_ = Counters();
  return out;
}

// ---- verdict transcripts --------------------------------------------------

std::uint64_t HashVerdict(const std::vector<Violation>& violations) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const Violation& v : violations) {
    for (char c : v.ToString()) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
  return h;
}

void AlterWitness(std::vector<Violation>* violations) {
  for (Violation& v : *violations) {
    if (v.witnesses.empty()) continue;
    std::vector<rtic::Value> values(v.witnesses[0].size(),
                                    rtic::Value::Int64(-1));
    v.witnesses[0] = rtic::Tuple(std::move(values));
    return;
  }
}

std::int64_t FirstMismatch(const std::vector<std::uint64_t>& got,
                           const std::vector<std::uint64_t>& want) {
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) return static_cast<std::int64_t>(i);
  }
  return got.size() == want.size() ? -1 : static_cast<std::int64_t>(n);
}

// ---- engine replay --------------------------------------------------------

Result<std::unique_ptr<EngineReplay>> EngineReplay::Create(
    const rtic::workload::Workload& w) {
  std::unique_ptr<EngineReplay> r(new EngineReplay());
  for (const auto& [table, schema] : w.schema) {
    RTIC_RETURN_IF_ERROR(r->db_.CreateTable(table, schema));
  }
  rtic::tl::PredicateCatalog catalog(w.schema.begin(), w.schema.end());
  for (const auto& [name, text] : w.constraints) {
    RTIC_ASSIGN_OR_RETURN(rtic::tl::FormulaPtr formula,
                          rtic::tl::ParseFormula(text));
    if (rtic::ResponseEngine::LooksLikeResponseConstraint(*formula)) {
      RTIC_ASSIGN_OR_RETURN(auto engine,
                            rtic::ResponseEngine::Create(*formula, catalog));
      r->engines_.push_back(std::move(engine));
    } else {
      RTIC_ASSIGN_OR_RETURN(
          auto engine, rtic::IncrementalEngine::Create(*formula, catalog));
      r->engines_.push_back(std::move(engine));
    }
  }
  return r;
}

Status EngineReplay::Apply(const rtic::UpdateBatch& batch, bool measured) {
  RTIC_RETURN_IF_ERROR(batch.Apply(&db_));
  bool violated = false;
  for (auto& engine : engines_) {
    const std::int64_t t0 = NowNs();
    RTIC_ASSIGN_OR_RETURN(bool holds,
                          engine->OnTransition(db_, batch.timestamp()));
    const std::int64_t t1 = NowNs();
    if (measured) check_us += static_cast<double>(t1 - t0) / 1e3;
    if (holds) continue;
    violated = true;
    RTIC_RETURN_IF_ERROR(engine->CurrentCounterexamples(db_).status());
    if (measured) witness_us += static_cast<double>(NowNs() - t1) / 1e3;
  }
  if (measured && violated) ++witness_batches;
  return Status::OK();
}

double RelevantCheckFraction(const rtic::workload::Workload& w,
                             std::size_t first, std::size_t last) {
  // The tables each constraint names: a table name followed by '(' and not
  // preceded by an identifier character.
  std::vector<std::vector<std::string>> tables;
  for (const auto& [name, text] : w.constraints) {
    std::vector<std::string> named;
    for (const auto& [table, schema] : w.schema) {
      for (std::size_t pos = text.find(table + "("); pos != std::string::npos;
           pos = text.find(table + "(", pos + 1)) {
        if (pos > 0 && (std::isalnum(static_cast<unsigned char>(
                            text[pos - 1])) ||
                        text[pos - 1] == '_')) {
          continue;
        }
        named.push_back(table);
        break;
      }
    }
    tables.push_back(std::move(named));
  }
  std::uint64_t relevant = 0;
  std::uint64_t pairs = 0;
  for (std::size_t i = first; i < last; ++i) {
    const rtic::UpdateBatch& b = w.batches[i];
    for (const auto& named : tables) {
      ++pairs;
      for (const std::string& t : named) {
        const auto ins = b.inserts().find(t);
        const auto del = b.deletes().find(t);
        if ((ins != b.inserts().end() && !ins->second.empty()) ||
            (del != b.deletes().end() && !del->second.empty())) {
          ++relevant;
          break;
        }
      }
    }
  }
  return pairs == 0 ? 0 : static_cast<double>(relevant) /
                              static_cast<double>(pairs);
}

// ---- runs and results -----------------------------------------------------

void Latencies::AddRep(const std::vector<double>& us,
                       const std::vector<char>& rep_violated) {
  if (reps++ == 0) {
    floor_us = us;
    violated = rep_violated;
  } else {
    for (std::size_t i = 0; i < us.size() && i < floor_us.size(); ++i) {
      floor_us[i] = std::min(floor_us[i], us[i]);
    }
  }
  rep_p50.push_back(Percentile(us, 50));
}

double Latencies::Verdict(double p) const { return Percentile(floor_us, p); }

double Latencies::Detect(double p) const {
  std::vector<double> detect;
  for (std::size_t i = 0; i < floor_us.size(); ++i) {
    if (violated[i] != 0) detect.push_back(floor_us[i]);
  }
  return Percentile(std::move(detect), p);
}

std::size_t Latencies::DetectCount() const {
  return static_cast<std::size_t>(std::count_if(
      violated.begin(), violated.end(), [](char v) { return v != 0; }));
}

double Latencies::UpdatesPerS() const {
  double sum_us = 0;
  for (double us : floor_us) sum_us += us;
  return sum_us == 0 ? 0 : 1e6 * static_cast<double>(floor_us.size()) / sum_us;
}

void AddEndToEnd(RunResult* r, const std::vector<double>& setup_s,
                 const std::vector<double>& loop_updates_per_s,
                 const Latencies& closed, const Latencies& lat,
                 double mem_mb) {
  // The host slows whole repetitions down, by up to half, and for seconds at
  // a time, so a repetition's own percentiles mostly measure the host. Each
  // timing is taken over the per-batch floors instead (see Latencies), and
  // set-up time is the median of the run's set-ups.
  r->Add("setup_s", Median(setup_s), "s");
  r->Add("updates_per_s", closed.UpdatesPerS(), "1/s");
  r->Add("verdict_p50_us", lat.Verdict(50), "us");
  r->Add("verdict_p99_us", lat.Verdict(99), "us");
  r->Add("detect_p50_us", lat.Detect(50), "us");
  r->Add("detect_p99_us", lat.Detect(99), "us");
  r->Add("mem_mb", mem_mb, "MiB");
  r->extra.push_back({"failed_frac",
                      r->attempted == 0
                          ? 0
                          : static_cast<double>(r->failed) /
                                static_cast<double>(r->attempted),
                      "fraction", ""});
  std::ostringstream reps;
  reps << "per repetition, timed directly: loop updates_per_s";
  for (double v : loop_updates_per_s) reps << ' ' << v;
  reps << "; setup_s";
  for (double v : setup_s) reps << ' ' << v;
  reps << "; verdict_p50_us";
  for (double v : lat.rep_p50) reps << ' ' << v;
  r->Note(reps.str());
  r->Note("samples: " + std::to_string(lat.reps) + " repetitions of " +
          std::to_string(lat.floor_us.size()) + " batches, " +
          std::to_string(lat.DetectCount()) +
          " of them violating; latencies and throughput are taken over "
          "each batch's lowest latency across the repetitions");
}

void AddPerLayer(RunResult* r, const LayerReport& layers) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"tl.register_ms", "ms"},
      {"engines.check_us", "us"},
      {"engines.relevant_check_frac", "fraction"},
      {"fo.witness_us", "us"},
      {"monitor.apply_us", "us"},
      {"monitor.self_us", "us"},
      {"engines.aux_anchors", "count"},
      {"engines.aux_valuations", "count"},
      {"engines.storage_rows", "count"},
      {"wal.append_us", "us"},
      {"wal.appends_per_batch", "count"},
      {"wal.bytes_per_batch", "B"},
      {"wal.sync_us", "us"},
      {"wal.syncs_per_batch", "count"},
      {"wal.checkpoint_us", "us"},
      {"wal.checkpoint_bytes", "B"},
      {"wal.checkpoints", "count"},
      {"wal.logs", "count"},
      {"shard.route_us", "us"},
      {"shard.empty_subbatch_frac", "fraction"},
      {"server.rtt_us", "us"},
      {"server.codec_us", "us"},
      {"server.self_us", "us"},
      {"workload.late_p99_us", "us"},
      {"trace.batch_us", "us"},
      {"trace.unaccounted_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kLayers) {
    auto it = layers.values.find(name);
    if (it == layers.values.end()) {
      r->Add(name, 0, unit, "not on this workload's path");
    } else {
      r->Add(name, it->second.first, unit, it->second.second);
    }
  }
}

bool WantAnotherRep(std::int64_t start_ns, double seconds, std::size_t done,
                    std::size_t min_reps) {
  if (done < min_reps) return true;
  const double elapsed = static_cast<double>(NowNs() - start_ns) / 1e9;
  // Start another repetition only if it is likely to finish in time.
  const double per_rep = elapsed / static_cast<double>(done);
  return elapsed + per_rep <= seconds;
}

}  // namespace perfbench
