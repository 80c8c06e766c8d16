// shard_library: library circulation at E16 scale (400 patrons x 800
// books) through an in-process 4-shard ShardedMonitor with serial fan-out,
// durable on the in-memory file system, driven in a closed loop from one
// thread. Every library constraint is partition-local, so routing,
// lockstep sub-applies and the per-shard WAL/checkpoint chains do the work.

#include <memory>
#include <string>

#include "monitor/monitor.h"
#include "monitor_loop.h"
#include "shard/router.h"
#include "shard/sharded_monitor.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using rtic::workload::Workload;

constexpr std::size_t kShards = 4;
constexpr std::size_t kWarmup = 3000;
constexpr std::size_t kMeasured = 20000;
// Checkpoint batches are the costliest ones. At the default interval (64)
// they are 1.6% of the batches, so whether the slowest 1% of the ~2,000
// violating batches reached them depended on where the seed put its
// violations (detect_p99_us 43 us on one seed, 62-69 us on others). One in
// 32 keeps both p99s well inside the checkpoint batches on every seed.
constexpr std::size_t kCheckpointInterval = 32;

Workload MakeInput(std::uint64_t seed) {
  rtic::workload::LibraryParams p;
  p.num_patrons = 400;
  p.num_books = 800;
  p.length = kWarmup + kMeasured;
  p.nonmember_prob = 0.045;
  p.late_return_prob = 0.03;
  p.seed = seed;
  return rtic::workload::MakeLibraryWorkload(p);
}

/// The reference transcript: an unsharded in-memory monitor.
Result<std::vector<std::uint64_t>> UnshardedTranscript(const Workload& w) {
  rtic::ConstraintMonitor m;
  for (const auto& [table, schema] : w.schema) {
    RTIC_RETURN_IF_ERROR(m.CreateTable(table, schema));
  }
  for (const auto& [name, text] : w.constraints) {
    RTIC_RETURN_IF_ERROR(m.RegisterConstraint(name, text));
  }
  std::vector<std::uint64_t> digests;
  digests.reserve(w.batches.size());
  for (const rtic::UpdateBatch& b : w.batches) {
    RTIC_ASSIGN_OR_RETURN(std::vector<rtic::Violation> v, m.ApplyUpdate(b));
    digests.push_back(HashVerdict(v));
  }
  return digests;
}

}  // namespace

RunResult RunShardLibrary(const RunConfig& config) {
  RunResult result;
  const Workload input = MakeInput(config.seed);

  InProcessSpec spec;
  spec.input = &input;
  spec.warmup = kWarmup;
  spec.durable = true;
  spec.make = [](rtic::wal::Fs* fs, const std::string& dir)
      -> Result<std::unique_ptr<rtic::MonitorLike>> {
    rtic::MonitorOptions options;
    options.wal_dir = dir;
    options.wal_fs = fs;
    options.num_threads = 1;  // serial fan-out across the shards
    options.checkpoint_interval = kCheckpointInterval;
    RTIC_ASSIGN_OR_RETURN(
        std::unique_ptr<rtic::shard::ShardedMonitor> m,
        rtic::shard::ShardedMonitor::Create(kShards, std::move(options)));
    return std::unique_ptr<rtic::MonitorLike>(std::move(m));
  };
  InProcessOutcome out = RunInProcess(config, spec, &result);
  if (!result.correct) return result;

  Result<std::vector<std::uint64_t>> reference = UnshardedTranscript(input);
  if (!reference.ok()) {
    result.Fail("reference run: " + reference.status().ToString());
    return result;
  }
  if (std::int64_t at = FirstMismatch(out.transcript, *reference); at >= 0) {
    result.Fail("sharded verdict differs from the unsharded monitor at "
                "batch " + std::to_string(at));
    return result;
  }
  result.Note("verdict check: sharded transcript equals an unsharded "
              "monitor over " + std::to_string(input.batches.size()) +
              " batches");

  if (!config.trace) {
    AddEndToEnd(&result, out.setup_s, out.updates_per_s, out.latencies,
                out.latencies, out.mem_mb);
    return result;
  }

  // Routing runs inside ShardedMonitor::ApplyUpdate; replay it through
  // RouteBatch with the same partition map (every table keyed on column 0).
  rtic::shard::Partitioner partitioner(kShards);
  for (const auto& [table, schema] : input.schema) {
    Status s = partitioner.AddTable(table, schema, 0);
    if (!s.ok()) {
      result.Fail("partitioner: " + s.ToString());
      return result;
    }
  }
  double route_us = 0;
  std::size_t sub_batches = 0;
  std::size_t empty = 0;
  for (std::size_t i = kWarmup; i < input.batches.size(); ++i) {
    const std::int64_t t0 = NowNs();
    auto routed = rtic::shard::RouteBatch(input.batches[i], partitioner);
    route_us += static_cast<double>(NowNs() - t0) / 1e3;
    if (!routed.ok()) {
      result.Fail("RouteBatch: " + routed.status().ToString());
      return result;
    }
    for (const rtic::UpdateBatch& b : *routed) {
      ++sub_batches;
      if (b.IsEmpty()) ++empty;
    }
  }

  Result<std::unique_ptr<EngineReplay>> replay = EngineReplay::Create(input);
  if (!replay.ok()) {
    result.Fail("engine replay: " + replay.status().ToString());
    return result;
  }
  for (std::size_t i = 0; i < input.batches.size(); ++i) {
    Status s = (*replay)->Apply(input.batches[i], i >= kWarmup);
    if (!s.ok()) {
      result.Fail("engine replay: " + s.ToString());
      return result;
    }
  }
  const EngineReplay& r = **replay;
  const double n = static_cast<double>(kMeasured);
  LayerReport layers;
  FillInProcessLayers(
      out,
      {{"shard.route_us", route_us / n, route_us / n,
        "replay: RouteBatch per batch, same partition map"},
       {"fo.witness_us",
        r.witness_batches == 0
            ? 0
            : r.witness_us / static_cast<double>(r.witness_batches),
        r.witness_us / n,
        "replay: CurrentCounterexamples per violating batch, unsharded "
        "engines"}},
      &layers);
  layers.Set("shard.empty_subbatch_frac",
             sub_batches == 0 ? 0
                              : static_cast<double>(empty) /
                                    static_cast<double>(sub_batches),
             "replay: RouteBatch sub-batches that are pure clock ticks");
  layers.Set("engines.relevant_check_frac",
             RelevantCheckFraction(input, kWarmup, input.batches.size()),
             "computed from the input");
  result.extra.push_back({"engines.check_replay_us", r.check_us / n, "us",
                          "replay: OnTransition per batch, unsharded engines"});
  AddPerLayer(&result, layers);
  if (!out.last_spans.empty() && !config.spans_path.empty()) {
    Status s = WriteSpans(out.last_spans, config.spans_path);
    if (!s.ok()) result.Note("spans not written: " + s.ToString());
  }
  return result;
}

}  // namespace perfbench
