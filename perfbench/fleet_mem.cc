// fleet_mem: one in-memory ConstraintMonitor checking four scenario
// families at once — alarm, library, freshness and commit, 15 constraints
// over 15 disjoint tables — driven in a closed loop from one thread.
// Checking (engines, fo, ra, storage) does all the work: no WAL, server or
// shard is on the path.

#include <memory>
#include <string>

#include "monitor/monitor.h"
#include "monitor_loop.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using rtic::UpdateBatch;
using rtic::workload::Workload;

constexpr std::size_t kWarmup = 3000;
constexpr std::size_t kMeasured = 15000;

/// The four families, each generated with max_gap = 1 (so state i of every
/// family has timestamp i + 1) and its own seed. Violation dials are low
/// enough that about one merged batch in ten violates.
std::vector<Workload> MakeFamilies(std::uint64_t seed, std::size_t states) {
  std::vector<Workload> out;

  rtic::workload::AlarmParams alarm;
  alarm.length = states;
  alarm.max_gap = 1;
  alarm.late_prob = 0.0075;
  alarm.seed = seed * 4 + 1;
  out.push_back(rtic::workload::MakeAlarmWorkload(alarm));

  rtic::workload::LibraryParams library;
  library.length = states;
  library.max_gap = 1;
  library.nonmember_prob = 0.0075;
  library.late_return_prob = 0.004;
  library.seed = seed * 4 + 2;
  out.push_back(rtic::workload::MakeLibraryWorkload(library));

  rtic::workload::FreshnessParams freshness;
  freshness.length = states;
  freshness.max_gap = 1;
  freshness.stale_prob = 0.002;
  freshness.early_decommission_prob = 0.04;
  // At the default 0.02 every sensor has retired by about state 2,000;
  // scale retirement to the run so the farm keeps publishing throughout.
  freshness.decommission_prob = 0.02 * 2000.0 / static_cast<double>(states);
  freshness.seed = seed * 4 + 3;
  out.push_back(rtic::workload::MakeFreshnessWorkload(freshness));

  rtic::workload::CommitParams commit;
  commit.length = states;
  commit.max_gap = 1;
  commit.late_vote_prob = 0.0075;
  commit.late_decide_prob = 0.0075;
  commit.seed = seed * 4 + 4;
  out.push_back(rtic::workload::MakeCommitProtocolWorkload(commit));
  return out;
}

/// Merges the families state by state into one batch stream.
Result<Workload> MergeFamilies(const std::vector<Workload>& families,
                               std::size_t states) {
  Workload merged;
  for (const Workload& f : families) {
    for (const auto& [table, schema] : f.schema) {
      if (!merged.schema.emplace(table, schema).second) {
        return Status::InvalidArgument("families share table " + table);
      }
    }
    merged.constraints.insert(merged.constraints.end(),
                              f.constraints.begin(), f.constraints.end());
    if (f.batches.size() != states) {
      return Status::Internal("a family produced " +
                              std::to_string(f.batches.size()) +
                              " states instead of " + std::to_string(states));
    }
  }
  merged.batches.reserve(states);
  for (std::size_t i = 0; i < states; ++i) {
    UpdateBatch batch(families[0].batches[i].timestamp());
    for (const Workload& f : families) {
      const UpdateBatch& b = f.batches[i];
      if (b.timestamp() != batch.timestamp()) {
        return Status::Internal("family clocks diverge at state " +
                                std::to_string(i));
      }
      for (const auto& [table, tuples] : b.deletes()) {
        for (const rtic::Tuple& t : tuples) batch.Delete(table, t);
      }
      for (const auto& [table, tuples] : b.inserts()) {
        for (const rtic::Tuple& t : tuples) batch.Insert(table, t);
      }
    }
    merged.batches.push_back(std::move(batch));
  }
  return merged;
}

/// The reference transcript: each family in its own monitor; the fleet's
/// verdict at state i is the families' verdicts in registration order.
Result<std::vector<std::uint64_t>> SeparateMonitorsTranscript(
    const std::vector<Workload>& families, std::size_t states) {
  std::vector<std::unique_ptr<rtic::ConstraintMonitor>> monitors;
  for (const Workload& f : families) {
    auto m = std::make_unique<rtic::ConstraintMonitor>();
    for (const auto& [table, schema] : f.schema) {
      RTIC_RETURN_IF_ERROR(m->CreateTable(table, schema));
    }
    for (const auto& [name, text] : f.constraints) {
      RTIC_RETURN_IF_ERROR(m->RegisterConstraint(name, text));
    }
    monitors.push_back(std::move(m));
  }
  std::vector<std::uint64_t> digests(states);
  for (std::size_t i = 0; i < states; ++i) {
    std::vector<rtic::Violation> all;
    for (std::size_t k = 0; k < families.size(); ++k) {
      RTIC_ASSIGN_OR_RETURN(std::vector<rtic::Violation> v,
                            monitors[k]->ApplyUpdate(families[k].batches[i]));
      for (rtic::Violation& x : v) all.push_back(std::move(x));
    }
    digests[i] = HashVerdict(all);
  }
  return digests;
}

}  // namespace

RunResult RunFleetMem(const RunConfig& config) {
  RunResult result;
  const std::size_t states = kWarmup + kMeasured;
  const std::vector<Workload> families = MakeFamilies(config.seed, states);
  Result<Workload> merged = MergeFamilies(families, states);
  if (!merged.ok()) {
    result.Fail("building the input: " + merged.status().ToString());
    return result;
  }

  InProcessSpec spec;
  spec.input = &merged.value();
  spec.warmup = kWarmup;
  spec.make = [](rtic::wal::Fs*, const std::string&)
      -> Result<std::unique_ptr<rtic::MonitorLike>> {
    return std::unique_ptr<rtic::MonitorLike>(
        std::make_unique<rtic::ConstraintMonitor>());
  };
  InProcessOutcome out = RunInProcess(config, spec, &result);
  if (!result.correct) return result;

  Result<std::vector<std::uint64_t>> reference =
      SeparateMonitorsTranscript(families, states);
  if (!reference.ok()) {
    result.Fail("reference run: " + reference.status().ToString());
    return result;
  }
  if (std::int64_t at = FirstMismatch(out.transcript, *reference); at >= 0) {
    result.Fail("fleet verdict differs from the four separate monitors at "
                "batch " + std::to_string(at));
    return result;
  }
  result.Note("verdict check: fleet transcript equals four separate "
              "monitors over " + std::to_string(states) + " states");

  if (!config.trace) {
    AddEndToEnd(&result, out.setup_s, out.updates_per_s, out.latencies,
                out.latencies, out.mem_mb);
    return result;
  }

  LayerReport layers;
  Result<std::unique_ptr<EngineReplay>> replay = EngineReplay::Create(*merged);
  if (!replay.ok()) {
    result.Fail("engine replay: " + replay.status().ToString());
    return result;
  }
  for (std::size_t i = 0; i < states; ++i) {
    Status s = (*replay)->Apply(merged->batches[i], i >= kWarmup);
    if (!s.ok()) {
      result.Fail("engine replay: " + s.ToString());
      return result;
    }
  }
  const EngineReplay& r = **replay;
  const double n = static_cast<double>(kMeasured);
  FillInProcessLayers(
      out,
      {{"fo.witness_us",
        r.witness_batches == 0
            ? 0
            : r.witness_us / static_cast<double>(r.witness_batches),
        r.witness_us / n,
        "replay: CurrentCounterexamples per violating batch, unshared "
        "engines"}},
      &layers);
  layers.Set("engines.relevant_check_frac",
             RelevantCheckFraction(*merged, kWarmup, states),
             "computed from the input");
  result.extra.push_back({"engines.check_replay_us", r.check_us / n, "us",
                          "replay: OnTransition per batch, unshared engines"});
  AddPerLayer(&result, layers);
  if (!out.last_spans.empty() && !config.spans_path.empty()) {
    Status s = WriteSpans(out.last_spans, config.spans_path);
    if (!s.ok()) result.Note("spans not written: " + s.ToString());
  }
  return result;
}

}  // namespace perfbench
