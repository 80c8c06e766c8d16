// serve_commit: a self-hosted RticServer with one durable tenant (WAL and
// checkpoints on the in-memory file system, default kBatch flushing, a
// checkpoint every 64 batches) and one session carrying commit-protocol
// traffic with the workload's own timestamps. Each repetition runs a
// Poisson open loop at a fixed rate, then a closed-loop saturation phase,
// on the same session. Transaction ids never repeat, so checkpoints grow
// with the history.

#include <filesystem>
#include <memory>
#include <string>

#include "monitor/monitor.h"
#include "server/client.h"
#include "server/server.h"
#include "server/server_format.h"
#include "workload/driver.h"
#include "workload/generators.h"

#include "harness.h"

namespace perfbench {
namespace {

using rtic::Violation;
using rtic::server::RticClient;
using rtic::server::RticServer;
using rtic::workload::Workload;

constexpr std::size_t kWarmup = 2000;
constexpr std::size_t kOpen = 10000;   // open-loop batches per repetition
constexpr std::size_t kClosed = 8000;  // saturation batches per repetition
constexpr double kRatePerSec = 4000;   // open-loop offered rate
constexpr const char* kTenant = "bench";

Workload MakeInput(std::uint64_t seed) {
  rtic::workload::CommitParams p;
  p.length = kWarmup + kOpen + kClosed;
  p.late_vote_prob = 0.03;
  p.late_decide_prob = 0.03;
  p.seed = seed;
  return rtic::workload::MakeCommitProtocolWorkload(p);
}

rtic::MonitorOptions TenantOptions(rtic::wal::Fs* fs, const std::string& dir) {
  rtic::MonitorOptions options;
  options.wal_dir = dir;
  options.wal_fs = fs;
  return options;
}

/// One round trip; in a traced repetition the server's WAL writes made on
/// this batch's behalf become children of the round-trip span.
Result<RticClient::ApplyResult> RoundTrip(RticClient* client,
                                          const rtic::UpdateBatch& batch) {
  ScopedSpan rtt("server.rtt");
  Trace().Adopt(rtt.id());
  Result<RticClient::ApplyResult> r = client->Apply(batch);
  Trace().Adopt(Tracer::kNone);
  return r;
}

/// The in-process replay of the same stream through a durable monitor with
/// the tenant's options: the reference transcript, and (traced) the
/// monitor, check and WAL time the server spends inside its worker.
struct Replay {
  std::vector<std::uint64_t> transcript;
  double apply_us = 0;      // ApplyUpdate, measured batches
  double wal_us = 0;        // its WAL spans, measured batches
  double check_us = 0;      // ConstraintStats counter, measured batches
  double codec_us = 0;      // EncodeApplyBatch + DecodeVerdictPayload
};

Result<Replay> ReplayStream(const Workload& w, const std::string& dir,
                            bool timed) {
  Replay out;
  MemFs mem;
  TimingFs timing(&mem);
  rtic::ConstraintMonitor m(TenantOptions(&timing, dir));
  for (const auto& [table, schema] : w.schema) {
    RTIC_RETURN_IF_ERROR(m.CreateTable(table, schema));
  }
  for (const auto& [name, text] : w.constraints) {
    RTIC_RETURN_IF_ERROR(m.RegisterConstraint(name, text));
  }
  RTIC_RETURN_IF_ERROR(m.Recover().status());
  std::vector<rtic::ConstraintStats> before;
  out.transcript.reserve(w.batches.size());
  for (std::size_t i = 0; i < w.batches.size(); ++i) {
    const bool measured = timed && i >= kWarmup;
    if (measured && i == kWarmup) {
      before = m.Stats();
      Trace().Take();
      Trace().set_enabled(true);
    }
    Trace().set_batch(static_cast<std::int64_t>(i));
    const std::int64_t t0 = NowNs();
    Result<std::vector<Violation>> r = m.ApplyUpdate(w.batches[i]);
    const std::int64_t t1 = NowNs();
    if (!r.ok()) return r.status();
    out.transcript.push_back(HashVerdict(*r));
    if (!measured) continue;
    out.apply_us += static_cast<double>(t1 - t0) / 1e3;
    Trace().set_enabled(false);
    const std::int64_t c0 = NowNs();
    const std::string frame = rtic::server::EncodeApplyBatch(w.batches[i]);
    const std::int64_t c1 = NowNs();
    const std::string payload =
        rtic::server::EncodeVerdictPayload(w.batches[i].timestamp(), *r);
    const std::int64_t c2 = NowNs();
    RTIC_RETURN_IF_ERROR(
        rtic::server::DecodeVerdictPayload(payload).status());
    const std::int64_t c3 = NowNs();
    out.codec_us += static_cast<double>((c1 - c0) + (c3 - c2)) / 1e3;
    Trace().set_enabled(true);
  }
  if (timed) {
    Trace().set_enabled(false);
    std::map<std::string, SpanTotals> spans;
    AddMeasuredSpans(Trace().Take(), &spans);
    for (const auto& [name, t] : spans) {
      if (name.rfind("wal.", 0) == 0) out.wal_us += t.total_us;
    }
    const std::vector<rtic::ConstraintStats> after = m.Stats();
    for (std::size_t k = 0; k < after.size() && k < before.size(); ++k) {
      out.check_us += static_cast<double>(after[k].total_check_micros -
                                          before[k].total_check_micros);
    }
  }
  return out;
}

}  // namespace

RunResult RunServeCommit(const RunConfig& config) {
  RunResult result;
  const Workload input = MakeInput(config.seed);
  const std::size_t total = input.batches.size();
  rtic::workload::DriverOptions arrivals;
  arrivals.arrival = rtic::workload::ArrivalKind::kPoisson;
  arrivals.rate_per_sec = kRatePerSec;
  arrivals.seed = config.seed;
  const std::vector<double> schedule =
      rtic::workload::ArrivalSchedule(kOpen, arrivals);

  // Everything the loop keeps is allocated before the RSS baseline.
  std::vector<std::uint64_t> digests(total, 0);
  std::vector<std::uint64_t> first(total, 0);
  std::vector<double> rep_us(kOpen, 0.0);
  std::vector<double> rep_late_us(kOpen, 0.0);
  std::vector<char> rep_violated(kOpen, 0);
  std::vector<double> closed_us(kClosed, 0.0);
  std::vector<char> closed_violated(kClosed, 0);
  Latencies closed_lat;
  Latencies lat;
  std::vector<double> late_p99_us;  // per repetition
  std::vector<double> setup_s;
  std::vector<double> updates_per_s;
  std::vector<double> traced_updates_per_s;
  std::vector<double> register_ms;
  std::map<std::string, SpanTotals> spans;
  std::vector<Tracer::Span> last_spans;
  TimingFs::Counters fs_sum;
  std::size_t traced_reps = 0;
  rtic::server::StatsReply last_stats;
  double mem_mb = 0;
  const double rss0 = RssMiB();

  auto ok = [&](const Status& s, const std::string& what) {
    if (!s.ok()) result.Fail(what + ": " + s.ToString());
    return s.ok();
  };

  const std::int64_t run_start = NowNs();
  const std::size_t min_reps = config.trace ? 2 : 1;
  for (std::size_t rep = 0;
       result.correct &&
       WantAnotherRep(run_start, config.seconds, rep, min_reps);
       ++rep) {
    const bool traced = config.trace && rep % 2 == 1;
    MemFs mem;
    TimingFs timing(&mem);
    rtic::wal::Fs* fs = traced ? static_cast<rtic::wal::Fs*>(&timing) : &mem;
    const std::string dir = config.work_dir + "/serve_commit-rep" +
                            std::to_string(rep);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Trace().set_batch(Tracer::kSetup);
    Trace().set_enabled(traced);

    // ---- set-up: start the server, connect, create, register, warm up
    // (the tenant's worker runs Recover() before the first batch).
    const std::int64_t setup_start = NowNs();
    rtic::server::ServerOptions server_options;
    server_options.monitor_options = TenantOptions(fs, dir);
    auto started = RticServer::Start(std::move(server_options));
    if (!ok(started.status(), "starting the server")) break;
    std::unique_ptr<RticServer> server = std::move(started).value();
    auto connected = RticClient::Connect(server->address(), kTenant);
    if (!ok(connected.status(), "connecting")) break;
    std::unique_ptr<RticClient> client = std::move(connected).value();
    bool setup_ok = true;
    for (const auto& [table, schema] : input.schema) {
      setup_ok = setup_ok &&
                 ok(client->CreateTable(table, schema), "CreateTable " + table);
    }
    std::int64_t register_ns = 0;
    for (const auto& [name, text] : input.constraints) {
      ScopedSpan span("tl.register");
      const std::int64_t t0 = NowNs();
      setup_ok = setup_ok && ok(client->RegisterConstraint(name, text),
                                "RegisterConstraint " + name);
      register_ns += NowNs() - t0;
    }
    std::size_t accepted = 0;
    auto record = [&](std::size_t i, Result<RticClient::ApplyResult>& r,
                      bool* violated) {
      ++result.attempted;
      if (!r.ok() || r->overloaded) {
        ++result.failed;
        if (!r.ok()) ok(r.status(), "batch " + std::to_string(i));
        return false;
      }
      ++accepted;
      *violated = !r->violations.empty();
      digests[i] = HashVerdict(r->violations);
      return true;
    };
    for (std::size_t i = 0; setup_ok && i < kWarmup; ++i) {
      Result<RticClient::ApplyResult> r = client->Apply(input.batches[i]);
      bool violated = false;
      setup_ok = record(i, r, &violated);
    }
    if (!setup_ok) break;
    const double setup = static_cast<double>(NowNs() - setup_start) / 1e9;
    if (traced) timing.TakeCounters();

    // ---- open loop: spin to each due time, time from the due time.
    bool altered = false;
    const std::int64_t open_start = NowNs() + 1'000'000;
    for (std::size_t j = 0; result.correct && j < kOpen; ++j) {
      const std::size_t i = kWarmup + j;
      const std::int64_t due =
          open_start + static_cast<std::int64_t>(schedule[j] * 1e9);
      SpinUntil(due);
      Trace().set_batch(static_cast<std::int64_t>(i));
      ScopedSpan batch_span("batch");
      const std::int64_t sent = NowNs();
      Result<RticClient::ApplyResult> r = RoundTrip(client.get(),
                                                    input.batches[i]);
      const std::int64_t done = NowNs();
      if (r.ok() && config.alter_witness && !altered &&
          !r->violations.empty()) {
        AlterWitness(&r->violations);
        altered = true;
      }
      bool violated = false;
      if (!record(i, r, &violated)) continue;
      rep_us[j] = static_cast<double>(done - due) / 1e3;
      rep_late_us[j] = static_cast<double>(sent - due) / 1e3;
      rep_violated[j] = violated;
    }

    // ---- closed loop: saturation on the same session.
    const std::int64_t closed_start = NowNs();
    for (std::size_t i = kWarmup + kOpen; result.correct && i < total; ++i) {
      Trace().set_batch(static_cast<std::int64_t>(i));
      ScopedSpan batch_span("batch");
      const std::int64_t t0 = NowNs();
      Result<RticClient::ApplyResult> r = RoundTrip(client.get(),
                                                    input.batches[i]);
      const std::int64_t t1 = NowNs();
      bool violated = false;
      if (!record(i, r, &violated)) continue;
      closed_us[i - kWarmup - kOpen] = static_cast<double>(t1 - t0) / 1e3;
      closed_violated[i - kWarmup - kOpen] = violated;
    }
    const double closed_s =
        static_cast<double>(NowNs() - closed_start) / 1e9;
    if (!result.correct) break;
    if (rep == 0) mem_mb = RssMiB() - rss0;
    Trace().set_enabled(false);

    auto stats = client->GetStats();
    if (!ok(stats.status(), "GetStats")) break;
    if (stats->transition_count != accepted) {
      result.Fail("tenant transition_count " +
                  std::to_string(stats->transition_count) + " != accepted " +
                  std::to_string(accepted));
      break;
    }
    const double ups = static_cast<double>(kClosed) / closed_s;
    if (traced) {
      fs_sum.Add(timing.TakeCounters());
      last_spans = Trace().Take();
      AddMeasuredSpans(last_spans, &spans);
      register_ms.push_back(static_cast<double>(register_ns) / 1e6);
      traced_updates_per_s.push_back(ups);
      last_stats = *stats;
      ++traced_reps;
    } else {
      setup_s.push_back(setup);
      updates_per_s.push_back(ups);
      lat.AddRep(rep_us, rep_violated);
      late_p99_us.push_back(Percentile(rep_late_us, 99));
      closed_lat.AddRep(closed_us, closed_violated);
    }
    client->Close();
    server->Stop();
    server.reset();
    std::filesystem::remove_all(dir);

    if (rep == 0) {
      first = digests;
    } else if (std::int64_t at = FirstMismatch(digests, first); at >= 0) {
      result.Fail("repetition " + std::to_string(rep) +
                  " differs from the first at batch " + std::to_string(at));
    }
  }
  Trace().set_enabled(false);
  if (!result.correct) return result;

  const std::string replay_dir = config.work_dir + "/serve_commit-replay";
  std::filesystem::remove_all(replay_dir);
  std::filesystem::create_directories(replay_dir);
  Result<Replay> replay = ReplayStream(input, replay_dir, config.trace);
  std::filesystem::remove_all(replay_dir);
  if (!replay.ok()) {
    result.Fail("in-process replay: " + replay.status().ToString());
    return result;
  }
  if (std::int64_t at = FirstMismatch(first, replay->transcript); at >= 0) {
    result.Fail("served verdict differs from the in-process replay at batch " +
                std::to_string(at));
    return result;
  }
  result.Note("verdict check: served transcript equals an in-process "
              "replay over " + std::to_string(total) +
              " batches; tenant transition_count equals accepted batches");

  if (!config.trace) {
    AddEndToEnd(&result, setup_s, updates_per_s, closed_lat, lat, mem_mb);
    result.extra.push_back({"workload.late_p99_us", Median(late_p99_us),
                            "us", "open loop: send time minus due time"});
    result.extra.push_back({"closed.verdict_p50_us",
                            closed_lat.Verdict(50), "us",
                            "saturation phase, from the call"});
    result.extra.push_back({"closed.verdict_p99_us",
                            closed_lat.Verdict(99), "us",
                            "saturation phase, from the call"});
    return result;
  }

  // ---- per-layer: live spans around the round trip plus the replay of
  // the work the server does inside its worker.
  Result<std::unique_ptr<EngineReplay>> engines = EngineReplay::Create(input);
  if (!engines.ok()) {
    result.Fail("engine replay: " + engines.status().ToString());
    return result;
  }
  for (std::size_t i = 0; i < total; ++i) {
    Status s = (*engines)->Apply(input.batches[i], i >= kWarmup);
    if (!s.ok()) {
      result.Fail("engine replay: " + s.ToString());
      return result;
    }
  }
  const EngineReplay& e = **engines;
  const double measured = static_cast<double>(kOpen + kClosed);
  const double n = measured * static_cast<double>(std::max<std::size_t>(
                                  traced_reps, 1));
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals() : it->second;
  };
  // The round trip's self time already excludes the WAL spans the worker
  // recorded under it; the codec and the replayed monitor work (without its
  // own WAL time) are its other children.
  const double apply_r = replay->apply_us / measured;
  const double wal_r = replay->wal_us / measured;
  const double check_r = replay->check_us / measured;
  const double codec_r = replay->codec_us / measured;
  const double witness_share = e.witness_us / measured;

  LayerReport layers;
  const std::string live = "live span";
  layers.Set("trace.batch_us", span("batch").total_us / n, live);
  layers.Set("trace.unaccounted_us", span("batch").self_us / n,
             "batch span self time (the benchmark's loop)");
  layers.Set("server.rtt_us", span("server.rtt").total_us / n,
             "live span: RticClient::Apply");
  layers.Set("server.codec_us", codec_r,
             "replay: EncodeApplyBatch + DecodeVerdictPayload per batch");
  layers.Set("server.self_us",
             span("server.rtt").self_us / n - codec_r - (apply_r - wal_r),
             "round trip minus codec, live WAL and replayed monitor work");
  layers.Set("monitor.apply_us", apply_r,
             "replay: durable ConstraintMonitor::ApplyUpdate, same options");
  layers.Set("monitor.self_us", apply_r - wal_r - check_r - witness_share,
             "replayed apply minus its WAL, check and witness time");
  layers.Set("engines.check_us", check_r,
             "replay monitor's ConstraintStats.total_check_micros (each "
             "check truncated to whole us)");
  layers.Set("fo.witness_us",
             e.witness_batches == 0
                 ? 0
                 : e.witness_us / static_cast<double>(e.witness_batches),
             "replay: CurrentCounterexamples per violating batch, unshared "
             "engines");
  layers.Set("engines.relevant_check_frac",
             RelevantCheckFraction(input, kWarmup, total),
             "computed from the input");
  SetWalLayers(spans, fs_sum, n,
               static_cast<double>(std::max<std::size_t>(traced_reps, 1)),
               "live span (server worker)", &layers);
  layers.Set("tl.register_ms", Median(register_ms),
             "live span: RegisterConstraint round trips");
  std::uint64_t anchors = 0;
  std::uint64_t valuations = 0;
  std::uint64_t rows = 0;
  for (const auto& c : last_stats.constraints) {
    anchors += c.aux_anchors;
    valuations += c.aux_valuations;
    rows += c.storage_rows;
  }
  layers.Set("engines.aux_anchors", static_cast<double>(anchors),
             "server StatsReply at run end");
  layers.Set("engines.aux_valuations", static_cast<double>(valuations),
             "server StatsReply at run end");
  layers.Set("engines.storage_rows", static_cast<double>(rows),
             "server StatsReply at run end");
  layers.Set("workload.late_p99_us", Median(late_p99_us),
             "untraced repetitions: send time minus due time");
  layers.Set("trace.overhead_pct",
             OverheadPct(updates_per_s, traced_updates_per_s),
             "untraced vs traced repetitions of this run (saturation phase)");
  result.extra.push_back({"engines.check_replay_us", e.check_us / measured,
                          "us",
                          "replay: OnTransition per batch, unshared engines"});
  AddPerLayer(&result, layers);
  if (!last_spans.empty() && !config.spans_path.empty()) {
    Status s = WriteSpans(last_spans, config.spans_path);
    if (!s.ok()) result.Note("spans not written: " + s.ToString());
  }
  return result;
}

}  // namespace perfbench
