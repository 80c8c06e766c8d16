#include "monitor_loop.h"

#include <filesystem>

namespace perfbench {

using rtic::MonitorLike;
using rtic::Violation;

InProcessOutcome RunInProcess(const RunConfig& config,
                              const InProcessSpec& spec, RunResult* result) {
  InProcessOutcome out;
  const rtic::workload::Workload& w = *spec.input;
  const std::size_t total = w.batches.size();
  const std::size_t measured = total - spec.warmup;

  // Everything the loop keeps is allocated before the RSS baseline.
  std::vector<std::uint64_t> digests(total, 0);
  out.transcript.assign(total, 0);
  std::vector<double> rep_us(measured, 0.0);
  std::vector<char> rep_violated(measured, 0);
  const double rss0 = RssMiB();

  auto ok = [&](const Status& s, const std::string& what) {
    if (!s.ok()) result->Fail(what + ": " + s.ToString());
    return s.ok();
  };

  CpuRotation rotation;
  const std::int64_t run_start = NowNs();
  const std::size_t min_reps = config.trace ? 2 : 1;
  for (std::size_t rep = 0;
       result->correct &&
       WantAnotherRep(run_start, config.seconds, rep, min_reps);
       ++rep) {
    // In trace mode untraced and traced repetitions alternate, so the
    // tracing overhead is measured within one process; each pair shares a
    // CPU.
    const bool traced = config.trace && rep % 2 == 1;
    rotation.Pin(config.trace ? rep / 2 : rep);
    MemFs mem;
    TimingFs timing(&mem);
    rtic::wal::Fs* fs = traced ? static_cast<rtic::wal::Fs*>(&timing) : &mem;
    const std::string dir =
        config.work_dir + "/" + config.workload + "-rep" +
        std::to_string(rep);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Trace().set_batch(Tracer::kSetup);
    Trace().set_enabled(traced);

    // ---- set-up: construct, create, register, recover, warm up.
    const std::int64_t setup_start = NowNs();
    Result<std::unique_ptr<MonitorLike>> made = spec.make(fs, dir);
    if (!ok(made.status(), "constructing the monitor")) break;
    std::unique_ptr<MonitorLike> monitor = std::move(made).value();
    bool setup_ok = true;
    for (const auto& [table, schema] : w.schema) {
      setup_ok = setup_ok && ok(monitor->CreateTable(table, schema),
                                "CreateTable " + table);
    }
    std::int64_t register_ns = 0;
    for (const auto& [name, text] : w.constraints) {
      ScopedSpan span("tl.register");
      const std::int64_t t0 = NowNs();
      setup_ok = setup_ok && ok(monitor->RegisterConstraint(name, text),
                                "RegisterConstraint " + name);
      register_ns += NowNs() - t0;
    }
    if (setup_ok && spec.durable) {
      ScopedSpan span("monitor.recover");
      setup_ok = ok(monitor->Recover().status(), "Recover");
    }
    for (std::size_t i = 0; setup_ok && i < spec.warmup; ++i) {
      ++result->attempted;
      Result<std::vector<Violation>> r = monitor->ApplyUpdate(w.batches[i]);
      if (!r.ok()) {
        ++result->failed;
        ok(r.status(), "warm-up batch " + std::to_string(i));
        setup_ok = false;
        break;
      }
      digests[i] = HashVerdict(*r);
    }
    if (!setup_ok) break;
    const double setup_s =
        static_cast<double>(NowNs() - setup_start) / 1e9;

    // ---- the timed closed loop.
    std::vector<rtic::ConstraintStats> before;
    if (traced) {
      before = monitor->Stats();
      timing.TakeCounters();
    }
    bool altered = false;
    const std::int64_t loop_start = NowNs();
    for (std::size_t i = spec.warmup; i < total; ++i) {
      Trace().set_batch(static_cast<std::int64_t>(i));
      ScopedSpan batch_span("batch");
      const std::int64_t t0 = NowNs();
      Result<std::vector<Violation>> r = [&] {
        ScopedSpan apply_span("monitor.apply");
        return monitor->ApplyUpdate(w.batches[i]);
      }();
      const std::int64_t t1 = NowNs();
      ++result->attempted;
      if (!r.ok()) {
        ++result->failed;
        ok(r.status(), "batch " + std::to_string(i));
        break;
      }
      rep_us[i - spec.warmup] = static_cast<double>(t1 - t0) / 1e3;
      rep_violated[i - spec.warmup] = !r->empty();
      if (config.alter_witness && !altered && !r->empty()) {
        AlterWitness(&*r);
        altered = true;
      }
      digests[i] = HashVerdict(*r);
    }
    const double loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
    if (!result->correct) break;
    const double updates_per_s = static_cast<double>(measured) / loop_s;
    if (rep == 0) out.mem_mb = RssMiB() - rss0;

    if (traced) {
      Trace().set_enabled(false);
      const std::vector<rtic::ConstraintStats> after = monitor->Stats();
      for (std::size_t k = 0; k < after.size() && k < before.size(); ++k) {
        out.counter_check_us += static_cast<double>(
            after[k].total_check_micros - before[k].total_check_micros);
      }
      out.aux_anchors = 0;
      out.aux_valuations = 0;
      for (const rtic::ConstraintStats& s : after) {
        out.aux_anchors += s.aux_anchors;
        out.aux_valuations += s.aux_valuations;
      }
      out.storage_rows = monitor->TotalStorageRows();
      out.fs.Add(timing.TakeCounters());
      out.last_spans = Trace().Take();
      AddMeasuredSpans(out.last_spans, &out.spans);
      out.register_ms.push_back(static_cast<double>(register_ns) / 1e6);
      out.traced_updates_per_s.push_back(updates_per_s);
      out.traced_batches += measured;
    } else {
      out.setup_s.push_back(setup_s);
      out.updates_per_s.push_back(updates_per_s);
      out.latencies.AddRep(rep_us, rep_violated);
    }
    monitor.reset();
    std::filesystem::remove_all(dir);

    if (rep == 0) {
      out.transcript = digests;
    } else if (std::int64_t at = FirstMismatch(digests, out.transcript);
               at >= 0) {
      result->Fail("repetition " + std::to_string(rep) +
                   " differs from the first at batch " + std::to_string(at));
    }
  }
  Trace().set_enabled(false);
  result->Note("cpu rotation: repetitions pinned round-robin over " +
               std::to_string(rotation.cpus()) + " CPUs");
  return out;
}

void FillInProcessLayers(const InProcessOutcome& out,
                         const std::vector<ReplayedChild>& replayed,
                         LayerReport* layers) {
  const double n = static_cast<double>(std::max<std::size_t>(
      out.traced_batches, 1));
  auto span = [&](const char* name) {
    auto it = out.spans.find(name);
    return it == out.spans.end() ? SpanTotals() : it->second;
  };
  const std::string live = "live span";
  const double check_us = out.counter_check_us / n;
  // monitor.apply's self time already excludes its WAL spans; the check
  // counter and the replayed layers are its other children.
  double monitor_self = span("monitor.apply").self_us / n - check_us;
  for (const ReplayedChild& c : replayed) {
    layers->Set(c.name, c.reported, c.source);
    monitor_self -= c.per_batch_us;
  }
  layers->Set("trace.batch_us", span("batch").total_us / n, live);
  layers->Set("trace.unaccounted_us", span("batch").self_us / n,
              "batch span self time (the benchmark's loop)");
  layers->Set("monitor.apply_us", span("monitor.apply").total_us / n, live);
  layers->Set("monitor.self_us", monitor_self,
              "monitor.apply minus its timed children");
  layers->Set("engines.check_us", check_us,
              "program counter: ConstraintStats.total_check_micros (each "
              "check truncated to whole us)");
  SetWalLayers(out.spans, out.fs, n,
               static_cast<double>(std::max<std::size_t>(
                   out.traced_updates_per_s.size(), 1)),
               live, layers);
  layers->Set("tl.register_ms", Median(out.register_ms),
              "live span, all RegisterConstraint calls");
  layers->Set("engines.aux_anchors", static_cast<double>(out.aux_anchors),
              "program counter at run end");
  layers->Set("engines.aux_valuations",
              static_cast<double>(out.aux_valuations),
              "program counter at run end");
  layers->Set("engines.storage_rows", static_cast<double>(out.storage_rows),
              "program counter at run end");
  layers->Set("trace.overhead_pct",
              OverheadPct(out.updates_per_s, out.traced_updates_per_s),
              "untraced vs traced repetitions of this run");
}

}  // namespace perfbench
