// engine_stream: a seeded random contention DAG fed straight into the
// engine through transactions, wave by wave.
//
// Why: it loads the engine's solver, ready-drain, retire path and timeline
// memory with batched ingestion (paper_suite ingests per call), and it
// bypasses rt, paging, ingest, QoS and the figure report — so a change to
// those layers must leave these numbers alone.
//
// Roster: 4 NVLink-connected test GPUs, 128 streams (stream s on device
// s % 4). Each wave is one engine transaction followed by Engine::run_all;
// an episode is a fresh engine running kWaves waves. Episodes repeat until
// the time budget is spent; host figures are medians over episodes.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "gen.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "trace.hpp"

namespace psbench {

namespace {

constexpr int kDevices = 4;
constexpr int kStreams = 128;
/// One enqueue in this many is timed for the launch-latency percentiles
/// (two clock reads around every call would cost a tenth of the call).
constexpr int kLatencyStride = 16;

/// A waiter's completion check: it must not have started before the event
/// it waited on completed. Filled at enqueue, evaluated by the op's own
/// completion callback, so no retired-op history is ever read back.
struct WaiterCheck {
  const sim::Engine* eng = nullptr;
  sim::EventId event = sim::kInvalidEvent;
  sim::OpId op = sim::kInvalidOp;
  bool ok = true;
};

struct EpisodeResult {
  double setup_s = 0;
  double seconds = 0;  ///< first submit to fully drained
  long ops = 0;        ///< enqueues + event-wait markers
  double makespan_us = 0;
  Percentiles launch;  ///< sampled Engine::enqueue latency
  long solves = 0;
  long solved_ops = 0;
  long member_touches = 0;
  long full_scans = 0;
  long peak_resident = 0;
  double held_bytes = 0;  ///< heap still held by the engine at the end
};

sim::Op make_op(const DagItem& it) {
  sim::Op op;
  op.kind = it.kind;
  op.stream = it.stream;
  op.peer = it.peer;
  op.work = it.work;
  if (it.kind == sim::OpKind::Kernel) {
    op.sm_demand = it.sm_demand;
    op.occupancy = it.occupancy;
    op.bw_need = it.bw_need;
    op.name = "k";
  } else {
    op.bytes = it.work;
    op.name = it.kind == sim::OpKind::Fault ? "fault" : "cp";
  }
  return op;
}

EpisodeResult run_episode(const Args& args, const StreamDagConfig& cfg,
                          Tracer& tr, bool sample_latency, Result& out) {
  EpisodeResult r;
  const double heap0 = heap_bytes();
  const Clock::time_point s0 = Clock::now();
  const std::vector<std::vector<DagItem>> waves = make_stream_dag(
      args.seed, cfg);
  auto eng = std::make_unique<sim::Engine>(sim::Machine::uniform(
      sim::DeviceSpec::test_device(), kDevices, /*nvlink_all_pairs=*/true));
  for (int s = 1; s < kStreams; ++s) {
    eng->create_stream(static_cast<sim::DeviceId>(s % kDevices));
  }
  const Clock::time_point s1 = Clock::now();
  r.setup_s = seconds_between(s0, s1);

  std::vector<WaiterCheck> checks;
  std::vector<double> launch_us;
  int since_sample = 0;
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope episode(tr, Span::Episode);
    for (std::size_t w = 0; w < waves.size(); ++w) {
      const std::vector<DagItem>& wave = waves[w];
      long edges = 0;
      for (const DagItem& it : wave) edges += it.wait_on >= 0 ? 1 : 0;
      checks.assign(static_cast<std::size_t>(edges), WaiterCheck{});
      const long done_before = eng->tenant_completed_ops(sim::kDefaultTenant);
      long issued = 0;
      {
        Tracer::Scope span(tr, Span::EngineEnqueue);
        const sim::TimeUs t = eng->now();
        eng->begin_transaction(t);
        std::size_t next_check = 0;
        for (const DagItem& it : wave) {
          sim::Op op = make_op(it);
          WaiterCheck* check = nullptr;
          if (it.wait_on >= 0) {
            const sim::EventId ev = eng->create_event();
            eng->record_event(ev, it.wait_on, t);
            eng->wait_event(it.stream, ev, t);
            ++issued;  // the wait lowers to one marker op
            check = &checks[next_check++];
            check->eng = eng.get();
            check->event = ev;
            op.on_complete = [check] {
              const sim::Op self = check->eng->op(check->op);
              check->ok = self.start_time >=
                          check->eng->event_done_time(check->event);
            };
          }
          sim::OpId id = sim::kInvalidOp;
          if (sample_latency && ++since_sample == kLatencyStride) {
            since_sample = 0;
            const Clock::time_point a = Clock::now();
            id = eng->enqueue(std::move(op), t);
            const Clock::time_point b = Clock::now();
            launch_us.push_back(seconds_between(a, b) * 1e6);
          } else {
            id = eng->enqueue(std::move(op), t);
          }
          if (check != nullptr) check->op = id;
          ++issued;
        }
      }
      {
        Tracer::Scope span(tr, Span::EngineCommit);
        eng->commit_transaction();
      }
      {
        Tracer::Scope span(tr, Span::EngineDrain);
        eng->run_all();
      }
      // Per-wave gate: every issued op retired, every waiter started no
      // earlier than its event.
      const long expected = issued + (args.inject_fault && w == 0 ? 1 : 0);
      const long retired =
          eng->tenant_completed_ops(sim::kDefaultTenant) - done_before;
      if (retired != expected || !eng->all_idle()) {
        out.violation("engine_stream wave " + std::to_string(w) + ": " +
                      std::to_string(retired) + " of " +
                      std::to_string(expected) + " issued ops retired");
      }
      for (const WaiterCheck& c : checks) {
        if (!c.ok) {
          out.violation("engine_stream wave " + std::to_string(w) +
                        ": op " + std::to_string(c.op) +
                        " started before its event");
          break;
        }
      }
      r.ops += issued;
    }
  }
  const Clock::time_point t1 = Clock::now();
  r.seconds = seconds_between(t0, t1);
  r.launch = percentiles(launch_us);
  r.makespan_us = eng->now();
  r.solves = eng->solve_count();
  r.solved_ops = eng->solved_ops();
  r.member_touches = eng->member_touch_count();
  r.full_scans = eng->full_scan_count();
  r.peak_resident = eng->peak_resident_ops();
  checks.clear();
  checks.shrink_to_fit();
  r.held_bytes = heap_bytes() - heap0;
  out.attempted += r.ops;
  return r;
}

}  // namespace

void run_engine_stream(const Args& args, Result& out) {
  StreamDagConfig cfg;
  cfg.streams = kStreams;
  cfg.devices = kDevices;
  cfg.waves = args.smoke ? 2 : 10;
  cfg.wave_ops = args.smoke ? 2000 : 10000;

  Tracer untraced(false, 0, Clock::now());
  Tracer traced(true, 0, Clock::now());

  std::vector<EpisodeResult> untraced_eps;
  std::vector<EpisodeResult> traced_eps;
  const Clock::time_point start = Clock::now();
  // Episode 0 warms the allocator and caches and is discarded. The traced
  // run alternates traced and untraced episodes so the tracing overhead is
  // measured on the same host state.
  for (int e = 0;; ++e) {
    const bool trace_this = args.trace && e % 2 == 1;
    EpisodeResult r = run_episode(args, cfg, trace_this ? traced : untraced,
                                  !trace_this, out);
    if (e == 0 && !args.smoke) continue;
    (trace_this ? traced_eps : untraced_eps).push_back(std::move(r));
    const double elapsed = seconds_between(start, Clock::now());
    if (args.smoke) {
      if (!args.trace || !traced_eps.empty()) break;
      continue;
    }
    if (elapsed >= args.seconds && untraced_eps.size() >= 3 &&
        (!args.trace || traced_eps.size() >= 3)) {
      break;
    }
  }

  const EpisodeResult& last = untraced_eps.back();
  for (const EpisodeResult& r : untraced_eps) {
    if (r.makespan_us != last.makespan_us) {
      out.violation("engine_stream: virtual makespan differs between "
                    "episodes of one seed");
      break;
    }
  }
  const double ops = static_cast<double>(last.ops);
  const auto rate = [](const EpisodeResult& r) { return r.ops / r.seconds; };
  const double untraced_ops_per_s = fast_rate(each(untraced_eps, rate));

  Values v;
  v["setup_s"] = fast_time(
      each(untraced_eps, [](const EpisodeResult& r) { return r.setup_s; }));
  v["ops_per_s"] = untraced_ops_per_s;
  v["peak_rss_mb"] = peak_rss_mb();
  v["makespan_us"] = last.makespan_us;
  v["launch_p50_us"] = fast_time(each(untraced_eps, [](const EpisodeResult& r) {
    return r.launch.p50;
  }));
  v["launch_p99_us"] = fast_time(each(untraced_eps, [](const EpisodeResult& r) {
    return r.launch.p99;
  }));
  v["launch.samples"] = static_cast<double>(last.launch.n);
  v["failed_share"] = static_cast<double>(out.failed) /
                      static_cast<double>(std::max(1L, out.attempted));
  v["engine.solves_per_op"] = static_cast<double>(last.solves) / ops;
  v["engine.solved_ops_per_op"] = static_cast<double>(last.solved_ops) / ops;
  v["engine.member_touches_per_op"] =
      static_cast<double>(last.member_touches) / ops;
  v["engine.full_scans"] = static_cast<double>(last.full_scans);
  v["engine.peak_resident_ops"] = static_cast<double>(last.peak_resident);
  v["engine.rss_bytes_per_op"] =
      median(each(untraced_eps, [](const EpisodeResult& r) {
        return r.held_bytes / static_cast<double>(r.ops);
      }));

  std::fprintf(stderr,
               "engine_stream seed %llu: %zu episodes of %ld ops, fast-decile "
               "%.0f ops/s, makespan %.1f us, launch p50 %.3f us p99 %.3f us "
               "(%ld samples/episode), peak RSS %.1f MB\n",
               static_cast<unsigned long long>(args.seed),
               untraced_eps.size(), last.ops, untraced_ops_per_s,
               last.makespan_us, v["launch_p50_us"], v["launch_p99_us"],
               last.launch.n, v["peak_rss_mb"]);

  if (args.trace) {
    TraceTotals totals;
    totals.add(traced);
    const auto n = static_cast<double>(traced_eps.size());
    const double traced_ops_per_s = fast_rate(each(traced_eps, rate));
    v["engine.enqueue_s"] = totals.self(Span::EngineEnqueue) / n;
    v["engine.commit_s"] = totals.self(Span::EngineCommit) / n;
    v["engine.drain_s"] = totals.self(Span::EngineDrain) / n;
    v["bench.loop_s"] = totals.self(Span::Episode) / n;
    v["trace.ops_per_s"] = traced_ops_per_s;
    v["trace.overhead_ops_per_s"] = untraced_ops_per_s - traced_ops_per_s;
    write_trace(args.trace_dir,
                "engine_stream-seed" + std::to_string(args.seed), {&traced},
                totals, static_cast<long>(traced_eps.size()),
                traced_ops_per_s, untraced_ops_per_s);
  }
  emit(args, v, out);
}

}  // namespace psbench
