// paper_suite: the paper's six benchmarks (VEC, B&S, IMG, ML, HITS, DL),
// timing-only on the GTX 1660 Super model.
//
// Why: it is the paper's own workload — a closed loop of per-call
// submissions through rt::Context — so it loads rt (dependency inference,
// stream manager, DAG recorder, NIDL), per-call GpuRuntime, TaskGraph
// replay and the timeline/profiler report. Engine work and memory pressure
// are small; ingest and QoS are not used.
//
// One round runs each benchmark, at its seeded scale and block size, under
// the parallel and serial policies and as CUDA-Graphs-manual, each
// replaying the program 30 times in a fresh runtime. The figure report
// (overlap, HW metrics, critical path) is timed in the traced run on a
// bounded 25-iteration run. A functional checksum gate at test scale runs
// before the timed rounds.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "bench_suite/runner.hpp"
#include "common.hpp"
#include "gen.hpp"
#include "kernels/registry.hpp"
#include "runtime/execution_context.hpp"
#include "sim/graph.hpp"
#include "sim/profiler.hpp"
#include "trace.hpp"

namespace psbench {

namespace {

using benchsuite::Program;
using benchsuite::Step;
using benchsuite::Variant;

constexpr Variant kVariants[] = {Variant::GrcudaParallel,
                                 Variant::GrcudaSerial,
                                 Variant::GraphsManual};

/// The sim-level launch of a kernel step: cost profile from the registry,
/// array uses from the NIDL signature (what the graph API is handed).
/// bench_suite/runner.cpp lowers steps the same way but privately, and its
/// executors cannot be timed call by call, so this file drives the
/// programs itself.
sim::LaunchSpec launch_spec(const Step& step) {
  const rt::KernelDef& def = psched::kernels::registry().get(step.kernel);
  const auto params = rt::parse_nidl(step.signature);
  sim::LaunchSpec spec;
  spec.name = step.label;
  spec.config = step.config;
  spec.profile = def.cost_fn(step.config, rt::ArgsView(&step.values, false));
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i].is_pointer()) continue;
    const sim::ArrayId id = step.values[i].as_array().state()->sim_id;
    const bool write = !params[i].read_only;
    bool found = false;
    for (auto& use : spec.arrays) {
      if (use.id == id) {
        use.write |= write;
        found = true;
      }
    }
    if (!found) spec.arrays.push_back({id, write});
  }
  return spec;
}

/// Manual dependency declaration from data flow (the hand-written CUDA
/// Graphs program of Fig. 8).
sim::TaskGraph build_graph(const Program& prog) {
  sim::TaskGraph graph;
  std::map<sim::ArrayId, sim::TaskGraph::NodeId> writer;
  std::map<sim::ArrayId, std::vector<sim::TaskGraph::NodeId>> readers;
  for (const Step& s : prog.iteration) {
    if (s.kind != Step::Kind::Kernel) continue;
    const sim::LaunchSpec spec = launch_spec(s);
    const auto node = graph.add_kernel(spec);
    for (const auto& use : spec.arrays) {
      auto& rs = readers[use.id];
      const auto w = writer.find(use.id);
      if (use.write) {
        if (!rs.empty()) {
          for (const auto dep : rs) graph.add_dependency(dep, node);
        } else if (w != writer.end()) {
          graph.add_dependency(w->second, node);
        }
        writer[use.id] = node;
        rs.clear();
      } else {
        if (w != writer.end()) graph.add_dependency(w->second, node);
        rs.push_back(node);
      }
    }
  }
  return graph;
}

/// One benchmark x variant execution: runtime, context, program, resolved
/// kernels (rt variants) or instantiated graph — everything built before
/// the timed region.
struct Rig {
  std::unique_ptr<sim::GpuRuntime> gpu;
  std::unique_ptr<rt::Context> ctx;
  Program prog;
  std::vector<std::optional<rt::Kernel>> kernels;  ///< per iteration step
  std::optional<sim::TaskGraph::Exec> exec;
};

Rig make_rig(const benchsuite::Benchmark& bench, const PaperPick& pick,
             Variant variant, const sim::DeviceSpec& spec) {
  Rig rig;
  rig.gpu = std::make_unique<sim::GpuRuntime>(spec);
  rt::Options opts = psched::kernels::default_options();
  opts.functional = false;
  opts.policy = variant == Variant::GrcudaSerial
                    ? rt::SchedulePolicy::Serial
                    : rt::SchedulePolicy::Parallel;
  rig.ctx = std::make_unique<rt::Context>(*rig.gpu, opts);
  benchsuite::RunConfig cfg;
  cfg.scale = pick.scale;
  cfg.block_size = pick.block_size;
  rig.prog = bench.build(*rig.ctx, cfg);
  if (variant == Variant::GraphsManual) {
    rig.exec.emplace(build_graph(rig.prog).instantiate(*rig.gpu));
  } else {
    // Resolve each (kernel, signature) pair once, as a host program would.
    std::map<std::pair<std::string, std::string>, rt::Kernel> cache;
    for (const Step& s : rig.prog.iteration) {
      if (s.kind != Step::Kind::Kernel) {
        rig.kernels.emplace_back();
        continue;
      }
      const auto key = std::make_pair(s.kernel, s.signature);
      auto it = cache.find(key);
      if (it == cache.end()) {
        it = cache.emplace(key, rig.ctx->build_kernel(s.kernel, s.signature))
                 .first;
      }
      rig.kernels.emplace_back(it->second);
    }
  }
  return rig;
}

struct ExecResult {
  double seconds = 0;  ///< first submit to fully drained
  long ops = 0;
  long submissions = 0;
  double makespan_us = 0;
};

ExecResult execute(Rig& rig, Variant variant, int iterations, Tracer& tr,
                   std::vector<double>* launch_us) {
  ExecResult r;
  const Clock::time_point t0 = Clock::now();
  for (const Step& s : rig.prog.setup) {
    rt::DeviceArray a = s.array;
    Tracer::Scope span(tr, Span::RtHostAccess);
    a.touch_write();
  }
  r.submissions += static_cast<long>(rig.prog.setup.size());
  const auto host_access = [&](const Step& s) {
    rt::DeviceArray a = s.array;
    Tracer::Scope span(tr, Span::RtHostAccess);
    if (s.kind == Step::Kind::HostWrite) {
      a.touch_write();
    } else {
      a.touch_read();
    }
  };
  if (variant == Variant::GraphsManual) {
    for (int it = 0; it < iterations; ++it) {
      for (const Step& s : rig.prog.iteration) {
        if (s.kind == Step::Kind::HostWrite) host_access(s);
      }
      {
        Tracer::Scope span(tr, Span::GraphLaunch);
        rig.exec->launch(*rig.gpu);
      }
      {
        Tracer::Scope span(tr, Span::GpuSync);
        rig.gpu->synchronize_device();
      }
      for (const Step& s : rig.prog.iteration) {
        if (s.kind == Step::Kind::HostRead) host_access(s);
      }
      r.submissions += static_cast<long>(rig.prog.iteration.size());
    }
    Tracer::Scope span(tr, Span::GpuSync);
    rig.gpu->synchronize_device();
  } else {
    for (int it = 0; it < iterations; ++it) {
      for (std::size_t i = 0; i < rig.prog.iteration.size(); ++i) {
        const Step& s = rig.prog.iteration[i];
        if (s.kind != Step::Kind::Kernel) {
          host_access(s);
          continue;
        }
        const rt::ConfiguredKernel k = rig.kernels[i]->configure(s.config);
        std::vector<rt::Value> values = s.values;
        Tracer::Scope span(tr, Span::RtLaunch);
        if (launch_us != nullptr) {
          const Clock::time_point a = Clock::now();
          k.launch(std::move(values));
          launch_us->push_back(seconds_between(a, Clock::now()) * 1e6);
        } else {
          k.launch(std::move(values));
        }
      }
      r.submissions += static_cast<long>(rig.prog.iteration.size());
    }
    Tracer::Scope span(tr, Span::RtSync);
    rig.ctx->synchronize();
  }
  r.seconds = seconds_between(t0, Clock::now());
  r.ops = rig.gpu->engine().tenant_completed_ops(sim::kDefaultTenant) +
          rig.ctx->stats().host_accesses;
  r.makespan_us = rig.gpu->timeline().makespan();
  return r;
}

struct Round {
  double setup_s = 0;
  double seconds = 0;
  long ops = 0;
  Percentiles launch;  ///< rt launch latency, parallel policy
  /// Virtual makespan per (pick, variant), in pick-major order.
  std::vector<double> makespans;
  rt::ContextStats parallel_stats;  ///< summed over the six parallel runs
};

void add_stats(rt::ContextStats& a, const rt::ContextStats& b) {
  a.computations += b.computations;
  a.edges += b.edges;
  a.event_waits += b.event_waits;
  a.prefetches += b.prefetches;
  a.streams_created += b.streams_created;
}

Round run_round(const std::vector<PaperPick>& picks,
                const std::vector<std::unique_ptr<benchsuite::Benchmark>>&
                    benches,
                const sim::DeviceSpec& spec, int iterations, Tracer& tr,
                Result& out) {
  Round round;
  std::vector<double> launch_us;
  Tracer::Scope episode(tr, Span::Episode);
  for (std::size_t p = 0; p < picks.size(); ++p) {
    for (const Variant v : kVariants) {
      const Clock::time_point s0 = Clock::now();
      Rig rig = [&] {
        Tracer::Scope span(tr, Span::Setup);
        return make_rig(*benches[p], picks[p], v, spec);
      }();
      round.setup_s += seconds_between(s0, Clock::now());
      const bool parallel = v == Variant::GrcudaParallel;
      try {
        const ExecResult r = execute(
            rig, v, iterations, tr,
            parallel && !tr.on() ? &launch_us : nullptr);
        round.seconds += r.seconds;
        round.ops += r.ops;
        out.attempted += r.submissions;
        round.makespans.push_back(r.makespan_us);
      } catch (const psched::sim::Error& e) {
        ++out.attempted;
        ++out.failed;
        out.violation(benches[p]->name() + " " + benchsuite::to_string(v) +
                      ": " + e.what());
        round.makespans.push_back(0);
      }
      if (parallel) add_stats(round.parallel_stats, rig.ctx->stats());
    }
  }
  round.launch = percentiles(launch_us);
  return round;
}

/// Functional checksums at test scale must agree across the parallel,
/// serial and CUDA-Graphs executions of every benchmark.
void checksum_gate(const Args& args, const sim::DeviceSpec& spec,
                   Result& out) {
  for (const benchsuite::BenchId id : benchsuite::all_benchmarks()) {
    const auto bench = benchsuite::make_benchmark(id);
    benchsuite::RunConfig cfg;
    cfg.scale = bench->test_scale();
    cfg.functional = true;
    std::vector<double> sums;
    for (const Variant v : kVariants) {
      sums.push_back(benchsuite::run_benchmark(*bench, v, spec, cfg).checksum);
    }
    if (args.inject_fault && id == benchsuite::BenchId::VEC) sums[1] += 1.0;
    for (const double s : sums) {
      const double tol = 1e-9 * std::max(1.0, std::fabs(sums[0]));
      if (!(std::fabs(s - sums[0]) <= tol)) {
        out.violation(bench->name() + ": functional checksums differ across "
                      "parallel / serial / graphs (" +
                      std::to_string(sums[0]) + " vs " + std::to_string(s) +
                      ")");
        break;
      }
    }
  }
}

}  // namespace

void run_paper_suite(const Args& args, Result& out) {
  const sim::DeviceSpec spec = sim::DeviceSpec::gtx1660super();
  const int iterations = args.smoke ? 2 : 30;
  const int report_iterations = args.smoke ? 2 : 25;
  constexpr int kReportReps = 3;

  checksum_gate(args, spec, out);

  const std::vector<PaperPick> picks = paper_picks(args.seed, spec);
  std::vector<std::unique_ptr<benchsuite::Benchmark>> benches;
  for (const PaperPick& p : picks) {
    benches.push_back(benchsuite::make_benchmark(p.id));
  }

  Tracer untraced(false, 0, Clock::now());
  Tracer traced(true, 0, Clock::now());
  std::vector<Round> rounds;
  std::vector<Round> traced_rounds;
  const Clock::time_point start = Clock::now();
  // Round 0 warms caches and the allocator and is discarded; the traced
  // run alternates traced and untraced rounds.
  for (int e = 0;; ++e) {
    const bool trace_this = args.trace && e % 2 == 1;
    Round r = run_round(picks, benches, spec, iterations,
                        trace_this ? traced : untraced, out);
    if (e == 0 && !args.smoke) continue;
    (trace_this ? traced_rounds : rounds).push_back(std::move(r));
    if (args.smoke) {
      if (!args.trace || !traced_rounds.empty()) break;
      continue;
    }
    if (seconds_between(start, Clock::now()) >= args.seconds &&
        rounds.size() >= 3 && (!args.trace || traced_rounds.size() >= 3)) {
      break;
    }
  }

  const Round& first = rounds.front();
  for (const Round& r : rounds) {
    if (r.makespans != first.makespans) {
      out.violation("paper_suite: virtual makespans differ between rounds "
                    "of one seed");
      break;
    }
  }
  double makespan_sum = 0;
  std::vector<double> vs_serial;
  std::vector<double> vs_graphs;
  for (std::size_t p = 0; p < picks.size(); ++p) {
    const double par = first.makespans[p * 3];
    makespan_sum += par;
    if (par > 0) {
      vs_serial.push_back(first.makespans[p * 3 + 1] / par);
      vs_graphs.push_back(first.makespans[p * 3 + 2] / par);
    }
  }

  const auto rate = [](const Round& r) { return r.ops / r.seconds; };
  const double ops_per_s = fast_rate(each(rounds, rate));

  Values v;
  v["setup_s"] =
      fast_time(each(rounds, [](const Round& r) { return r.setup_s; }));
  v["ops_per_s"] = ops_per_s;
  v["makespan_us"] = makespan_sum;
  v["launch_p50_us"] = fast_time(
      each(rounds, [](const Round& r) { return r.launch.p50; }));
  v["launch_p99_us"] = fast_time(
      each(rounds, [](const Round& r) { return r.launch.p99; }));
  v["launch.samples"] = static_cast<double>(first.launch.n);
  v["speedup_vs_serial"] = geomean(vs_serial);
  v["speedup_vs_graphs"] = geomean(vs_graphs);
  v["failed_share"] = out.attempted > 0
                          ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 0.0;
  const rt::ContextStats& st = first.parallel_stats;
  v["rt.edges_per_computation"] =
      st.computations > 0 ? static_cast<double>(st.edges) /
                                static_cast<double>(st.computations)
                          : 0.0;
  v["rt.event_waits"] = static_cast<double>(st.event_waits);
  v["rt.prefetches"] = static_cast<double>(st.prefetches);
  v["rt.streams_created"] = static_cast<double>(st.streams_created);

  if (args.trace) {
    // The figure report on a bounded run: overlap metrics, HW metrics and
    // the critical-path bound of each benchmark's parallel execution.
    std::vector<Rig> rigs;
    double entries = 0;
    for (std::size_t p = 0; p < picks.size(); ++p) {
      rigs.push_back(
          make_rig(*benches[p], picks[p], Variant::GrcudaParallel, spec));
      execute(rigs.back(), Variant::GrcudaParallel, report_iterations,
              untraced, nullptr);
      entries += static_cast<double>(
          rigs.back().gpu->timeline().entries().size());
    }
    std::vector<double> report_s;
    double checksum = 0;  // keeps the report's results observably used
    for (int rep = 0; rep < kReportReps; ++rep) {
      const Clock::time_point r0 = Clock::now();
      for (Rig& rig : rigs) {
        const sim::Timeline& tl = rig.gpu->timeline();
        {
          Tracer::Scope span(traced, Span::TimelineOverlap);
          checksum += tl.overlap_metrics().tot;
        }
        {
          Tracer::Scope span(traced, Span::ProfilerHw);
          checksum += sim::Profiler::compute(tl, spec).ipc;
        }
        {
          Tracer::Scope span(traced, Span::RtCriticalPath);
          checksum +=
              rig.ctx->dag().critical_path_us(spec.pcie_bytes_per_us());
        }
      }
      report_s.push_back(seconds_between(r0, Clock::now()));
    }
    if (!std::isfinite(checksum)) out.violation("paper_suite: report is NaN");

    TraceTotals totals;
    totals.add(traced);
    const auto n = static_cast<double>(traced_rounds.size());
    const double traced_ops_per_s = fast_rate(each(traced_rounds, rate));
    v["report_s"] = fast_time(report_s);
    v["timeline.entries"] = entries;
    v["timeline.overlap_s"] = totals.self(Span::TimelineOverlap) / kReportReps;
    v["profiler.hw_s"] = totals.self(Span::ProfilerHw) / kReportReps;
    v["rt.critical_path_s"] = totals.self(Span::RtCriticalPath) / kReportReps;
    v["rt.launch_s"] = totals.self(Span::RtLaunch) / n;
    v["rt.host_access_s"] = totals.self(Span::RtHostAccess) / n;
    v["rt.sync_s"] = totals.self(Span::RtSync) / n;
    v["gpu.graph_launch_s"] = totals.self(Span::GraphLaunch) / n;
    v["gpu.sync_s"] = totals.self(Span::GpuSync) / n;
    v["bench.loop_s"] = totals.self(Span::Episode) / n;
    v["trace.ops_per_s"] = traced_ops_per_s;
    v["trace.overhead_ops_per_s"] = ops_per_s - traced_ops_per_s;
    write_trace(args.trace_dir,
                "paper_suite-seed" + std::to_string(args.seed), {&traced},
                totals, static_cast<long>(traced_rounds.size()),
                traced_ops_per_s, ops_per_s);
  }
  v["peak_rss_mb"] = peak_rss_mb();

  std::fprintf(stderr,
               "paper_suite seed %llu: %zu rounds, fast-decile %.0f ops/s "
               "(%ld ops/round), makespan %.1f us, speedup vs serial %.3fx "
               "(paper 1.44x), vs graphs %.3fx (paper >= 1.0x), launch p50 "
               "%.3f us p99 %.3f us (%ld samples/round)\n",
               static_cast<unsigned long long>(args.seed), rounds.size(),
               ops_per_s, first.ops, makespan_sum, v["speedup_vs_serial"],
               v["speedup_vs_graphs"], v["launch_p50_us"], v["launch_p99_us"],
               first.launch.n);
  for (const PaperPick& p : picks) {
    std::fprintf(stderr, "  %-5s scale %ld block %d\n",
                 benchsuite::name(p.id), p.scale, p.block_size);
  }
  emit(args, v, out);
}

}  // namespace psbench
