// tenant_mix: four tenants share one memory-capped test GPU.
//
// Why: it loads ingest, QoS, the tenant water-fill and the residency
// planner, and it uses the engine differently again — one saturated kernel
// class plus DMA paging — where paper_suite and engine_stream never page.
//
//   * lc: a latency-critical tenant (p99 target 3 us). The main thread sends
//     it an open-loop request every 50 us of virtual time (seeded jitter)
//     and drives QosManager::tick.
//   * batch0, batch1: two producer threads post recorded rounds (a seeded
//     number of full-device kernels) for them through a one-shard
//     IngestService. Rounds are paced by virtual time — one per tenant
//     every 200 us — so the kernel class stays saturated for the whole
//     window instead of receiving its whole backlog at the start.
//   * pager: a working set of 1.5x device memory, one launch every 400 us
//     cycling through its arrays, with the launch order announced to the
//     residency planner ahead of time.
// Main thread + 2 producers + the ingest thread = 4 threads.
//
// One episode is a fresh runtime running the whole window; episodes
// repeat until the time budget is spent. Request latency is measured in
// virtual time from each request's due time to its completion, exactly,
// from completion callbacks (no timeline read-back).
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "common.hpp"
#include "gen.hpp"
#include "sim/ingest_queue.hpp"
#include "sim/qos.hpp"
#include "sim/tenant.hpp"
#include "trace.hpp"

namespace psbench {

namespace {

constexpr double kPeriodUs = 50.0;     ///< lc request period
constexpr double kJitterUs = 10.0;     ///< +- jitter of each due time
constexpr int kRequestsPerRound = 4;   ///< batch round every 200 us
constexpr int kRequestsPerPager = 8;   ///< pager launch every 400 us
constexpr int kKernelsLo = 17;         ///< batch round size range: with
constexpr int kKernelsHi = 23;         ///< lc + pager, ~1.05x capacity
constexpr int kPagerArrays = 12;       ///< 12 x cap/8 = 1.5x device memory
constexpr int kAnnounceChunk = 16;     ///< pager launches per announcement
constexpr double kTargetP99Us = 3.0;

/// A full-device kernel (8 x 512 threads fill the 4-SM test device).
sim::LaunchSpec device_kernel(const char* name, double flops) {
  sim::LaunchSpec k;
  k.name = name;
  k.config = sim::LaunchConfig::linear(8, 512);
  k.profile.flops_sp = flops;  // 512 GFLOPS: 2.56e6 flops = 5 us solo
  return k;
}

struct Rig {
  std::unique_ptr<sim::GpuRuntime> rt;
  std::unique_ptr<sim::TenantManager> mgr;
  std::unique_ptr<sim::IngestService> svc;
  std::unique_ptr<sim::QosManager> qos;
  sim::Tenant* lc = nullptr;
  sim::Tenant* pager = nullptr;
  std::vector<sim::Tenant*> batch;
  sim::StreamId lc_stream = sim::kInvalidStream;
  sim::StreamId pager_stream = sim::kInvalidStream;
  std::vector<sim::ArrayId> pager_arrays;
  /// Recorded round per batch tenant and round size:
  /// subs[t][k - kKernelsLo], with its op count.
  std::vector<std::vector<sim::Submission>> subs;
  std::vector<std::vector<long>> sub_ops;
};

Rig make_rig(bool smoke) {
  const std::size_t cap = smoke ? (4ull << 20) : (16ull << 20);
  sim::DeviceSpec spec = sim::DeviceSpec::test_device();
  spec.memory_bytes = cap;
  Rig rig;
  rig.rt = std::make_unique<sim::GpuRuntime>(sim::Machine::single(spec),
                                             cap / 64);
  rig.mgr = std::make_unique<sim::TenantManager>(*rig.rt);

  sim::TenantSpec lc;
  lc.name = "lc";
  lc.service_class = sim::ServiceClass::LatencyCritical;
  lc.target_p99_us = kTargetP99Us;
  rig.lc = &rig.mgr->create_tenant(lc);
  rig.lc_stream = rig.lc->create_stream();
  for (int t = 0; t < 2; ++t) {
    rig.batch.push_back(
        &rig.mgr->create_tenant({.name = "batch" + std::to_string(t)}));
  }
  rig.pager = &rig.mgr->create_tenant({.name = "pager"});
  rig.pager_stream = rig.pager->create_stream();
  for (int a = 0; a < kPagerArrays; ++a) {
    const sim::ArrayId id =
        rig.pager->alloc(cap / 8, "pager" + std::to_string(a));
    rig.pager->host_write(id);
    rig.pager_arrays.push_back(id);
  }

  // Record every round size once per batch tenant (executing it once).
  const sim::LaunchSpec k = device_kernel("batch", 2.56e6);
  rig.subs.resize(rig.batch.size());
  rig.sub_ops.resize(rig.batch.size());
  for (std::size_t t = 0; t < rig.batch.size(); ++t) {
    sim::Tenant& ten = *rig.batch[t];
    const sim::StreamId s[2] = {ten.create_stream(), ten.create_stream()};
    rig.subs[t].resize(kKernelsHi - kKernelsLo + 1);
    for (int n = kKernelsLo; n <= kKernelsHi; ++n) {
      sim::Submission& sub =
          rig.subs[t][static_cast<std::size_t>(n - kKernelsLo)];
      sim::GpuRuntime& g = ten.gpu();
      g.begin_record(sub);
      for (int i = 0; i < n; ++i) ten.launch(s[i % 2], k);
      rig.sub_ops[t].push_back(static_cast<long>(g.end_record()));
    }
    ten.synchronize();
  }
  rig.pager->synchronize();
  rig.lc->synchronize();

  rig.svc = std::make_unique<sim::IngestService>(
      *rig.rt, sim::IngestService::Config{.shards = 1, .max_batch = 256});
  rig.mgr->attach_ingest(*rig.svc);
  rig.qos = std::make_unique<sim::QosManager>(*rig.mgr);
  // Generous bounds: admission control is armed but this workload stays
  // inside it (a refusal would count into failed_share).
  rig.qos->set_limits(rig.lc->id(), {.max_queue_depth = 64, .max_lag_us = -1});
  return rig;
}

struct EpisodeResult {
  double setup_s = 0;
  double seconds = 0;  ///< first submit to fully drained
  long ops = 0;
  double makespan_us = 0;
  Percentiles launch;      ///< main-thread Tenant::launch latency
  Percentiles lc_latency;  ///< post-warm-up requests, due to completion
  double issue_lag_us = 0;            ///< mean lateness of the generator
  double batch_work_per_ms = 0;
  double jain_batch = 0;
  sim::QosTenantStats lc_stats;
  sim::IngestStats ingest;
  double bytes_evicted = 0;
  double fault_ops = 0;
  double prefetch_ops = 0;
  double wasted_prefetch_bytes = 0;
  double prefetch_overlap = 0;
};

/// Wait until `done(a)` holds: spin briefly first, since the other side
/// usually answers within microseconds, then sleep on the atomic. A sleep
/// and wake-up per hand-off would add tens of microseconds of OS latency
/// to every round, noise that has nothing to do with the program.
template <typename Done>
void await(const std::atomic<int>& a, Done done) {
  for (int spin = 0;; ++spin) {
    const int v = a.load();
    if (done(v)) return;
    if (spin < (1 << 16)) {
      std::this_thread::yield();
    } else {
      a.wait(v);
    }
  }
}

/// Current virtual host time, read under the engine gate (the ingest
/// thread advances the same clock while it drains).
double vnow(sim::GpuRuntime& rt) {
  const auto gate = rt.api_guard();
  return rt.now();
}

EpisodeResult run_episode(const Args& args, Tracer& tr,
                          std::vector<std::unique_ptr<Tracer>>& prod_tr,
                          bool sample_latency, Result& out) {
  EpisodeResult r;
  std::vector<double> launch_us;
  std::vector<double> lc_latency_us;
  const int requests = args.smoke ? 200 : 2000;
  const int warmup = requests / 4;
  const int rounds = requests / kRequestsPerRound;
  const int pager_launches = requests / kRequestsPerPager;

  const Clock::time_point s0 = Clock::now();
  const TenantMixInputs in = make_tenant_mix_inputs(
      args.seed, requests, kPeriodUs, kJitterUs, 2, rounds, kKernelsLo,
      kKernelsHi);
  Rig rig = make_rig(args.smoke);
  sim::GpuRuntime& rt = *rig.rt;
  r.setup_s = seconds_between(s0, Clock::now());

  std::vector<long> ops0;
  const auto ops_completed = [&rig](std::size_t t) {
    return rig.mgr->tenant(static_cast<sim::TenantId>(t)).ops_completed();
  };
  for (std::size_t t = 0; t < rig.mgr->num_tenants(); ++t) {
    ops0.push_back(ops_completed(t));
  }
  long expected_batch_ops[2] = {0, 0};
  for (int t = 0; t < 2; ++t) {
    for (int n : in.round_kernels[static_cast<std::size_t>(t)]) {
      expected_batch_ops[t] +=
          rig.sub_ops[static_cast<std::size_t>(t)]
                     [static_cast<std::size_t>(n - kKernelsLo)];
    }
  }
  const double vt0 = vnow(rt);

  // Completion callbacks run inside engine stepping, under the gate.
  std::vector<double> lc_done(static_cast<std::size_t>(requests), -1.0);
  long pager_done = 0;
  sim::LaunchSpec request = device_kernel("request", 1.024e6);  // 2 us solo
  sim::LaunchSpec pager_kernel = device_kernel("pager", 2.56e6);
  const sim::Engine& eng = rt.engine();

  // Producers: each waits for its next round to fall due in virtual time,
  // then posts it. The joiner stops and joins them on every exit path.
  std::atomic<int> round_due{0};
  std::atomic<int> posted{0};
  std::atomic<bool> producer_failed{false};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> producers;
  struct Joiner {
    std::atomic<int>& due;
    std::vector<std::thread>& threads;
    ~Joiner() {
      due.store(std::numeric_limits<int>::max());
      due.notify_all();
      for (std::thread& th : threads) {
        if (th.joinable()) th.join();
      }
    }
  } joiner{round_due, producers};
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      Tracer& ptr = *prod_tr[static_cast<std::size_t>(p)];
      sim::Tenant& ten = *rig.batch[static_cast<std::size_t>(p)];
      const auto& sizes = in.round_kernels[static_cast<std::size_t>(p)];
      try {
        for (int rd = 0; rd < rounds; ++rd) {
          await(round_due, [rd](int due) { return due > rd; });
          if (round_due.load() == std::numeric_limits<int>::max()) return;
          const sim::Submission& sub =
              rig.subs[static_cast<std::size_t>(p)][static_cast<std::size_t>(
                  sizes[static_cast<std::size_t>(rd)] - kKernelsLo)];
          {
            Tracer::Scope span(ptr, Span::IngestPost);
            ten.post_replay(sub);
          }
          posted.fetch_add(1);
          posted.notify_all();
        }
      } catch (...) {
        // Unblock the main thread; it reports the failure.
        producer_failed.store(true);
        posted.fetch_add(2 * rounds);
        posted.notify_all();
      }
    });
  }

  double batch_work_warm = 0;
  double vt_warm = 0;
  double lag_sum = 0;
  long lc_issued = 0;
  long pager_issued = 0;
  const auto batch_work = [&] {
    const auto gate = rt.api_guard();
    return rig.batch[0]->work_progress() + rig.batch[1]->work_progress();
  };
  const auto timed_launch = [&](sim::Tenant& ten, sim::StreamId s,
                                const sim::LaunchSpec& spec) {
    ++out.attempted;
    try {
      Tracer::Scope span(tr, Span::GpuLaunch);
      const Clock::time_point a = Clock::now();
      ten.launch(s, spec);
      if (sample_latency) {
        launch_us.push_back(seconds_between(a, Clock::now()) * 1e6);
      }
      return true;
    } catch (const psched::sim::AdmissionError&) {
      ++out.failed;
      return false;
    }
  };

  {
    Tracer::Scope episode(tr, Span::Episode);
    for (int k = 0; k < requests; ++k) {
      const double due = vt0 + in.request_due_us[static_cast<std::size_t>(k)];
      const double now = vnow(rt);
      if (due > now) {
        Tracer::Scope span(tr, Span::GpuAdvance);
        rt.host_advance(due - now);
      }
      if (k % kRequestsPerRound == 0) {
        // Release one round per producer and land both at this instant.
        const int rd = k / kRequestsPerRound + 1;
        round_due.store(rd);
        round_due.notify_all();
        await(posted, [rd](int got) { return got >= 2 * rd; });
        Tracer::Scope span(tr, Span::IngestFlush);
        rig.svc->flush_and_wait(rig.batch[0]->id());
      }
      if (k % kRequestsPerPager == 0) {
        const int j = k / kRequestsPerPager;
        if (j % kAnnounceChunk == 0) {
          std::vector<sim::FrontierEntry> frontier;
          for (int i = j; i < std::min(j + kAnnounceChunk, pager_launches);
               ++i) {
            frontier.push_back(
                {sim::kDefaultDevice,
                 {rig.pager_arrays[static_cast<std::size_t>(i % kPagerArrays)],
                  rig.pager_arrays[static_cast<std::size_t>(
                      (i + 1) % kPagerArrays)]}});
          }
          Tracer::Scope span(tr, Span::MemoryAnnounce);
          rt.announce_frontier(std::move(frontier));
        }
        pager_kernel.arrays = {
            {rig.pager_arrays[static_cast<std::size_t>(j % kPagerArrays)],
             false},
            {rig.pager_arrays[static_cast<std::size_t>((j + 1) %
                                                       kPagerArrays)],
             true}};
        pager_kernel.functional = [&pager_done] { ++pager_done; };
        if (timed_launch(*rig.pager, rig.pager_stream, pager_kernel)) {
          ++pager_issued;
        }
      }
      request.functional = [&lc_done, &eng, k] {
        lc_done[static_cast<std::size_t>(k)] = eng.now();
      };
      const double issue = vnow(rt);
      if (timed_launch(*rig.lc, rig.lc_stream, request)) {
        ++lc_issued;
        lag_sum += issue - due;
      }
      {
        Tracer::Scope span(tr, Span::QosTick);
        rig.qos->tick();
      }
      if (k + 1 == warmup) {
        batch_work_warm = batch_work();
        vt_warm = vnow(rt);
        const auto gate = rt.api_guard();
        rig.qos->reset_stats();
      }
    }
    const double vt_end = vnow(rt);
    r.batch_work_per_ms =
        (batch_work() - batch_work_warm) * 1e3 / (vt_end - vt_warm);
    {
      const auto gate = rt.api_guard();
      r.lc_stats = rig.lc->qos_stats();
      const double w[2] = {rig.batch[0]->work_progress(),
                           rig.batch[1]->work_progress()};
      r.jain_batch = sim::TenantManager::jain_index(w);
    }
    for (std::thread& th : producers) th.join();
    if (producer_failed.load()) out.violation("tenant_mix: a producer failed");
    {
      Tracer::Scope span(tr, Span::IngestFlush);
      rig.svc->flush_all_and_wait();
    }
    Tracer::Scope span(tr, Span::GpuSync);
    rt.synchronize_device();
  }
  r.seconds = seconds_between(t0, Clock::now());
  r.makespan_us = rt.now() - vt0;

  // Accounting gate: every tenant's completions add up to what was issued,
  // and every latency-critical request completed.
  const auto gate = rt.api_guard();
  long total_ops = 0;
  long per_tenant[4] = {0, 0, 0, 0};
  for (std::size_t t = 0; t < rig.mgr->num_tenants(); ++t) {
    per_tenant[t] = ops_completed(t) - ops0[t];
    total_ops += per_tenant[t];
  }
  r.ops = total_ops;
  const long lc_expected = lc_issued + (args.inject_fault ? 1 : 0);
  long lc_completed = 0;
  for (int k = 0; k < requests; ++k) {
    const double done = lc_done[static_cast<std::size_t>(k)];
    if (done < 0) continue;
    ++lc_completed;
    if (k >= warmup) {
      lc_latency_us.push_back(
          done - (vt0 + in.request_due_us[static_cast<std::size_t>(k)]));
    }
  }
  // lc and pager ops also carry the prefetch / page-out traffic the
  // runtime issues after their launches, so they must retire at least
  // their own launches; the batch tenants replay recorded rounds and must
  // retire exactly those. What is left over is runtime-initiated traffic,
  // which the runtime's own counters bound from below.
  const long lc_ops = per_tenant[rig.lc->id()];
  if (lc_completed != lc_expected || lc_ops < lc_expected) {
    out.violation("tenant_mix: " + std::to_string(lc_completed) + " of " +
                  std::to_string(lc_expected) +
                  " latency-critical requests completed (" +
                  std::to_string(lc_ops) + " lc ops retired)");
  }
  long issued = lc_issued + pager_issued;
  for (int t = 0; t < 2; ++t) {
    const long got = per_tenant[rig.batch[static_cast<std::size_t>(t)]->id()];
    issued += expected_batch_ops[t];
    if (got != expected_batch_ops[t]) {
      out.violation("tenant_mix: batch" + std::to_string(t) + " retired " +
                    std::to_string(got) + " of " +
                    std::to_string(expected_batch_ops[t]) + " ops");
    }
  }
  if (pager_done != pager_issued ||
      per_tenant[rig.pager->id()] < pager_issued) {
    out.violation("tenant_mix: pager completed " + std::to_string(pager_done) +
                  " of " + std::to_string(pager_issued) + " launches");
  }
  if (total_ops - issued < rt.prefetch_ops() + rt.evict_ops()) {
    out.violation("tenant_mix: " + std::to_string(total_ops - issued) +
                  " runtime-initiated ops retired, fewer than the runtime "
                  "issued");
  }
  out.attempted += 2L * rounds;  // the producers' posts

  r.launch = percentiles(launch_us);
  r.lc_latency = percentiles(lc_latency_us);
  r.issue_lag_us = lc_issued > 0 ? lag_sum / static_cast<double>(lc_issued) : 0;
  r.ingest = rig.svc->stats();
  r.bytes_evicted = static_cast<double>(rt.bytes_evicted());
  r.fault_ops = static_cast<double>(rt.fault_ops());
  r.prefetch_ops = static_cast<double>(rt.prefetch_ops());
  r.wasted_prefetch_bytes = static_cast<double>(rt.wasted_prefetch_bytes());
  if (args.trace) r.prefetch_overlap = rt.prefetch_overlap_fraction();
  out.failed += r.ingest.errors + r.ingest.rejected;
  return r;
}

}  // namespace

void run_tenant_mix(const Args& args, Result& out) {
  const Clock::time_point epoch = Clock::now();
  Tracer untraced(false, 0, epoch);
  Tracer traced(true, 0, epoch);
  std::vector<std::unique_ptr<Tracer>> prod_off;
  std::vector<std::unique_ptr<Tracer>> prod_on;
  for (int p = 0; p < 2; ++p) {
    prod_off.push_back(std::make_unique<Tracer>(false, p + 1, epoch));
    prod_on.push_back(std::make_unique<Tracer>(true, p + 1, epoch));
  }

  std::vector<EpisodeResult> eps;
  std::vector<EpisodeResult> traced_eps;
  const Clock::time_point start = Clock::now();
  for (int e = 0;; ++e) {
    const bool trace_this = args.trace && e % 2 == 1;
    EpisodeResult r = run_episode(args, trace_this ? traced : untraced,
                                  trace_this ? prod_on : prod_off,
                                  !trace_this, out);
    if (e == 0 && !args.smoke) continue;
    (trace_this ? traced_eps : eps).push_back(std::move(r));
    if (args.smoke) {
      if (!args.trace || !traced_eps.empty()) break;
      continue;
    }
    if (seconds_between(start, Clock::now()) >= args.seconds &&
        eps.size() >= 3 && (!args.trace || traced_eps.size() >= 3)) {
      break;
    }
  }

  const auto med = [](const std::vector<EpisodeResult>& rs, auto field) {
    return median(each(rs, field));
  };
  const EpisodeResult& last = eps.back();
  const auto rate = [](const EpisodeResult& r) { return r.ops / r.seconds; };
  const double ops_per_s = fast_rate(each(eps, rate));

  Values v;
  v["setup_s"] =
      fast_time(each(eps, [](const EpisodeResult& r) { return r.setup_s; }));
  v["ops_per_s"] = ops_per_s;
  v["peak_rss_mb"] = peak_rss_mb();
  v["makespan_us"] =
      med(eps, [](const EpisodeResult& r) { return r.makespan_us; });
  v["launch_p50_us"] = fast_time(each(
      eps, [](const EpisodeResult& r) { return r.launch.p50; }));
  v["launch_p99_us"] = fast_time(each(
      eps, [](const EpisodeResult& r) { return r.launch.p99; }));
  v["launch.samples"] = static_cast<double>(last.launch.n);
  v["lc_p50_us"] = med(eps, [](const EpisodeResult& r) {
    return r.lc_latency.p50;
  });
  v["lc_p99_us"] = med(eps, [](const EpisodeResult& r) {
    return r.lc_latency.p99;
  });
  v["batch_work_per_ms"] =
      med(eps, [](const EpisodeResult& r) { return r.batch_work_per_ms; });
  v["failed_share"] = out.attempted > 0
                          ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 0.0;
  v["memory.bytes_evicted"] = last.bytes_evicted;
  v["memory.fault_ops"] = last.fault_ops;
  v["memory.prefetch_ops"] = last.prefetch_ops;
  v["memory.wasted_prefetch_bytes"] = last.wasted_prefetch_bytes;
  v["ingest.batches"] = static_cast<double>(last.ingest.batches);
  v["ingest.ops_per_batch"] =
      last.ingest.batches > 0 ? static_cast<double>(last.ingest.ops) /
                                    static_cast<double>(last.ingest.batches)
                              : 0.0;
  v["ingest.clamped"] = static_cast<double>(last.ingest.clamped);
  v["ingest.errors"] = static_cast<double>(last.ingest.errors);
  v["ingest.rejected"] = static_cast<double>(last.ingest.rejected);
  v["ingest.deferred"] = static_cast<double>(last.ingest.deferred);
  v["qos.deadline_misses"] = static_cast<double>(last.lc_stats.deadline_misses);
  v["qos.final_weight"] = last.lc_stats.weight;
  v["qos.lag_us"] = last.lc_stats.lag_us;
  v["lc.issue_lag_us"] =
      med(eps, [](const EpisodeResult& r) { return r.issue_lag_us; });
  v["tenant.jain_batch"] = last.jain_batch;

  std::fprintf(stderr,
               "tenant_mix seed %llu: %zu episodes of %ld ops, fast-decile "
               "%.0f ops/s, makespan %.1f us, launch p50 %.3f us p99 %.3f "
               "us (%ld samples/episode), lc p50 %.3f us p99 %.3f us (%ld "
               "samples), batch work %.1f us/ms, evicted %.0f B, prefetch "
               "ops %.0f, ingest batches %ld\n",
               static_cast<unsigned long long>(args.seed), eps.size(),
               last.ops, ops_per_s, v["makespan_us"], v["launch_p50_us"],
               v["launch_p99_us"], last.launch.n, v["lc_p50_us"],
               v["lc_p99_us"], last.lc_latency.n,
               v["batch_work_per_ms"], last.bytes_evicted, last.prefetch_ops,
               last.ingest.batches);

  if (args.trace) {
    TraceTotals totals;
    totals.add(traced);
    for (const auto& p : prod_on) totals.add(*p);
    const auto n = static_cast<double>(traced_eps.size());
    const double traced_ops_per_s = fast_rate(each(traced_eps, rate));
    v["memory.prefetch_overlap_fraction"] = traced_eps.back().prefetch_overlap;
    v["gpu.launch_s"] = totals.self(Span::GpuLaunch) / n;
    v["gpu.advance_s"] = totals.self(Span::GpuAdvance) / n;
    v["gpu.sync_s"] = totals.self(Span::GpuSync) / n;
    v["memory.announce_s"] = totals.self(Span::MemoryAnnounce) / n;
    v["ingest.post_s"] = totals.self(Span::IngestPost) / n;
    v["ingest.flush_s"] = totals.self(Span::IngestFlush) / n;
    v["qos.tick_s"] = totals.self(Span::QosTick) / n;
    v["bench.loop_s"] = totals.self(Span::Episode) / n;
    v["trace.ops_per_s"] = traced_ops_per_s;
    v["trace.overhead_ops_per_s"] = ops_per_s - traced_ops_per_s;
    std::vector<const Tracer*> all = {&traced};
    for (const auto& p : prod_on) all.push_back(p.get());
    write_trace(args.trace_dir, "tenant_mix-seed" + std::to_string(args.seed),
                all, totals, static_cast<long>(traced_eps.size()),
                traced_ops_per_s, ops_per_s);
  }
  emit(args, v, out);
}

}  // namespace psbench
