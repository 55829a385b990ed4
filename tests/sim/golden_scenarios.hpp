// Golden-equivalence scenarios: the DAGs whose virtual timelines are pinned
// against recorded fixtures (tests/sim/golden/*.txt).
//
// Two fixture sets live there:
//   - run_all_scenarios(): generated by the seed scan-per-step engine (the
//     five paper benchmarks through the full runtime stack plus two
//     engine-level DAGs);
//   - run_solver_scenarios(): the matrix axes those do not reach
//     (multi-GPU link classes, weighted tenancy, batched ingest, seeded
//     join/leave churn, mid-flight re-weighting), generated by the
//     per-member fold solver that folded every member of a dirty class on
//     every re-solve.
// The engine must reproduce the same per-op completion times and Timeline
// contents on every scenario. Regenerate both sets with
//
//   sim_test_golden_equivalence --gtest_also_run_disabled_tests
//       --gtest_filter='*Regenerate*'
//
// but ONLY from a build whose engine is the intended source of truth.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/runner.hpp"
#include "sim/engine.hpp"
#include "sim/synthetic.hpp"
#include "sim_test_util.hpp"

namespace psched::sim::golden {

struct GoldenRun {
  std::vector<TimelineEntry> entries;
  TimeUs makespan = 0;
  long solves = 0;      ///< Engine::solve_count() after the run
  long solved_ops = 0;  ///< Engine::solved_ops() after the run
};

/// Drain `eng` and collect its timeline and solver counters.
inline GoldenRun run_to_completion(Engine& eng) {
  GoldenRun r;
  r.makespan = eng.run_all();
  r.entries = eng.timeline().entries();
  r.solves = eng.solve_count();
  r.solved_ops = eng.solved_ops();
  return r;
}

/// Engine-level contention DAG (Fig. 9 pressure at engine scale): the
/// shared generator from sim/synthetic.hpp — the same shape the
/// scheduler-overhead microbenchmark times at 10k ops / 32 streams.
inline GoldenRun run_contention_scenario() {
  Engine eng(DeviceSpec::test_device());
  build_contention_dag(eng, 1000, 16);
  return run_to_completion(eng);
}

/// Fig. 9 B&S-style transfer churn under long-running kernels: the
/// scenario where a full re-solve per running-set change is maximally
/// wasteful (every copy completion re-prices every kernel).
inline GoldenRun run_transfer_churn_scenario() {
  Engine eng(DeviceSpec::test_device());
  build_transfer_churn_dag(eng, 8, 400, 8);
  return run_to_completion(eng);
}

/// One paper benchmark DAG through the parallel GrCUDA scheduler at test
/// scale — the full runtime stack (dependency inference, stream manager,
/// prefetching) drives the engine.
inline GoldenRun run_benchmark_scenario(benchsuite::BenchId id) {
  const auto bench = benchsuite::make_benchmark(id);
  benchsuite::RunConfig cfg;
  cfg.scale = bench->test_scale();
  cfg.block_size = 128;
  benchsuite::RunOptions opts;
  opts.keep_timeline = true;
  const benchsuite::RunResult res = benchsuite::run_benchmark(
      *bench, benchsuite::Variant::GrcudaParallel,
      DeviceSpec::test_device(), cfg, opts);
  GoldenRun r;
  r.entries = res.timeline;
  r.makespan = res.gpu_time_us;
  r.solves = res.engine_solves;
  r.solved_ops = res.engine_solved_ops;
  return r;
}

inline std::vector<std::pair<std::string, GoldenRun>> run_all_scenarios() {
  std::vector<std::pair<std::string, GoldenRun>> all;
  all.emplace_back("contention_1k", run_contention_scenario());
  all.emplace_back("transfer_churn", run_transfer_churn_scenario());
  for (benchsuite::BenchId id : benchsuite::all_benchmarks()) {
    all.emplace_back(benchsuite::name(id), run_benchmark_scenario(id));
  }
  return all;
}

// ---------------------------------------------------------------------
// Solver scenarios: the axes the seed fixtures do not reach.
// ---------------------------------------------------------------------

/// Four NVLink GPUs: every per-device class set plus the peer-link
/// classes churn, with cross-device event edges.
inline GoldenRun run_multi_gpu_scenario() {
  Engine eng(Machine::uniform(DeviceSpec::test_device(), 4,
                              /*nvlink_all_pairs=*/true));
  build_multi_device_contention_dag(eng, 2000, 32);
  return run_to_completion(eng);
}

/// Three tenants with weights {1, 2, 3} churning a shared kernel class
/// (plus per-tenant copies), including a mid-flight re-weighting — the
/// water-fill budget-split arithmetic.
inline GoldenRun run_tenant_scenario() {
  Engine eng(DeviceSpec::test_device());
  std::vector<StreamId> streams;
  for (TenantId t = 1; t <= 3; ++t) {
    eng.set_tenant_weight(t, static_cast<double>(t));
    for (int s = 0; s < 2; ++s) {
      streams.push_back(eng.create_stream(kDefaultDevice, t));
    }
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (int k = 0; k < 20; ++k) {
      // Varied fills: some members cap at solo speed, so the bounded
      // water-fill's surplus redistribution engages.
      eng.enqueue(test::raw_kernel(streams[i], 4.0 + 0.5 * (k % 3),
                                   k % 2 == 0 ? 4.0 : 1.0,
                                   k % 2 == 0 ? 1.0 : 0.5),
                  0);
      if (k % 5 == 0) {
        eng.enqueue(test::raw_copy(streams[i], OpKind::CopyH2D, 1e5), 0);
      }
    }
  }
  eng.advance_to(100.0);
  eng.set_tenant_weight(2, 5.0);  // mid-flight re-pricing
  return run_to_completion(eng);
}

/// The contention DAG ingested as one engine transaction.
inline GoldenRun run_batched_ingest_scenario() {
  Engine eng(DeviceSpec::test_device());
  eng.begin_transaction(0);
  build_contention_dag(eng, 500, 16);
  eng.commit_transaction();
  return run_to_completion(eng);
}

/// Seeded random join/leave churn: kernels, transfers and faults across
/// four tenants on two devices, enqueues interleaved with host-clock
/// advances so ops join and leave classes at arbitrary points of other
/// members' lifetimes — where the virtual-service bookkeeping (lazy V
/// advance, finish-heap epochs, group joins/leaves) has to agree with
/// folding every member on every change.
inline GoldenRun run_churn_scenario(unsigned seed) {
  std::mt19937 rng(seed);
  Engine eng(Machine::uniform(DeviceSpec::test_device(), 2,
                              /*nvlink_all_pairs=*/true));
  std::vector<StreamId> streams;
  for (TenantId t = 1; t <= 4; ++t) {
    eng.set_tenant_weight(t, 1.0 + 0.5 * t);
    for (DeviceId d = 0; d < 2; ++d) {
      streams.push_back(eng.create_stream(d, t));
    }
  }

  std::uniform_int_distribution<std::size_t> pick(0, streams.size() - 1);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_real_distribution<double> work(1.0, 12.0);
  std::uniform_real_distribution<double> occ(0.25, 1.0);
  std::uniform_real_distribution<double> gap(0.0, 3.0);

  TimeUs t = 0;
  for (int i = 0; i < 400; ++i) {
    const StreamId s = streams[pick(rng)];
    switch (kind(rng)) {
      case 0:
      case 1:
        eng.enqueue(test::raw_copy(s, OpKind::CopyH2D, 1e4 * work(rng)), t);
        break;
      case 2:
        eng.enqueue(test::raw_copy(s, OpKind::CopyD2H, 1e4 * work(rng)), t);
        break;
      case 3:
        eng.enqueue(test::raw_copy(s, OpKind::Fault, 5e3 * work(rng)), t);
        break;
      default:
        // Mixed fills: some saturate the device, some cap at solo speed.
        eng.enqueue(
            test::raw_kernel(s, work(rng), kind(rng) < 7 ? 4.0 : 1.0,
                             occ(rng)),
            t);
        break;
    }
    // Advance between enqueues so joins hit classes mid-epoch; every few
    // steps stay put so transactions of same-instant joins occur too.
    if (i % 4 != 3) {
      t += gap(rng);
      eng.advance_to(t);
    }
  }
  return run_to_completion(eng);
}

/// Repeated mid-flight set_tenant_weight on a saturated kernel class.
inline GoldenRun run_weight_change_scenario() {
  Engine eng(DeviceSpec::test_device());
  std::vector<StreamId> streams;
  for (TenantId t = 1; t <= 3; ++t) {
    streams.push_back(eng.create_stream(kDefaultDevice, t));
  }
  for (const StreamId s : streams) {
    for (int k = 0; k < 8; ++k) {
      eng.enqueue(test::raw_kernel(s, 6.0, 4, 1.0), 0);
    }
  }
  eng.advance_to(15.0);
  eng.set_tenant_weight(1, 4.0);
  eng.advance_to(40.0);
  eng.set_tenant_weight(1, 1.0);
  eng.set_tenant_weight(3, 0.5);
  return run_to_completion(eng);
}

/// Seeds of the churn scenario with pinned fixtures.
inline constexpr unsigned kChurnSeeds[] = {1, 7, 1234};

inline std::string churn_fixture_name(unsigned seed) {
  return "churn seed " + std::to_string(seed);
}

inline std::vector<std::pair<std::string, GoldenRun>> run_solver_scenarios() {
  std::vector<std::pair<std::string, GoldenRun>> all;
  all.emplace_back("multi_gpu_contention", run_multi_gpu_scenario());
  all.emplace_back("tenant_weighted", run_tenant_scenario());
  all.emplace_back("batched_ingest", run_batched_ingest_scenario());
  for (const unsigned seed : kChurnSeeds) {
    all.emplace_back(churn_fixture_name(seed), run_churn_scenario(seed));
  }
  all.emplace_back("weight_change", run_weight_change_scenario());
  return all;
}

// ---------------------------------------------------------------------
// Fixture I/O
// ---------------------------------------------------------------------

struct Fixture {
  TimeUs makespan = 0;
  long seed_solves = 0;
  long seed_solved_ops = 0;
  std::vector<TimelineEntry> entries;
};

/// Scenario name usable as a file name and a gtest parameter name.
inline std::string sanitized(const std::string& name) {
  std::string s = name;
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

inline std::string fixture_path(const std::string& name) {
  return std::string(PSCHED_GOLDEN_DIR) + "/" + sanitized(name) + ".txt";
}

inline void write_fixture(const std::string& name, const GoldenRun& run) {
  std::ofstream out(fixture_path(name));
  if (!out) throw Error("cannot write fixture " + fixture_path(name));
  char buf[256];
  std::snprintf(buf, sizeof(buf), "makespan %.17g\n", run.makespan);
  out << buf;
  out << "seed_solves " << run.solves << "\n";
  out << "seed_solved_ops " << run.solved_ops << "\n";
  out << "entries " << run.entries.size() << "\n";
  for (const TimelineEntry& e : run.entries) {
    std::snprintf(buf, sizeof(buf), "%s %d %.17g %.17g ", to_string(e.kind),
                  e.stream, e.start, e.end);
    out << buf << e.name << "\n";
  }
}

inline OpKind kind_from_string(const std::string& s) {
  for (const OpKind k :
       {OpKind::Kernel, OpKind::CopyH2D, OpKind::CopyD2H, OpKind::Fault,
        OpKind::CopyP2P, OpKind::Marker, OpKind::Host}) {
    if (s == to_string(k)) return k;
  }
  throw Error("fixture: unknown op kind '" + s + "'");
}

inline Fixture load_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name));
  if (!in) throw Error("missing fixture " + fixture_path(name));
  Fixture f;
  std::string key;
  std::size_t n = 0;
  in >> key >> f.makespan;
  in >> key >> f.seed_solves;
  in >> key >> f.seed_solved_ops;
  in >> key >> n;
  f.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string kind;
    TimelineEntry e;
    in >> kind >> e.stream >> e.start >> e.end;
    std::getline(in, e.name);
    if (!e.name.empty() && e.name.front() == ' ') e.name.erase(0, 1);
    e.kind = kind_from_string(kind);
    f.entries.push_back(std::move(e));
  }
  if (!in) throw Error("truncated fixture " + fixture_path(name));
  return f;
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// Times match to within 1e-6 us absolute / 1e-9 relative: engines that
/// fold fluid-model progress at different boundaries accumulate the same
/// integrals in a different association order, which perturbs the last
/// ulps only. Everything structural must match exactly.
inline void expect_time_eq(TimeUs got, TimeUs want, const std::string& what) {
  const double tol = std::max(1e-6, 1e-9 * std::abs(want));
  EXPECT_NEAR(got, want, tol) << what;
}

/// Op sequence (kind / stream / name, completion order) must match the
/// fixture `name` exactly; makespan and per-op times to expect_time_eq.
inline void expect_matches_fixture(const GoldenRun& run,
                                   const std::string& name) {
  const Fixture fix = load_fixture(name);
  expect_time_eq(run.makespan, fix.makespan, name + ": makespan");
  ASSERT_EQ(run.entries.size(), fix.entries.size())
      << name << ": timeline length diverged";
  for (std::size_t i = 0; i < fix.entries.size(); ++i) {
    const TimelineEntry& got = run.entries[i];
    const TimelineEntry& want = fix.entries[i];
    const std::string what =
        name + ": entry " + std::to_string(i) + " (" + want.name + ")";
    EXPECT_EQ(got.kind, want.kind) << what;
    EXPECT_EQ(got.stream, want.stream) << what;
    EXPECT_EQ(got.name, want.name) << what;
    expect_time_eq(got.start, want.start, what + " start");
    expect_time_eq(got.end, want.end, what + " end");
  }
}

}  // namespace psched::sim::golden
