// Randomized join/leave churn and mid-flight re-weighting against the
// per-member fold's pinned schedules.
//
// The churn scenario drives a seeded random mix of kernels, transfers and
// faults across several tenants and devices, interleaving enqueues with
// host-clock advances so ops join and leave classes at arbitrary points
// of other members' lifetimes — the regime where the virtual-service
// bookkeeping (lazy V advance, finish-heap epochs, group aggregate
// joins/leaves) has to agree with folding every member on every change.
// Schedules must match the fixtures written by that fold (see
// golden_scenarios.hpp): same op order, same times to 1e-9 relative.
#include <gtest/gtest.h>

#include "../sim/golden_scenarios.hpp"

namespace psched::sim::golden {
namespace {

TEST(SolverChurn, RandomJoinLeaveSchedulesIdentical) {
  for (const unsigned seed : kChurnSeeds) {
    expect_matches_fixture(run_churn_scenario(seed),
                           churn_fixture_name(seed));
  }
}

// ---------------------------------------------------------------------
// Mid-flight set_tenant_weight: re-pricing must be immediate AND stay on
// the group-aggregate path — the weight change re-splits tenant budgets
// without a member scan.
// ---------------------------------------------------------------------

TEST(SolverChurn, WeightChangeRepricesWithoutMemberScan) {
  Engine eng(DeviceSpec::test_device());
  const StreamId s1 = eng.create_stream(kDefaultDevice, 1);
  const StreamId s2 = eng.create_stream(kDefaultDevice, 2);
  // Saturated: fill 1.0 each, base rate 0.5 apiece at equal weights.
  eng.enqueue(test::raw_kernel(s1, 100.0, 4, 1.0), 0);
  eng.enqueue(test::raw_kernel(s2, 100.0, 4, 1.0), 0);
  eng.advance_to(10.0);  // 5.0 work each at equal weights

  const long scans_before = eng.full_scan_count();
  const long touches_before = eng.member_touch_count();
  eng.set_tenant_weight(1, 3.0);
  EXPECT_EQ(eng.full_scan_count(), scans_before)
      << "weight change fell back to a full member scan";
  EXPECT_EQ(eng.member_touch_count(), touches_before)
      << "weight change touched members";

  eng.advance_to(20.0);  // [10, 20]: rates 0.75 / 0.25
  EXPECT_NEAR(eng.tenant_inflight_work(1), 12.5, 1e-9);
  EXPECT_NEAR(eng.tenant_inflight_work(2), 7.5, 1e-9);
}

TEST(SolverChurn, WeightChangeMatchesLegacyPath) {
  // The same mid-flight re-weighting sequence must land the per-member
  // fold's completions.
  expect_matches_fixture(run_weight_change_scenario(), "weight_change");
}

// ---------------------------------------------------------------------
// Counter contract: per-class stats must add up to the engine-wide
// totals.
// ---------------------------------------------------------------------

TEST(SolverChurn, PerClassStatsSumToTotals) {
  Engine eng(DeviceSpec::test_device());
  build_contention_dag(eng, 500, 16);
  eng.run_all();

  long solves = 0;
  long scans = 0;
  long touches = 0;
  for (const OpKind kind : {OpKind::Kernel, OpKind::CopyH2D,
                            OpKind::CopyD2H, OpKind::Fault}) {
    const auto s = eng.class_solver_stats(kDefaultDevice, kind);
    solves += s.solves;
    scans += s.full_scans;
    touches += s.member_touches;
  }
  EXPECT_EQ(solves, eng.solve_count());
  EXPECT_EQ(scans, eng.full_scan_count());
  EXPECT_EQ(touches, eng.member_touch_count());
}

}  // namespace
}  // namespace psched::sim::golden
