// Solver equivalence across the matrix axes the seed fixtures do not
// reach: multi-GPU rosters with P2P link classes, multi-tenant weighted
// sharing, batched ingest.
//
// The virtual-service solver must reproduce the schedules of the
// per-member fold, which folded every member of a dirty class on every
// re-solve; its timelines are pinned in tests/sim/golden (see
// golden_scenarios.hpp). Structure (op kind / stream / name / completion
// order) must match exactly; times to within 1e-9 relative (1e-6 us
// absolute under it): the two solvers accumulate the identical
// fluid-model integrals in a different association order, which perturbs
// the last ulps only.
#include <gtest/gtest.h>

#include "../sim/golden_scenarios.hpp"

namespace psched::sim::golden {
namespace {

TEST(SolverEquivalence, MultiGpuContention) {
  expect_matches_fixture(run_multi_gpu_scenario(), "multi_gpu_contention");
}

TEST(SolverEquivalence, TenantWeightedSharing) {
  expect_matches_fixture(run_tenant_scenario(), "tenant_weighted");
}

TEST(SolverEquivalence, BatchedIngest) {
  expect_matches_fixture(run_batched_ingest_scenario(), "batched_ingest");
}

// ---------------------------------------------------------------------
// The acceptance asymmetry: equivalence is only interesting because the
// virtual-service solver does asymptotically less work. On the
// high-fan-in contention scenario a per-member fold touches every member
// per re-solve (the seed engine's full re-solves, pinned in the fixture)
// while the virtual-service solver touches members only on genuine
// rate-ratio changes.
// ---------------------------------------------------------------------

TEST(SolverEquivalence, IncrementalTouchesFarFewerMembers) {
  Engine eng(DeviceSpec::test_device());
  build_contention_dag(eng, 1000, 16);
  eng.run_all();
  const Fixture fix = load_fixture("contention_1k");
  EXPECT_LT(eng.member_touch_count() * 4, fix.seed_solved_ops);
}

}  // namespace
}  // namespace psched::sim::golden
