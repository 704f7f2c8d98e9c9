/**
 * @file
 * ReplicaBatch tests: a perfect-channel lane must be bitwise
 * identical to a standalone DibaAllocator run; lanes must be
 * independent (a lane's trajectory depends only on its own spec,
 * not on which other lanes share the batch); lossy lanes must
 * conserve the budget invariant and still converge; the per-lane
 * control events (setBudget, setUtility, seedFrom) must act on
 * exactly one lane.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "alloc/diba.hh"
#include "alloc/replica_batch.hh"
#include "graph/topologies.hh"
#include "model/utility.hh"
#include "tests/alloc/test_problems.hh"
#include "util/stats.hh"

namespace dpc {
namespace {

/** Lane invariant |sum(e) - (sum(p) - P)| scaled to the budget. */
double
invariantDrift(const ReplicaBatch &batch, std::size_t r)
{
    const double se = sum(batch.estimatesOf(r));
    const double sp = batch.totalPower(r);
    return std::fabs(se - (sp - batch.budget(r))) /
           batch.budget(r);
}

/**
 * Standalone dense iterate() (stepBlockQuad: the cpuid-dispatched
 * twin) against a one-lane batch (scalar quadNodeDp per node).
 */
void
expectPerfectLaneMatchesStandalone(const Graph &g,
                                   const AllocationProblem &prob,
                                   int rounds)
{
    DibaAllocator solo(g, DibaAllocator::Config{});
    solo.reset(prob);
    ReplicaBatch batch(g, prob, {ReplicaSpec{}});

    for (int r = 0; r < rounds; ++r) {
        const double m_solo = solo.iterate();
        const double m_batch = batch.stepAll();
        ASSERT_EQ(m_solo, m_batch) << "max |dp| at round " << r;
    }
    const auto ps = solo.power();
    const auto es = solo.estimates();
    const auto pb = batch.powerOf(0);
    const auto eb = batch.estimatesOf(0);
    for (std::size_t i = 0; i < g.numVertices(); ++i) {
        EXPECT_EQ(ps[i], pb[i]) << "power at node " << i;
        EXPECT_EQ(es[i], eb[i]) << "estimate at node " << i;
    }
}

TEST(ReplicaBatchTest, PerfectLaneIsBitwiseIdenticalToStandalone)
{
    {
        const std::size_t n = 96;
        SCOPED_TRACE("ring, n=96");
        expectPerfectLaneMatchesStandalone(
            makeRing(n), test::npbProblem(n, 172.0, 21), 400);
    }
    {
        // n = 1003 is no multiple of 4 or 8: the last 512-node
        // block of every round ends in the dispatched twin's
        // in-target scalar tail.
        const std::size_t n = 1003;
        SCOPED_TRACE("chordal ring, n=1003");
        Rng topo_rng(5);
        expectPerfectLaneMatchesStandalone(
            makeChordalRing(n, n / 5, topo_rng),
            test::npbProblem(n, 172.0, 22), 2000);
    }
}

TEST(ReplicaBatchTest, LanesAreIndependentOfTheirBatchMates)
{
    // Lane values must depend only on the lane's own spec: the
    // middle lane of a mixed batch (different budgets, different
    // drop rates around it) must track a single-lane batch with the
    // same spec bit for bit.
    const std::size_t n = 64;
    const auto prob = test::npbProblem(n, 172.0, 33);
    Rng topo_rng(9);
    const Graph g = makeChordalRing(n, 8, topo_rng);

    const ReplicaSpec probe{/*seed=*/77, /*drop_rate=*/0.15,
                            /*budget=*/0.97 * prob.budget};
    ReplicaBatch alone(g, prob, {probe});
    ReplicaBatch mixed(g, prob,
                       {ReplicaSpec{5, 0.3, 0.0}, probe,
                        ReplicaSpec{123, 0.0, 1.02 * prob.budget}});

    for (int r = 0; r < 300; ++r) {
        alone.stepAll();
        mixed.stepAll();
    }
    const auto pa = alone.powerOf(0);
    const auto pm = mixed.powerOf(1);
    const auto ea = alone.estimatesOf(0);
    const auto em = mixed.estimatesOf(1);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(pa[i], pm[i]) << "power at node " << i;
        EXPECT_EQ(ea[i], em[i]) << "estimate at node " << i;
    }
}

TEST(ReplicaBatchTest, LossyLanesConserveInvariantAndConverge)
{
    const std::size_t n = 80;
    const auto prob = test::npbProblem(n, 172.0, 41);
    Rng topo_rng(3);
    const Graph g = makeChordalRing(n, 10, topo_rng);

    std::vector<ReplicaSpec> specs;
    for (std::uint64_t r = 0; r < 4; ++r)
        specs.push_back(ReplicaSpec{100 + r, 0.1 * r, 0.0});
    ReplicaBatch batch(g, prob, specs);

    for (int round = 0; round < 4000 && !batch.allConverged();
         ++round)
        batch.stepAll();

    for (std::size_t r = 0; r < specs.size(); ++r) {
        // Heavy loss keeps injecting gossip jitter, so only the
        // light-loss lanes are required to reach the quiet-rounds
        // stopping rule; the safety invariants must hold for every
        // lane under any loss pattern.
        if (specs[r].drop_rate <= 0.1) {
            EXPECT_TRUE(batch.converged(r)) << "lane " << r;
        }
        EXPECT_LT(invariantDrift(batch, r), 1e-9) << "lane " << r;
        EXPECT_LT(batch.totalPower(r), batch.budget(r))
            << "lane " << r;
        for (double e : batch.estimatesOf(r))
            EXPECT_LT(e, 0.0) << "lane " << r;
    }
}

TEST(ReplicaBatchTest, SetBudgetActsOnOneLaneOnly)
{
    const std::size_t n = 48;
    const auto prob = test::npbProblem(n, 172.0, 51);
    const Graph g = makeRing(n);
    // A converged lane still makes sub-tolerance micro-moves every
    // round, so "untouched" is judged against a control batch that
    // steps in lockstep without receiving the event.
    ReplicaBatch batch(g, prob, {ReplicaSpec{}, ReplicaSpec{}});
    ReplicaBatch control(g, prob, {ReplicaSpec{}, ReplicaSpec{}});

    while (!batch.allConverged()) {
        batch.stepAll();
        control.stepAll();
    }

    // A 15% cut on lane 0 must leave lane 1 on the control
    // trajectory bit for bit and drag lane 0 under the new cap.
    const double cut = 0.85 * batch.budget(0);
    batch.setBudget(0, cut);
    EXPECT_LT(batch.totalPower(0), cut);
    for (int r = 0; r < 600; ++r) {
        batch.stepAll();
        control.stepAll();
    }
    EXPECT_LT(batch.totalPower(0), cut);
    EXPECT_LT(invariantDrift(batch, 0), 1e-9);
    const auto other = batch.powerOf(1);
    const auto ref = control.powerOf(1);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(ref[i], other[i]) << "lane 1 node " << i;
}

TEST(ReplicaBatchTest, SetUtilityPerturbsOneLaneOnly)
{
    const std::size_t n = 48;
    const auto prob = test::npbProblem(n, 172.0, 61);
    const Graph g = makeRing(n);
    ReplicaBatch batch(g, prob, {ReplicaSpec{}, ReplicaSpec{}});
    ReplicaBatch control(g, prob, {ReplicaSpec{}, ReplicaSpec{}});
    while (!batch.allConverged()) {
        batch.stepAll();
        control.stepAll();
    }

    // Swap node 7's workload in lane 1 to a much hungrier shape;
    // lane 0 must stay on the control trajectory bit for bit.
    batch.setUtility(
        1, 7, QuadraticUtility::fromShape(0.95, 0.95, 100.0, 200.0));
    EXPECT_FALSE(batch.converged(1));
    for (int r = 0; r < 400; ++r) {
        batch.stepAll();
        control.stepAll();
    }
    const auto after0 = batch.powerOf(0);
    const auto ref0 = control.powerOf(0);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(ref0[i], after0[i]) << "lane 0 node " << i;
    EXPECT_LT(batch.totalPower(1), batch.budget(1));
    EXPECT_LT(invariantDrift(batch, 1), 1e-9);
}

TEST(ReplicaBatchTest, SeedFromReconvergesFasterThanColdStart)
{
    const std::size_t n = 128;
    const auto prob = test::npbProblem(n, 172.0, 71);
    Rng topo_rng(6);
    const Graph g = makeChordalRing(n, 12, topo_rng);

    ReplicaBatch batch(g, prob, {ReplicaSpec{}});
    while (!batch.allConverged())
        batch.stepAll();
    const std::size_t cold_rounds = batch.rounds();
    const auto settled = batch.powerOf(0);

    // Fan out 3 lanes from the settled allocation with budgets up
    // to ±5% away; each should settle in a fraction of the cold
    // solve.
    std::vector<ReplicaSpec> specs{
        ReplicaSpec{1, 0.0, 0.95 * prob.budget},
        ReplicaSpec{2, 0.0, prob.budget},
        ReplicaSpec{3, 0.0, 1.05 * prob.budget}};
    ReplicaBatch sweep(g, prob, specs);
    sweep.seedFrom(settled);
    while (!sweep.allConverged())
        sweep.stepAll();
    EXPECT_LT(sweep.rounds(), cold_rounds / 2)
        << "warm sweep should beat half the cold solve ("
        << cold_rounds << " rounds)";
    for (std::size_t r = 0; r < specs.size(); ++r) {
        EXPECT_LT(sweep.totalPower(r), sweep.budget(r));
        EXPECT_LT(invariantDrift(sweep, r), 1e-9);
    }
}

} // namespace
} // namespace dpc
