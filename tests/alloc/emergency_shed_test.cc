/**
 * @file
 * Pins of the emergency shed.  A budget drop on a settled n=1000
 * chordal ring runs the shed's diffuse + shed passes hundreds of
 * times inside setBudget(); the resulting caps and estimates are
 * hashed (FNV-1a over the IEEE bytes) and compared with digests
 * recorded when the shed began stopping on safety (every live node
 * at e <= -kShedFloor / 2) instead of waiting for the summed excess
 * to stall.  The cases cross every axis the sweep dispatches on:
 * layout, thread pool, the dense vs masked gather (a failed node and
 * a cut link), deadband gating, and the SoA floor vs the virtual one
 * (a non-quadratic utility turns the quadratic fast path off).
 *
 * Each drop is also checked from the state itself, independent of
 * the digests: the shed ended `safe` under the budget with the
 * sum(e) invariant intact, in fewer passes than the stall rule alone
 * took on the same case.  The other entry points that shed --
 * warmStart from an external snapshot, joinNode, and a ReplicaBatch
 * lane drop -- are pinned once each, and a budget under the summed
 * power floors covers the stall exit, on both engines.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "alloc/diba.hh"
#include "alloc/replica_batch.hh"
#include "graph/topologies.hh"
#include "model/utility.hh"
#include "tests/alloc/test_problems.hh"
#include "util/rng.hh"

namespace dpc {
namespace {

constexpr std::size_t kNodes = 1000;
constexpr std::uint64_t kProblemSeed = 1313;
constexpr std::uint64_t kTopologySeed = 29;
/** The node a faulted case fails, and the ring link it cuts. */
constexpr std::size_t kFailed = 17;
constexpr std::size_t kCutU = 500;
constexpr std::size_t kCutV = 501;
/** The node whose utility a non-quadratic case hides. */
constexpr std::size_t kOpaque = 333;

Graph
ring()
{
    Rng rng(kTopologySeed);
    return makeChordalRing(kNodes, kNodes / 4, rng);
}

/** FNV-1a (64-bit) over the bytes of both vectors. */
std::uint64_t
digest(const std::vector<double> &p, const std::vector<double> &e)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::vector<double> *v : {&p, &e}) {
        for (double x : *v) {
            unsigned char bytes[sizeof x];
            std::memcpy(bytes, &x, sizeof x);
            for (unsigned char b : bytes) {
                h ^= b;
                h *= 0x100000001b3ull;
            }
        }
    }
    return h;
}

std::uint64_t
digest(const DibaAllocator &a)
{
    return digest(a.power(), a.estimates());
}

/**
 * Node k's utility behind a type the quadratic fast path does not
 * recognize: same curve, same box, but every evaluation is a virtual
 * call, so the allocator runs its generic path.
 */
class OpaqueUtility : public UtilityFunction
{
  public:
    explicit OpaqueUtility(UtilityPtr inner) : inner_(std::move(inner))
    {
    }
    double value(double p) const override { return inner_->value(p); }
    double derivative(double p) const override
    {
        return inner_->derivative(p);
    }
    double minPower() const override { return inner_->minPower(); }
    double maxPower() const override { return inner_->maxPower(); }

  private:
    UtilityPtr inner_;
};

AllocationProblem
problem(bool non_quad)
{
    AllocationProblem prob = test::npbProblem(kNodes, 172.0, kProblemSeed);
    if (non_quad)
        prob.utilities[kOpaque] =
            std::make_shared<OpaqueUtility>(prob.utilities[kOpaque]);
    return prob;
}

void
settle(DibaAllocator &a)
{
    Rng rng(1);
    while (!a.converged() && a.iterations() < a.maxIterations())
        a.step(rng);
}

/** Digests of one scenario after its -23% and its -15% drop, and
 * the shed's pass counts there: under the stop-on-stall rule alone
 * (stall23/stall15) and under the safety stop (passes23/passes15). */
struct ShedDigests
{
    bool faulted;
    double deadband;
    bool non_quad;
    std::uint64_t drop23;
    std::uint64_t drop15;
    int stall23;
    int passes23;
    int stall15;
    int passes15;
};

/**
 * What a shed that stops on safety guarantees after a drop, checked
 * from the state itself rather than a digest: it ended `safe`, every
 * active node holds e <= -kShedFloor / 2, the caps sit under the
 * budget, sum(e) = sum(p) - P still holds, and the shed ran fewer
 * passes than the stall rule alone did (at most a third of them when
 * ungated; a deadband slows the diffusion the shed waits on).
 */
void
expectSafeDrop(const DibaAllocator &a, bool gated, int stall_passes,
               int passes, const char *what)
{
    const ShedOutcome &shed = a.lastShed();
    EXPECT_EQ(shed.end, ShedEnd::safe) << what;
    EXPECT_EQ(shed.passes, passes) << what;
    if (gated)
        EXPECT_LT(shed.passes, stall_passes) << what;
    else
        EXPECT_LE(3 * shed.passes, stall_passes) << what;
    const std::vector<double> &p = a.power();
    const std::vector<double> &e = a.estimates();
    double sum_p = 0.0;
    double sum_e = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (!a.isActive(i))
            continue;
        EXPECT_LE(e[i], -0.5 * kShedFloor) << what << ", node " << i;
        sum_p += p[i];
        sum_e += e[i];
    }
    EXPECT_LT(a.totalPower(), a.budget()) << what;
    EXPECT_LE(std::fabs(sum_e - (sum_p - a.budget())), 1e-6 * a.budget())
        << what;
}

/**
 * One entry per scenario the shed's own code paths see (dense vs
 * masked gather, ungated vs gated, SoA vs virtual floor).  Layout
 * and thread count must not move a bit, so every (layout, threads)
 * pair is held to the same two digests and the same pass counts.
 */
const ShedDigests kScenarios[] = {
    // faulted, deadband, non_quad, drop23, drop15,
    // stall23, passes23, stall15, passes15
    {false, 0.0, false, 0x004de9510a1d4d90ull, 0x37b0483456442313ull,
     2174, 442, 1440, 240},
    {false, 0.0, true, 0x37cb11c543745721ull, 0xcc942127b7073ec0ull,
     2174, 442, 1440, 240},
    {false, 0.01, false, 0xfb1125897d7edaa4ull, 0x8fdc2b58042a6e95ull,
     578, 439, 342, 237},
    {false, 0.01, true, 0x86783e78d44a0246ull, 0x61b3fb9c2595f1b2ull,
     578, 439, 342, 237},
    {true, 0.0, false, 0x81923ffad130a903ull, 0x39df7c49e239d3c9ull,
     2286, 448, 1448, 256},
    {true, 0.0, true, 0xd429cc96c31e9157ull, 0xc4fb1f8258e3c543ull,
     2286, 448, 1448, 256},
    {true, 0.01, false, 0x1bc759259f6ff080ull, 0xb530badd77736ff2ull,
     569, 448, 356, 254},
    {true, 0.01, true, 0x4b7736c2f2a6ae78ull, 0x0b6a0aab5911e292ull,
     569, 448, 356, 254},
};

using ShedCase = std::tuple<Layout, std::size_t, ShedDigests>;

std::string
caseName(const testing::TestParamInfo<ShedCase> &info)
{
    const auto &[layout, threads, s] = info.param;
    return std::string(layout == Layout::rcm ? "rcm" : "identity") +
           "_t" + std::to_string(threads) +
           (s.faulted ? "_faulted" : "_healthy") +
           (s.deadband > 0.0 ? "_gated" : "_ungated") +
           (s.non_quad ? "_opaque" : "_quadratic");
}

class EmergencyShedDropTest : public testing::TestWithParam<ShedCase>
{
};

TEST_P(EmergencyShedDropTest, DigestsArePinned)
{
    const auto &[layout, threads, s] = GetParam();
    DibaAllocator::Config cfg;
    cfg.layout = layout;
    cfg.num_threads = threads;
    cfg.deadband = s.deadband;
    DibaAllocator a(ring(), cfg);
    const AllocationProblem prob = problem(s.non_quad);
    a.reset(prob);
    ASSERT_EQ(a.quadFastPathActive(), !s.non_quad);
    if (s.faulted) {
        a.failNode(kFailed);
        a.setEdgeEnabled(kCutU, kCutV, false);
    }
    settle(a);

    const double nominal = prob.budget;
    double before = a.totalPower();
    a.setBudget(0.77 * nominal);
    ASSERT_LT(a.totalPower(), before) << "the -23% drop did not shed";
    EXPECT_EQ(digest(a), s.drop23) << "-23% drop";
    expectSafeDrop(a, s.deadband > 0.0, s.stall23, s.passes23, "-23% drop");

    a.setBudget(nominal);
    settle(a);
    before = a.totalPower();
    a.setBudget(0.85 * nominal);
    ASSERT_LT(a.totalPower(), before) << "the -15% drop did not shed";
    EXPECT_EQ(digest(a), s.drop15) << "-15% drop";
    expectSafeDrop(a, s.deadband > 0.0, s.stall15, s.passes15, "-15% drop");
}

INSTANTIATE_TEST_SUITE_P(
    Drops, EmergencyShedDropTest,
    testing::Combine(testing::Values(Layout::identity, Layout::rcm),
                     // 3 threads split n=1000 into odd chunks, so the
                     // shed's two-wide SIMD loop runs its scalar tail.
                     testing::Values(std::size_t{0}, std::size_t{3},
                                     std::size_t{4}),
                     testing::ValuesIn(kScenarios)),
    caseName);

/**
 * A budget below the summed power floors leaves debt that no
 * exchange can move: every node sheds to its floor in the first
 * pass, and the summed excess then stays put.  The shed must end on
 * the stall rule -- the first pass plus eight stalled ones -- with
 * every node at its floor, not run on to the hard pass cap.
 */
void
expectStalledAtFloors(const ShedOutcome &shed,
                      const std::vector<double> &power,
                      const AllocationProblem &prob)
{
    EXPECT_EQ(shed.end, ShedEnd::stall);
    EXPECT_GE(shed.passes, 1 + 8);
    EXPECT_LE(shed.passes, 1 + 8 + 3);
    for (std::size_t i = 0; i < power.size(); ++i) {
        const double floor = prob.utilities[i]->minPower();
        EXPECT_NEAR(power[i], floor, 1e-12 * floor) << "node " << i;
    }
}

class EmergencyShedStallTest : public testing::TestWithParam<std::size_t>
{
};

TEST_P(EmergencyShedStallTest, BudgetUnderTheFloorsEndsOnStall)
{
    DibaAllocator::Config cfg;
    cfg.num_threads = GetParam();
    DibaAllocator a(ring(), cfg);
    const AllocationProblem prob = problem(false);
    a.reset(prob);
    settle(a);
    a.setBudget(0.5 * prob.minTotalPower());
    expectStalledAtFloors(a.lastShed(), a.power(), prob);
}

INSTANTIATE_TEST_SUITE_P(Threads, EmergencyShedStallTest,
                         testing::Values(std::size_t{0}, std::size_t{3}));

} // namespace

TEST(EmergencyShedTest, WarmStartExternalSnapshotIsPinned)
{
    // An external snapshot at the settled caps plus 1 W per node,
    // adopted with a -15% budget delta: the re-equalized slack is
    // non-negative, so warmStart sheds inside the call.
    DibaAllocator a(ring());
    const AllocationProblem prob = problem(false);
    a.reset(prob);
    settle(a);
    AllocationResult prev = a.result();
    for (double &p : prev.power)
        p += 1.0;
    const double before = a.totalPower();
    a.warmStart(prev, -0.15 * prob.budget);
    ASSERT_LT(a.totalPower(), before);
    EXPECT_EQ(a.lastShed().end, ShedEnd::safe);
    EXPECT_EQ(digest(a), 0x813fbac78021de5cull);
}

TEST(EmergencyShedTest, JoinNodeIsPinned)
{
    // A node rejoins a settled cluster at its floor; the debt charged
    // to its neighbours exhausts their slack and joinNode sheds.
    DibaAllocator a(ring());
    a.reset(problem(false));
    a.failNode(kFailed);
    settle(a);
    const double before = a.totalPower();
    a.joinNode(kFailed);
    ASSERT_LT(a.totalPower() - a.power()[kFailed], before);
    EXPECT_EQ(digest(a), 0x048694b8087cd2afull);
}

TEST(EmergencyShedTest, ReplicaBatchLaneDropIsPinned)
{
    const AllocationProblem prob = problem(false);
    ReplicaBatch batch(ring(), prob, {ReplicaSpec{}, ReplicaSpec{}});
    while (!batch.allConverged())
        batch.stepAll();
    const double before = batch.totalPower(0);
    batch.setBudget(0, 0.77 * batch.budget(0));
    ASSERT_LT(batch.totalPower(0), before);
    // A perfect-channel lane runs DibaAllocator's trajectory, so the
    // drop lands on the same digest as the healthy -23% scenario.
    EXPECT_EQ(batch.lastShed(0).end, ShedEnd::safe);
    EXPECT_EQ(batch.lastShed(0).passes, 442);
    EXPECT_EQ(digest(batch.powerOf(0), batch.estimatesOf(0)),
              0x004de9510a1d4d90ull);
}

TEST(EmergencyShedTest, ReplicaBatchLaneUnderTheFloorsEndsOnStall)
{
    const AllocationProblem prob = problem(false);
    ReplicaBatch batch(ring(), prob, {ReplicaSpec{}, ReplicaSpec{}});
    while (!batch.allConverged())
        batch.stepAll();
    batch.setBudget(0, 0.5 * prob.minTotalPower());
    expectStalledAtFloors(batch.lastShed(0), batch.powerOf(0), prob);
    // The other lane never shed.
    EXPECT_EQ(batch.lastShed(1).end, ShedEnd::none);
}

} // namespace dpc
