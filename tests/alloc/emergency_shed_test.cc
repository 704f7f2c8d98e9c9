/**
 * @file
 * Golden-digest pins of the emergency shed.  A budget drop on a
 * settled n=1000 chordal ring runs the shed's diffuse + shed passes
 * hundreds of times inside setBudget(); the resulting caps and
 * estimates are hashed (FNV-1a over the IEEE bytes) and compared
 * with digests recorded before the shed's diffusion and shed steps
 * were fused into one sweep.  The cases cross every axis the sweep
 * dispatches on: layout, thread pool, the dense vs masked gather (a
 * failed node and a cut link), deadband gating, and the SoA floor vs
 * the virtual one (a non-quadratic utility turns the quadratic fast
 * path off).  The other entry points that shed -- warmStart from an
 * external snapshot, joinNode, and a ReplicaBatch lane drop -- are
 * pinned once each.
 */

#include <gtest/gtest.h>

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

/** Digests of one scenario after its -23% and its -15% drop. */
struct ShedDigests
{
    bool faulted;
    double deadband;
    bool non_quad;
    std::uint64_t drop23;
    std::uint64_t drop15;
};

/**
 * One entry per scenario the shed's own code paths see (dense vs
 * masked gather, ungated vs gated, SoA vs virtual floor).  Layout
 * and thread count must not move a bit, so every (layout, threads)
 * pair is held to the same two digests.
 */
const ShedDigests kScenarios[] = {
    // faulted, deadband, non_quad, drop23, drop15
    {false, 0.0, false, 0x9df087abdfc12858ull, 0xf6b774c164785e63ull},
    {false, 0.0, true, 0x63894e105237c0beull, 0x66d1fecf9f3281c3ull},
    {false, 0.01, false, 0x899f82eaaae1bd26ull, 0x6a34a737e0bfe360ull},
    {false, 0.01, true, 0x24e269d1cc9a9caaull, 0xec912cf54c5c64e9ull},
    {true, 0.0, false, 0x56a9cdf365c135c6ull, 0x839ef35e46d31defull},
    {true, 0.0, true, 0x2a2346c47b8829f5ull, 0xf7b266d835523edbull},
    {true, 0.01, false, 0x80541ce3fd6d0e17ull, 0xc7523aae9428fef7ull},
    {true, 0.01, true, 0x27e2617e432dec01ull, 0x189347268e9db90eull},
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

    a.setBudget(nominal);
    settle(a);
    before = a.totalPower();
    a.setBudget(0.85 * nominal);
    ASSERT_LT(a.totalPower(), before) << "the -15% drop did not shed";
    EXPECT_EQ(digest(a), s.drop15) << "-15% drop";
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
    EXPECT_EQ(digest(a), 0x71e3ad67bdc5abf0ull);
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
    EXPECT_EQ(digest(batch.powerOf(0), batch.estimatesOf(0)),
              0x9df087abdfc12858ull);
}

} // namespace dpc
