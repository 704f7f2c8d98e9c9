/**
 * @file
 * Pins every body of the block round kernel bitwise against
 * stepBlockQuadScalar: the AVX2 and AVX-512F twins directly, and the
 * cpuid dispatcher stepBlockQuad that the engines call.
 *
 * The twins are compiled for their own ISA inside the library
 * (round_kernel.cc), so this suite needs no special flags.  A twin
 * the CPU cannot execute skips with the reason; the dispatcher
 * tests run everywhere.  Every test drives the scalar body and the
 * body under test over the same streams and requires exact equality
 * of every output bit, through the shed branch, box/max-move clamps,
 * both eta-anneal directions, every scalar-tail length, and 400
 * chained rounds.
 *
 * The dense diffusion gather gets the same treatment: both twins
 * and its dispatcher are pinned against the CSR body
 * gatherDenseScalar on rings, chordal rings, Erdos-Renyi graphs and
 * stars (whose hub spills past its slice width), with and without a
 * deadband, over chunk and block splits that start mid-slice; the
 * DenseGatherTest suite also bounds the SELL copy's cells on every
 * topology generator.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "alloc/round_kernel.hh"
#include "graph/topologies.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

using namespace dpc;

namespace {

using Kernel = decltype(&stepBlockQuadScalar);

/** The AVX2 twin, or nullptr where this host cannot run it. */
Kernel
avx2Twin()
{
#if DPC_ROUND_KERNEL_X86
    if (__builtin_cpu_supports("avx2"))
        return stepBlockQuadAvx2;
#endif
    return nullptr;
}

/** The AVX-512F twin, or nullptr where this host cannot run it. */
Kernel
avx512Twin()
{
#if DPC_ROUND_KERNEL_X86
    if (__builtin_cpu_supports("avx512f"))
        return stepBlockQuadAvx512;
#endif
    return nullptr;
}

constexpr const char *kNoAvx2 =
    "AVX2 twin not runnable: the CPU lacks AVX2 or this is not an "
    "x86-64 GCC/Clang build";
constexpr const char *kNoAvx512 =
    "AVX-512F twin not runnable: the CPU lacks AVX-512F or this is "
    "not an x86-64 GCC/Clang build";

struct Streams
{
    std::vector<double> p, e, eta, b, c, lo, hi;

    explicit Streams(std::size_t m) :
        p(m), e(m), eta(m), b(m), c(m), lo(m), hi(m)
    {
    }

    double
    step(Kernel kernel, const RoundKernelParams &k)
    {
        return kernel(p.size(), p.data(), e.data(), eta.data(),
                      b.data(), c.data(), lo.data(), hi.data(), k);
    }
};

/**
 * Streams spanning every kernel regime: interior barrier steps,
 * box-clamped nodes, max_move-clamped gradients, lanes pinned at
 * the barrier floor, eta at both anneal bounds, and (when
 * `with_shed`) positive estimates that trigger the emergency-shed
 * branch.
 */
Streams
randomStreams(std::size_t m, std::uint64_t seed, bool with_shed)
{
    Rng rng(seed);
    Streams s(m);
    const RoundKernelParams k{};
    for (std::size_t i = 0; i < m; ++i) {
        s.lo[i] = 80.0 + 40.0 * rng.uniform();
        s.hi[i] = s.lo[i] + 60.0 + 100.0 * rng.uniform();
        s.p[i] = s.lo[i] + (s.hi[i] - s.lo[i]) * rng.uniform();
        // Mostly healthy negative slack; a few lanes hug the
        // barrier floor, and optionally some violate it outright.
        const double u = rng.uniform();
        if (with_shed && u < 0.15)
            s.e[i] = 0.5 * rng.uniform();
        else if (u < 0.3)
            s.e[i] = -1e-7 * (1.0 + rng.uniform());
        else
            s.e[i] = -(0.01 + 30.0 * rng.uniform());
        s.eta[i] = k.eta_floor +
                   (k.eta_initial - k.eta_floor) * rng.uniform();
        // Concave quadratics with a wide curvature spread, plus
        // the degenerate linear case.
        s.c[i] = rng.uniform() < 0.05
                     ? 0.0
                     : -(1e-4 + 0.05 * rng.uniform());
        s.b[i] = 0.5 + 2.0 * rng.uniform();
    }
    return s;
}

void
expectBitwiseEqual(const Streams &a, const Streams &c,
                   const std::string &what)
{
    ASSERT_EQ(a.p.size(), c.p.size());
    for (std::size_t i = 0; i < a.p.size(); ++i) {
        EXPECT_EQ(a.p[i], c.p[i]) << what << " p[" << i << "]";
        EXPECT_EQ(a.e[i], c.e[i]) << what << " e[" << i << "]";
        EXPECT_EQ(a.eta[i], c.eta[i])
            << what << " eta[" << i << "]";
    }
}

/** One 1024-node step from four seeds, with and without shed lanes. */
void
expectSingleStepMatches(Kernel kernel)
{
    const RoundKernelParams k{};
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        for (const bool with_shed : {false, true}) {
            const Streams base =
                randomStreams(1024, seed, with_shed);
            Streams sc = base, vx = base;
            EXPECT_EQ(sc.step(stepBlockQuadScalar, k),
                      vx.step(kernel, k))
                << "max_dp, seed " << seed;
            expectBitwiseEqual(sc, vx,
                               "seed " + std::to_string(seed));
        }
    }
}

/**
 * Lengths below, at and past both vector widths, so every scalar
 * tail length 1..7 runs behind 0, 1 and many full vectors.
 */
void
expectEveryTailLengthMatches(Kernel kernel)
{
    const RoundKernelParams k{};
    std::vector<std::size_t> lengths;
    for (std::size_t m = 1; m <= 17; ++m)
        lengths.push_back(m);
    for (const std::size_t m : {63u, 127u, 511u, 513u})
        lengths.push_back(m);
    for (const std::size_t m : lengths) {
        const Streams base = randomStreams(m, 99 + m, true);
        Streams sc = base, vx = base;
        EXPECT_EQ(sc.step(stepBlockQuadScalar, k), vx.step(kernel, k))
            << "max_dp, m=" << m;
        expectBitwiseEqual(sc, vx, "m=" + std::to_string(m));
    }
}

/** 400 chained rounds on lengths leaving a tail at both widths. */
void
expectChainedRoundsMatch(Kernel kernel)
{
    const RoundKernelParams k{};
    for (const std::size_t m : {257u, 261u}) {
        const Streams base = randomStreams(m, 7, true);
        Streams sc = base, vx = base;
        for (int round = 0; round < 400; ++round) {
            ASSERT_EQ(sc.step(stepBlockQuadScalar, k),
                      vx.step(kernel, k))
                << "max_dp diverged at round " << round << ", m=" << m;
            ASSERT_EQ(0, std::memcmp(sc.p.data(), vx.p.data(),
                                     m * sizeof(double)))
                << "p diverged at round " << round << ", m=" << m;
            ASSERT_EQ(0, std::memcmp(sc.e.data(), vx.e.data(),
                                     m * sizeof(double)))
                << "e diverged at round " << round << ", m=" << m;
            ASSERT_EQ(0, std::memcmp(sc.eta.data(), vx.eta.data(),
                                     m * sizeof(double)))
                << "eta diverged at round " << round << ", m=" << m;
        }
    }
}

using Gather = decltype(&gatherDenseScalar);

/** The AVX2 gather twin, or nullptr where this host cannot run it. */
Gather
avx2Gather()
{
#if DPC_ROUND_KERNEL_X86
    if (__builtin_cpu_supports("avx2"))
        return gatherDenseAvx2;
#endif
    return nullptr;
}

/** The AVX-512F gather twin, or nullptr where this host cannot run
 * it. */
Gather
avx512Gather()
{
#if DPC_ROUND_KERNEL_X86
    if (__builtin_cpu_supports("avx512f"))
        return gatherDenseAvx512;
#endif
    return nullptr;
}

/** DiBA's Metropolis weight per CSR slot (DibaAllocator's w_). */
std::vector<double>
metropolisWeights(const GraphCsr &g)
{
    std::vector<double> w(g.neighbors.size());
    for (std::size_t v = 0; v + 1 < g.offsets.size(); ++v)
        for (std::uint32_t k = g.offsets[v]; k < g.offsets[v + 1]; ++k)
            w[k] = 1.0 / (1.0 + static_cast<double>(std::max(
                                    g.degree(v),
                                    g.degree(g.neighbors[k]))));
    return w;
}

/** A named overlay for the gather parity tests. */
struct GatherTopology
{
    std::string name;
    Graph graph;
};

/** Ring, chordal ring, Erdos-Renyi and star over n nodes. */
std::vector<GatherTopology>
gatherTopologies(std::size_t n)
{
    Rng rng(n);
    std::vector<GatherTopology> out;
    out.push_back({"ring", makeRing(n)});
    out.push_back({"chordal", makeChordalRing(n, n / 4, rng)});
    out.push_back({"erdos_renyi", makeConnectedErdosRenyi(n, 4 * n, rng)});
    out.push_back({"star", makeStar(n)});
    return out;
}

/**
 * Snapshot estimates: mostly negative slack, with runs of equal
 * values (gaps of exactly 0, inside any deadband gate), near-equal
 * neighbours (gaps straddling a 1% gate), and signed zeros.
 */
std::vector<double>
gatherSnapshot(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> snap(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform();
        if (u < 0.05)
            snap[i] = i % 2 == 0 ? 0.0 : -0.0;
        else if (u < 0.2 && i > 0)
            snap[i] = snap[i - 1];
        else if (u < 0.35 && i > 0)
            snap[i] = snap[i - 1] * (1.0 + 0.02 * (rng.uniform() - 0.5));
        else
            snap[i] = -30.0 * rng.uniform() + (u > 0.95 ? 40.0 : 0.0);
    }
    return snap;
}

/** Row ranges a body is run over: one call over [0, n), or the
 * three chunks a 3-thread pool cuts, each in the allocator's
 * 512-node dense blocks (every chunk start but the first sits
 * mid-slice at the sizes tested). */
std::vector<std::pair<std::size_t, std::size_t>>
gatherRanges(std::size_t n, bool chunked)
{
    if (!chunked)
        return {{0, n}};
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t c = 0; c < 3; ++c) {
        const std::size_t lo = ThreadPool::chunkBegin(n, 3, c);
        const std::size_t hi = ThreadPool::chunkBegin(n, 3, c + 1);
        for (std::size_t b0 = lo; b0 < hi; b0 += 512)
            out.push_back({b0, std::min(hi, b0 + 512)});
    }
    return out;
}

/**
 * Runs `body` and the CSR body over every topology at n = 1000 and
 * 1003 (n % 8 = 0 and 3), deadband 0 and 0.01, whole and chunked,
 * and requires every output bit to match.
 */
void
expectGatherMatches(Gather body)
{
    for (const std::size_t n : {1000u, 1003u}) {
        for (const GatherTopology &t : gatherTopologies(n)) {
            const GraphCsr &g = t.graph.csr();
            const std::vector<double> w = metropolisWeights(g);
            const SellOverlay sell(g, w.data());
            const std::vector<double> snap = gatherSnapshot(n, 5 + n);
            for (const double deadband : {0.0, 0.01}) {
                std::vector<double> want(n, 7.0);
                gatherDenseScalar(g, w.data(), sell, snap.data(),
                                  want.data(), deadband, 0, n);
                for (const bool chunked : {false, true}) {
                    std::vector<double> got(n, 7.0);
                    for (const auto &[b0, b1] : gatherRanges(n, chunked))
                        body(g, w.data(), sell, snap.data(), got.data(),
                             deadband, b0, b1);
                    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                             n * sizeof(double)))
                        << t.name << " n=" << n << " deadband="
                        << deadband << (chunked ? " chunked" : " whole");
                }
            }
        }
    }
}

} // namespace

TEST(DenseGatherTest, SnapshotExercisesTheDeadbandGate)
{
    // The deadband parity runs rely on gaps on both sides of a 1%
    // gate; a snapshot generator that lost either side would leave
    // one arm of the masked add untested.
    const Graph g = makeRing(1000);
    const std::vector<double> snap = gatherSnapshot(1000, 1005);
    std::size_t inside = 0, outside = 0;
    for (std::size_t i = 0; i < 1000; ++i) {
        const double ei = snap[i], ej = snap[(i + 1) % 1000];
        const double gate = 0.01 * std::max(std::fabs(ei), std::fabs(ej));
        (std::fabs(ej - ei) <= gate ? inside : outside) += 1;
    }
    EXPECT_GT(inside, 100u);
    EXPECT_GT(outside, 100u);
}

TEST(DenseGatherTest, CellsStayWithinTwiceTheCsrSlots)
{
    Rng rng(17);
    std::vector<GatherTopology> topos;
    for (const std::size_t n : {9u, 64u, 1000u, 1003u}) {
        for (GatherTopology &t : gatherTopologies(n))
            topos.push_back(std::move(t));
        topos.push_back({"random_connected",
                         makeRandomConnectedGraph(n, n + n / 2, rng)});
        topos.push_back({"two_tier", makeTwoTierFabric(n, 8)});
        std::vector<std::pair<std::size_t, std::size_t>> spares;
        topos.push_back({"healable", makeHealableRing(n, n / 4, n / 8,
                                                      rng, &spares)});
    }
    topos.push_back({"complete", makeComplete(40)});
    for (const GatherTopology &t : topos) {
        const GraphCsr &g = t.graph.csr();
        const std::vector<double> w = metropolisWeights(g);
        const SellOverlay sell(g, w.data());
        EXPECT_LE(sell.cells(), 2 * g.neighbors.size())
            << t.name << " n=" << t.graph.numVertices();
        EXPECT_EQ(t.graph.numVertices() / SellOverlay::kSlice,
                  sell.numSlices());
    }
}

TEST(DenseGatherTest, StarHubSpillsPastItsSlice)
{
    // The hub's 999 columns must not widen slice 0: every other row
    // has degree 1, so the slice stays one column wide and 998 of
    // the hub's columns go to the spilled tail.
    const Graph star = makeStar(1000);
    const GraphCsr &g = star.csr();
    const std::vector<double> w = metropolisWeights(g);
    const SellOverlay sell(g, w.data());
    EXPECT_EQ(SellOverlay::kSlice, sell.slice_off[1]);
    EXPECT_EQ(998u, sell.spill_col.size());
    EXPECT_EQ(g.neighbors.size(), sell.cells());
}

TEST(DenseGatherTest, Avx2TwinIsBitwiseIdentical)
{
    const Gather body = avx2Gather();
    if (body == nullptr)
        GTEST_SKIP() << kNoAvx2;
    expectGatherMatches(body);
}

TEST(DenseGatherTest, Avx512TwinIsBitwiseIdentical)
{
    const Gather body = avx512Gather();
    if (body == nullptr)
        GTEST_SKIP() << kNoAvx512;
    expectGatherMatches(body);
}

TEST(DenseGatherTest, DispatcherIsBitwiseIdentical)
{
    expectGatherMatches(gatherDense);
}

TEST(DenseGatherTest, ThreeWorkerChunksMatchTheSerialGather)
{
    // The chunked gather a 3-thread DiBA round runs: each worker
    // reads the shared snapshot and writes its own rows, including
    // the slices two chunks split between them.
    const std::size_t n = 1003;
    Rng rng(3);
    const Graph topo = makeChordalRing(n, n / 4, rng);
    const GraphCsr &g = topo.csr();
    const std::vector<double> w = metropolisWeights(g);
    const SellOverlay sell(g, w.data());
    const std::vector<double> snap = gatherSnapshot(n, 11);
    std::vector<double> want(n), got(n);
    gatherDenseScalar(g, w.data(), sell, snap.data(), want.data(), 0.0,
                      0, n);
    ThreadPool pool(3);
    pool.parallelFor(
        n,
        [&](std::size_t, std::size_t b0, std::size_t b1) {
            gatherDense(g, w.data(), sell, snap.data(), got.data(), 0.0,
                        b0, b1);
        },
        0);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(double)));
}

TEST(RoundKernelTest, ShedStreamsReachTheShedBranch)
{
    // The parity tests below rely on randomStreams(.., true)
    // putting lanes at e >= 0; a generator change that lost them
    // would leave the shed blend untested.
    const Streams s = randomStreams(1024, 1, true);
    std::size_t shed_lanes = 0;
    for (const double e : s.e)
        shed_lanes += e >= 0.0 ? 1 : 0;
    EXPECT_GT(shed_lanes, 50u);
}

TEST(RoundKernelAvx2Test, SingleStepIsBitwiseIdentical)
{
    const Kernel kernel = avx2Twin();
    if (kernel == nullptr)
        GTEST_SKIP() << kNoAvx2;
    expectSingleStepMatches(kernel);
}

TEST(RoundKernelAvx2Test, OddLengthsExerciseTheScalarTail)
{
    const Kernel kernel = avx2Twin();
    if (kernel == nullptr)
        GTEST_SKIP() << kNoAvx2;
    expectEveryTailLengthMatches(kernel);
}

TEST(RoundKernelAvx2Test, StaysIdenticalOverManyChainedRounds)
{
    const Kernel kernel = avx2Twin();
    if (kernel == nullptr)
        GTEST_SKIP() << kNoAvx2;
    expectChainedRoundsMatch(kernel);
}

TEST(RoundKernelAvx512Test, SingleStepIsBitwiseIdentical)
{
    const Kernel kernel = avx512Twin();
    if (kernel == nullptr)
        GTEST_SKIP() << kNoAvx512;
    expectSingleStepMatches(kernel);
}

TEST(RoundKernelAvx512Test, OddLengthsExerciseTheScalarTail)
{
    const Kernel kernel = avx512Twin();
    if (kernel == nullptr)
        GTEST_SKIP() << kNoAvx512;
    expectEveryTailLengthMatches(kernel);
}

TEST(RoundKernelAvx512Test, StaysIdenticalOverManyChainedRounds)
{
    const Kernel kernel = avx512Twin();
    if (kernel == nullptr)
        GTEST_SKIP() << kNoAvx512;
    expectChainedRoundsMatch(kernel);
}

TEST(RoundKernelDispatchTest, PicksTheWidestTwinTheCpuRuns)
{
    const std::string expected = avx512Twin() != nullptr ? "avx512f"
                                 : avx2Twin() != nullptr ? "avx2"
                                                         : "scalar";
    EXPECT_EQ(expected, roundKernelName());
}

TEST(RoundKernelDispatchTest, SingleStepIsBitwiseIdentical)
{
    expectSingleStepMatches(stepBlockQuad);
}

TEST(RoundKernelDispatchTest, OddLengthsExerciseTheScalarTail)
{
    expectEveryTailLengthMatches(stepBlockQuad);
}

TEST(RoundKernelDispatchTest, StaysIdenticalOverManyChainedRounds)
{
    expectChainedRoundsMatch(stepBlockQuad);
}
