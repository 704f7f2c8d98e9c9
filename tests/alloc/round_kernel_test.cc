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
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "alloc/round_kernel.hh"
#include "util/rng.hh"

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

} // namespace

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
