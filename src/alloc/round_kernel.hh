/**
 * @file
 * The shared DiBA round kernel: the barrier-gradient /
 * emergency-shed local step for quadratic utilities, in scalar and
 * block (SIMD-friendly) form, plus the barrier-annealing update and
 * the emergency shed's stop rule.
 *
 * Every engine that advances DiBA state goes through these
 * primitives — the serial reference path, the fused dense kernel,
 * the active-set sparse kernel, the lockstep ReplicaBatch — so the
 * arithmetic is defined in exactly one place and the bitwise
 * equivalence the tests pin (scalar == SIMD == threaded == batched)
 * is equivalence of *call schedules*, never of re-implementations.
 *
 * Branchless form.  quadNodeDp() computes both candidate updates —
 * the curvature-scaled barrier step (e < 0) and the emergency shed
 * (e >= 0, the in-round power-capping safety action) — and selects
 * with one comparison.  Both candidates are finite for any finite
 * input (the barrier term is evaluated at e clamped to
 * -kBarrierFloor), so the selection maps 1:1 onto a SIMD blend and
 * the AVX2/AVX-512F twins in round_kernel.cc are bitwise identical
 * to the scalar path lane for lane: vaddpd/vmulpd/vdivpd/vminpd/
 * vmaxpd are IEEE-754 correctly rounded exactly like their scalar
 * counterparts, and no FMA contraction is emitted (dpc_alloc and
 * its consumers compile with -ffp-contract=off; see
 * src/alloc/CMakeLists.txt).
 *
 * stepBlockQuad() steps a contiguous block of nodes whose
 * post-diffusion estimates are already in e[]: plain elementwise
 * arrays in, dp applied in place, per-block max |dp| out.  The
 * restrict-qualified pointers promise the compiler the seven
 * streams never alias, which is what lets GCC vectorize the scalar
 * body.  It runs the widest twin the CPU supports, picked once per
 * process from cpuid; the scalar body and the per-node primitives
 * stay inline here for the sparse engine and ReplicaBatch.
 */

#ifndef DPC_ALLOC_ROUND_KERNEL_HH
#define DPC_ALLOC_ROUND_KERNEL_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#if defined(_MSC_VER)
#define DPC_RESTRICT __restrict
#else
#define DPC_RESTRICT __restrict__
#endif

namespace dpc {

/** Numerical floor keeping the barrier defined in transients. */
inline constexpr double kBarrierFloor = 1e-9;

/**
 * Target slack restored by an emergency shed: a node holding
 * non-negative debt drops its cap until e_i <= -kShedFloor (box
 * permitting).
 */
inline constexpr double kShedFloor = 1e-2;

/** Division guard for the curvature denominator. */
inline constexpr double kCurvFloor = 1e-12;

/**
 * The hot-loop subset of DibaAllocator::Config, flattened so the
 * kernels depend on nine doubles instead of the allocator header.
 */
struct RoundKernelParams
{
    double damping = 0.65;
    double max_move = 4.0;
    double barrier_keep = 0.1;
    double anneal_gate = 0.05;
    double reheat_gate = 1.0;
    double eta_floor = 0.004;
    double eta_initial = 0.08;
    double eta_decay = 0.93;
    double eta_reheat = 1.02;
};

/**
 * Power-capping safety action inside the local controller: with
 * e >= 0 the barrier is undefined and the quasi-Newton step
 * degenerates to an O(kBarrierFloor) move, so shed directly down
 * to -kShedFloor instead.  Debt parked on floor-clamped nodes can
 * reach a node with headroom only via diffusion (one hop per
 * round); this absorbs it the moment it arrives.
 */
inline double
emergencyShedStep(double &p, double &e, double p_min)
{
    const double want = e + kShedFloor;
    const double can = p - p_min;
    const double shed = std::max(0.0, std::min(want, can));
    p -= shed;
    e -= shed;
    return -shed;
}

/**
 * The emergency shed's stop rule, shared by every engine that sheds
 * (DibaAllocator::emergencyShed, ReplicaBatch::shedLane).
 *
 * `pass(diffuse)` runs one pass over the live nodes and returns the
 * remaining excess sum max(0, e_i + kShedFloor).  The pass applies
 * emergencyShedStep to every node over the line; with `diffuse` it
 * first runs one Metropolis exchange.  After a pass, every node
 * still over the line sits at its power floor, so leftover debt
 * must travel by diffusion, one hop per exchange.
 *
 * Averaging never increases the positive part and shedding strictly
 * removes whatever reaches a node with headroom, so the excess is
 * monotone non-increasing.  Passes continue while it shrinks.  Once
 * it stalls (within 0.1%) for kStallLimit passes, the rest is pinned
 * debt no exchange can move (an over-floored partition), and the
 * shed stops.  `num_nodes` sizes a hard cap on the pass count.  The
 * loop always ends on a shed, never on a bare diffusion, so every
 * node with headroom leaves holding e_i <= -kShedFloor.
 */
template <class Pass>
void
runEmergencyShed(std::size_t num_nodes, Pass &&pass)
{
    constexpr int kStallLimit = 8;
    const int hard_cap =
        64 + 8 * static_cast<int>(std::min<std::size_t>(num_nodes, 4096));
    double over = pass(false);
    double prev_over = std::numeric_limits<double>::infinity();
    int stalled = 0;
    for (int round = 0; round < hard_cap; ++round) {
        if (over == 0.0)
            return;
        stalled = over > 0.999 * prev_over ? stalled + 1 : 0;
        if (stalled >= kStallLimit)
            return;
        prev_over = over;
        over = pass(true);
    }
}

/**
 * Fused barrier-gradient / emergency-shed step for one quadratic
 * node: gradient b + 2cp + eta/e, exact curvature 2|c| plus the
 * barrier term, backtracking into the action space (per-round move
 * limit, keep e strictly negative, stay in the [lo, hi] box); when
 * e >= 0 the returned move is the emergency shed instead.  Returns
 * dp; the caller applies p += dp, e += dp.
 */
inline double
quadNodeDp(double p, double e, double eta, double b, double c,
           double lo, double hi, const RoundKernelParams &k)
{
    // Barrier-gradient candidate (one reciprocal serves both
    // barrier terms).
    const double e_eff = std::min(e, -kBarrierFloor);
    const double inv = 1.0 / e_eff;
    const double grad = b + 2.0 * c * p + eta * inv;
    const double curv = eta * inv * inv + 2.0 * std::fabs(c);
    double dp = k.damping * grad / std::max(curv, kCurvFloor);
    dp = std::clamp(dp, -k.max_move, k.max_move);
    if (dp > 0.0)
        dp = std::min(dp, (k.barrier_keep - 1.0) * e);
    dp = std::clamp(dp, lo - p, hi - p);

    // Emergency-shed candidate; select branchlessly so the block
    // kernels can blend.
    const double want = e + kShedFloor;
    const double can = p - lo;
    const double shed = std::max(0.0, std::min(want, can));
    return e >= 0.0 ? -shed : dp;
}

/**
 * Post-step annealing decision: a locally quiescent node tightens
 * its barrier toward the floor, a node still transporting power
 * re-widens it (up to the initial weight).
 */
inline double
annealEta(double eta, double moved, const RoundKernelParams &k)
{
    if (moved < k.anneal_gate)
        return std::max(k.eta_floor, eta * k.eta_decay);
    if (moved > k.reheat_gate)
        return std::min(k.eta_initial, eta * k.eta_reheat);
    return eta;
}

/**
 * Scalar block step: e[] holds the post-diffusion estimates on
 * entry; p/e are updated in place, eta annealed, and the max |dp|
 * over the block returned.  The streams must not alias.
 */
inline double
stepBlockQuadScalar(std::size_t m, double *DPC_RESTRICT p,
                    double *DPC_RESTRICT e,
                    double *DPC_RESTRICT eta,
                    const double *DPC_RESTRICT b,
                    const double *DPC_RESTRICT c,
                    const double *DPC_RESTRICT lo,
                    const double *DPC_RESTRICT hi,
                    const RoundKernelParams &k)
{
    double max_dp = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double dp =
            quadNodeDp(p[i], e[i], eta[i], b[i], c[i], lo[i],
                       hi[i], k);
        p[i] += dp;
        e[i] += dp;
        const double moved = std::fabs(dp);
        max_dp = std::max(max_dp, moved);
        eta[i] = annealEta(eta[i], moved, k);
    }
    return max_dp;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/** 1 where round_kernel.cc compiles the AVX2/AVX-512F twins. */
#define DPC_ROUND_KERNEL_X86 1

/**
 * 4-wide AVX2 block step, bitwise identical to stepBlockQuadScalar
 * (round_kernel.cc).  Callable only where the CPU has AVX2.
 */
double stepBlockQuadAvx2(std::size_t m, double *DPC_RESTRICT p,
                         double *DPC_RESTRICT e,
                         double *DPC_RESTRICT eta,
                         const double *DPC_RESTRICT b,
                         const double *DPC_RESTRICT c,
                         const double *DPC_RESTRICT lo,
                         const double *DPC_RESTRICT hi,
                         const RoundKernelParams &k);

/**
 * 8-wide AVX-512F block step, bitwise identical to
 * stepBlockQuadScalar (round_kernel.cc).  Callable only where the
 * CPU has AVX-512F.
 */
double stepBlockQuadAvx512(std::size_t m, double *DPC_RESTRICT p,
                           double *DPC_RESTRICT e,
                           double *DPC_RESTRICT eta,
                           const double *DPC_RESTRICT b,
                           const double *DPC_RESTRICT c,
                           const double *DPC_RESTRICT lo,
                           const double *DPC_RESTRICT hi,
                           const RoundKernelParams &k);
#else
#define DPC_ROUND_KERNEL_X86 0
#endif

/**
 * Block step dispatch: the widest twin the CPU supports (AVX-512F,
 * then AVX2, then the auto-vectorizable scalar body), chosen once
 * per process from cpuid.  All three are pinned bitwise-identical
 * by the kernel parity tests, so the choice is pure speed.
 */
double stepBlockQuad(std::size_t m, double *DPC_RESTRICT p,
                     double *DPC_RESTRICT e, double *DPC_RESTRICT eta,
                     const double *DPC_RESTRICT b,
                     const double *DPC_RESTRICT c,
                     const double *DPC_RESTRICT lo,
                     const double *DPC_RESTRICT hi,
                     const RoundKernelParams &k);

/** The body stepBlockQuad runs in this process: "avx512f", "avx2"
 * or "scalar". */
const char *roundKernelName();

} // namespace dpc

#endif // DPC_ALLOC_ROUND_KERNEL_HH
