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
 *
 * gatherDense() is the round's other half, the dense Metropolis
 * exchange.  Its scalar body is the CSR loop; its twins walk a
 * sliced-ELL copy of the overlay (SellOverlay) so eight rows share
 * one vector gather per neighbour column and no row branches on its
 * own degree.  The same cpuid choice picks its body.
 */

#ifndef DPC_ALLOC_ROUND_KERNEL_HH
#define DPC_ALLOC_ROUND_KERNEL_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hh"

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
 * The largest single excess at which the emergency shed stops:
 * every live node then holds e_i <= -kShedFloor / 2 < 0, inside the
 * barrier's domain.
 */
inline constexpr double kShedSafeExcess = 0.5 * kShedFloor;

/**
 * What one emergency-shed pass leaves over the live nodes: the
 * excess max(0, e_i + kShedFloor) summed, and its largest term.
 */
struct ShedExcess
{
    double sum = 0.0;
    double max = 0.0;
};

/** Why an emergency shed stopped. */
enum class ShedEnd
{
    none,  ///< no shed has run
    safe,  ///< every live node at e_i <= -kShedFloor / 2
    stall, ///< the summed excess stopped shrinking (pinned debt)
    cap,   ///< the hard pass cap ran out
};

/** An emergency shed's pass count (the first, diffusion-free pass
 * included) and how it ended. */
struct ShedOutcome
{
    int passes = 0;
    ShedEnd end = ShedEnd::none;
};

/**
 * The emergency shed's stop rule, shared by every engine that sheds
 * (DibaAllocator::emergencyShed, ReplicaBatch::shedLane).
 *
 * `pass(diffuse)` runs one pass over the live nodes and returns the
 * ShedExcess it leaves.  The pass applies emergencyShedStep to
 * every node over the line; with `diffuse` it first runs one
 * Metropolis exchange.  After a pass, every node still over the
 * line sits at its power floor, so leftover debt must travel by
 * diffusion, one hop per exchange.
 *
 * The shed stops on safety: once the largest excess is at most
 * kShedSafeExcess, every live node holds e_i <= -kShedFloor / 2, so
 * the barrier is defined everywhere and, with sum(e) = sum(p) - P,
 * sum(p) <= P - n * kShedFloor / 2.  Driving the excess on to zero
 * buys no further safety.  The max is order-free, so layout and
 * thread count cannot move the decision.
 *
 * Averaging never increases the positive part and shedding strictly
 * removes whatever reaches a node with headroom, so the summed
 * excess is monotone non-increasing.  Once it stalls (within 0.1%)
 * for kStallLimit passes, the rest is pinned debt no exchange can
 * move (an over-floored partition), and the shed stops there
 * instead.  `num_nodes` sizes a hard cap on the pass count.  The
 * loop always ends on a shed, never on a bare diffusion, so every
 * node with headroom leaves holding e_i <= -kShedFloor.
 */
template <class Pass>
ShedOutcome
runEmergencyShed(std::size_t num_nodes, Pass &&pass)
{
    constexpr int kStallLimit = 8;
    const int hard_cap =
        64 + 8 * static_cast<int>(std::min<std::size_t>(num_nodes, 4096));
    ShedExcess over = pass(false);
    ShedOutcome out{1, ShedEnd::cap};
    double prev_sum = std::numeric_limits<double>::infinity();
    int stalled = 0;
    for (;;) {
        if (over.max <= kShedSafeExcess) {
            out.end = ShedEnd::safe;
            return out;
        }
        stalled = over.sum > 0.999 * prev_sum ? stalled + 1 : 0;
        if (stalled >= kStallLimit) {
            out.end = ShedEnd::stall;
            return out;
        }
        if (out.passes > hard_cap)
            return out;
        prev_sum = over.sum;
        over = pass(true);
        ++out.passes;
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

/**
 * Sliced-ELL (SELL-8, Kreutzer et al., SISC 2014) copy of a CSR
 * overlay and its per-slot weights, built once per topology.
 *
 * Slice s holds rows 8s..8s+7, stored column-major: cell
 * slice_off[s] + 8k + r is row 8s+r's k-th CSR neighbour and its
 * weight.  Only full slices are stored; the last n % 8 rows have
 * none and the gathers run them through the CSR body.  A row
 * shorter than its slice's width is padded with cells pointing at
 * the row itself with weight +0.0: the padded term is
 * +0.0 * (x - x) = +0.0, and adding +0.0 leaves an accumulator that
 * started at +0.0 unchanged (such an accumulator is never -0.0), so
 * every lane runs the CSR body's exact IEEE operation sequence.
 * Under a deadband the padded gap of 0 is always inside the gate.
 *
 * Hub spill.  A slice's width is not its largest degree: a star's
 * hub would widen its slice to n - 1 columns of mostly padding.  A
 * slice is as wide as its second-largest degree, narrowed further
 * if its cells (8 per column plus the spill below) would exceed
 * twice its CSR slots.  A row's columns past the width spill, in
 * CSR order, into the slice's scalar tail (spill_*), which
 * continues the row's accumulator after the vector columns.  So
 * cells() <= 2x the CSR slots on any graph.
 *
 * Node ids index a signed 32-bit gather, so n must stay below 2^31.
 */
struct SellOverlay
{
    /** Rows per slice: one AVX-512 vector of doubles. */
    static constexpr std::size_t kSlice = 8;

    SellOverlay() = default;

    /** Copy of `g` with slot weights `w` (one per CSR slot). */
    SellOverlay(const GraphCsr &g, const double *w);

    /** Full slices stored (n / kSlice). */
    std::size_t numSlices() const
    {
        return slice_off.empty() ? 0 : slice_off.size() - 1;
    }

    /** Cells a full gather visits: the vector columns, padding
     * included, plus the spilled tail. */
    std::size_t cells() const { return col.size() + spill_col.size(); }

    /** Cell offset of each slice, size numSlices() + 1; slice s is
     * (slice_off[s + 1] - slice_off[s]) / kSlice columns wide. */
    std::vector<std::uint32_t> slice_off;
    /** Neighbour id and weight per cell, column-major per slice. */
    std::vector<std::uint32_t> col;
    std::vector<double> w;
    /** Spill entries of slice s: [spill_off[s], spill_off[s + 1]),
     * in row-then-CSR order. */
    std::vector<std::uint32_t> spill_off;
    /** Row within the slice (0..kSlice-1), neighbour id and weight
     * per spill entry. */
    std::vector<std::uint32_t> spill_row;
    std::vector<std::uint32_t> spill_col;
    std::vector<double> spill_w;
};

/**
 * Dense Metropolis gather over nodes [b0, b1) with every node active
 * and every link live, so no participation checks: e[i] becomes
 * snap[i] plus the weighted gaps to its neighbours' snapshots, w[k]
 * being CSR slot k's weight.  With a positive deadband, a transfer
 * inside the relative gap gate is suppressed.  The IEEE operation
 * sequence is DibaAllocator::diffuseRange's on an unmasked overlay,
 * so either gather yields the same bits.
 *
 * This is the CSR body, the reference the SIMD twins are pinned to.
 * Every gather body shares this signature; this one ignores the
 * SELL copy, and the twins use the CSR for rows outside full slices.
 */
inline void
gatherDenseScalar(const GraphCsr &g, const double *DPC_RESTRICT w,
                  const SellOverlay & /*sell*/,
                  const double *DPC_RESTRICT snap,
                  double *DPC_RESTRICT e, double deadband,
                  std::size_t b0, std::size_t b1)
{
    const std::uint32_t *DPC_RESTRICT offs = g.offsets.data();
    const std::uint32_t *DPC_RESTRICT nbr = g.neighbors.data();
    if (deadband > 0.0) {
        for (std::size_t i = b0; i < b1; ++i) {
            const double ei = snap[i];
            double acc = 0.0;
            const std::uint32_t khi = offs[i + 1];
            for (std::uint32_t k = offs[i]; k < khi; ++k) {
                const double ej = snap[nbr[k]];
                const double gap = ej - ei;
                const double gate =
                    deadband * std::max(std::fabs(ei), std::fabs(ej));
                if (std::fabs(gap) <= gate)
                    continue;
                acc += w[k] * gap;
            }
            e[i] = ei + acc;
        }
    } else {
        for (std::size_t i = b0; i < b1; ++i) {
            const double ei = snap[i];
            double acc = 0.0;
            const std::uint32_t khi = offs[i + 1];
            for (std::uint32_t k = offs[i]; k < khi; ++k)
                acc += w[k] * (snap[nbr[k]] - ei);
            e[i] = ei + acc;
        }
    }
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

/**
 * Dense gather over the SELL copy, each slice as two 4-wide AVX2
 * gathers per column; bitwise identical to gatherDenseScalar.
 * Callable only where the CPU has AVX2.
 */
void gatherDenseAvx2(const GraphCsr &g, const double *DPC_RESTRICT w,
                     const SellOverlay &sell,
                     const double *DPC_RESTRICT snap,
                     double *DPC_RESTRICT e, double deadband,
                     std::size_t b0, std::size_t b1);

/**
 * Dense gather over the SELL copy, one 8-wide AVX-512F gather per
 * slice column; bitwise identical to gatherDenseScalar.  Callable
 * only where the CPU has AVX-512F.
 */
void gatherDenseAvx512(const GraphCsr &g, const double *DPC_RESTRICT w,
                       const SellOverlay &sell,
                       const double *DPC_RESTRICT snap,
                       double *DPC_RESTRICT e, double deadband,
                       std::size_t b0, std::size_t b1);
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

/**
 * Dense gather dispatch, the same cpuid choice as stepBlockQuad:
 * the AVX-512F or AVX2 twin over `sell`, else the CSR body.  `sell`
 * must be SellOverlay(g, w).
 */
void gatherDense(const GraphCsr &g, const double *DPC_RESTRICT w,
                 const SellOverlay &sell,
                 const double *DPC_RESTRICT snap,
                 double *DPC_RESTRICT e, double deadband,
                 std::size_t b0, std::size_t b1);

/** The body stepBlockQuad and gatherDense run in this process:
 * "avx512f", "avx2" or "scalar". */
const char *roundKernelName();

} // namespace dpc

#endif // DPC_ALLOC_ROUND_KERNEL_HH
