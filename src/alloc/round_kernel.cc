/**
 * @file
 * The SIMD twins of the block round kernel and the cpuid dispatch
 * behind stepBlockQuad (round_kernel.hh).
 *
 * Each twin is compiled for its own ISA with a target attribute, so
 * the library as a whole stays baseline x86-64 and the widest body
 * the CPU can execute is chosen at run time, once per process.
 * Both twins are bitwise identical to stepBlockQuadScalar: every
 * vector op is the correctly rounded IEEE operation of its scalar
 * counterpart (vaddpd/vmulpd/vdivpd/vminpd/vmaxpd), selections are
 * blends on full-lane compare masks, and the scalar tail each twin
 * runs is the inline scalar body itself.  AVX-512F brings EVEX FMA
 * with it, so this file (with the rest of dpc_alloc) is compiled
 * with -ffp-contract=off: a contracted a*b+c in either the vector
 * body or the inlined scalar tail would break the pin.
 */

#include "alloc/round_kernel.hh"

#if DPC_ROUND_KERNEL_X86
#include <immintrin.h>
#endif

namespace dpc {

#if DPC_ROUND_KERNEL_X86

/** 4-wide AVX2 twin; |x| is an and with the sign-clearing mask. */
__attribute__((target("avx2"))) double
stepBlockQuadAvx2(std::size_t m, double *DPC_RESTRICT p,
                  double *DPC_RESTRICT e, double *DPC_RESTRICT eta,
                  const double *DPC_RESTRICT b,
                  const double *DPC_RESTRICT c,
                  const double *DPC_RESTRICT lo,
                  const double *DPC_RESTRICT hi,
                  const RoundKernelParams &k)
{
    const __m256d vzero = _mm256_setzero_pd();
    const __m256d vbar = _mm256_set1_pd(-kBarrierFloor);
    const __m256d vcurvf = _mm256_set1_pd(kCurvFloor);
    const __m256d vdamp = _mm256_set1_pd(k.damping);
    const __m256d vmove = _mm256_set1_pd(k.max_move);
    const __m256d vnmove = _mm256_set1_pd(-k.max_move);
    const __m256d vkeep = _mm256_set1_pd(k.barrier_keep - 1.0);
    const __m256d vshed = _mm256_set1_pd(kShedFloor);
    const __m256d vgate = _mm256_set1_pd(k.anneal_gate);
    const __m256d vreheat = _mm256_set1_pd(k.reheat_gate);
    const __m256d vefloor = _mm256_set1_pd(k.eta_floor);
    const __m256d veinit = _mm256_set1_pd(k.eta_initial);
    const __m256d vdecay = _mm256_set1_pd(k.eta_decay);
    const __m256d vwiden = _mm256_set1_pd(k.eta_reheat);
    const __m256d vtwo = _mm256_set1_pd(2.0);
    const __m256d vabsmask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));

    __m256d vmax_dp = vzero;
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        const __m256d vp = _mm256_loadu_pd(p + i);
        const __m256d ve = _mm256_loadu_pd(e + i);
        const __m256d veta = _mm256_loadu_pd(eta + i);
        const __m256d vb = _mm256_loadu_pd(b + i);
        const __m256d vc = _mm256_loadu_pd(c + i);
        const __m256d vlo = _mm256_loadu_pd(lo + i);
        const __m256d vhi = _mm256_loadu_pd(hi + i);

        // Barrier-gradient candidate.
        const __m256d e_eff = _mm256_min_pd(ve, vbar);
        const __m256d inv =
            _mm256_div_pd(_mm256_set1_pd(1.0), e_eff);
        const __m256d grad = _mm256_add_pd(
            _mm256_add_pd(vb, _mm256_mul_pd(
                                  _mm256_mul_pd(vtwo, vc), vp)),
            _mm256_mul_pd(veta, inv));
        // (eta * inv) * inv, matching the scalar association
        // exactly (FP multiplication is not associative).
        const __m256d curv = _mm256_add_pd(
            _mm256_mul_pd(_mm256_mul_pd(veta, inv), inv),
            _mm256_mul_pd(vtwo, _mm256_and_pd(vc, vabsmask)));
        __m256d dp = _mm256_div_pd(_mm256_mul_pd(vdamp, grad),
                                   _mm256_max_pd(curv, vcurvf));
        // std::clamp(dp, -max_move, max_move) == min(max(dp, lo'),
        // hi') for finite dp.
        dp = _mm256_min_pd(_mm256_max_pd(dp, vnmove), vmove);
        const __m256d pos =
            _mm256_cmp_pd(dp, vzero, _CMP_GT_OQ);
        dp = _mm256_blendv_pd(
            dp, _mm256_min_pd(dp, _mm256_mul_pd(vkeep, ve)), pos);
        dp = _mm256_min_pd(_mm256_max_pd(dp, _mm256_sub_pd(vlo, vp)),
                           _mm256_sub_pd(vhi, vp));

        // Emergency-shed candidate and selection.
        const __m256d want = _mm256_add_pd(ve, vshed);
        const __m256d can = _mm256_sub_pd(vp, vlo);
        const __m256d shed =
            _mm256_max_pd(vzero, _mm256_min_pd(want, can));
        const __m256d over =
            _mm256_cmp_pd(ve, vzero, _CMP_GE_OQ);
        dp = _mm256_blendv_pd(dp, _mm256_sub_pd(vzero, shed), over);

        _mm256_storeu_pd(p + i, _mm256_add_pd(vp, dp));
        _mm256_storeu_pd(e + i, _mm256_add_pd(ve, dp));

        const __m256d moved = _mm256_and_pd(dp, vabsmask);
        vmax_dp = _mm256_max_pd(vmax_dp, moved);

        // annealEta, blended: quiescent lanes decay toward the
        // floor, hot lanes re-widen toward the initial weight.
        const __m256d decayed = _mm256_max_pd(
            vefloor, _mm256_mul_pd(veta, vdecay));
        const __m256d widened = _mm256_min_pd(
            veinit, _mm256_mul_pd(veta, vwiden));
        const __m256d quiet =
            _mm256_cmp_pd(moved, vgate, _CMP_LT_OQ);
        const __m256d hot =
            _mm256_cmp_pd(moved, vreheat, _CMP_GT_OQ);
        __m256d eta_out = _mm256_blendv_pd(veta, widened, hot);
        eta_out = _mm256_blendv_pd(eta_out, decayed, quiet);
        _mm256_storeu_pd(eta + i, eta_out);
    }

    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vmax_dp);
    double max_dp = std::max(std::max(lanes[0], lanes[1]),
                             std::max(lanes[2], lanes[3]));
    if (i < m) {
        max_dp = std::max(
            max_dp, stepBlockQuadScalar(m - i, p + i, e + i,
                                        eta + i, b + i, c + i,
                                        lo + i, hi + i, k));
    }
    return max_dp;
}

// GCC 12 reports a false-positive -Wmaybe-uninitialized from the
// _mm512_min_pd/_mm512_max_pd wrappers in avx512fintrin.h (their
// undefined passthrough operand); confine the suppression to this
// twin.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/**
 * 8-wide AVX-512F twin.  |x| uses _mm512_abs_pd, which is pure
 * AVX-512F (the and-with-mask form needs the DQ extension); the DQ,
 * BW and VL extensions are never used.
 */
__attribute__((target("avx512f"))) double
stepBlockQuadAvx512(std::size_t m, double *DPC_RESTRICT p,
                    double *DPC_RESTRICT e,
                    double *DPC_RESTRICT eta,
                    const double *DPC_RESTRICT b,
                    const double *DPC_RESTRICT c,
                    const double *DPC_RESTRICT lo,
                    const double *DPC_RESTRICT hi,
                    const RoundKernelParams &k)
{
    const __m512d vzero = _mm512_setzero_pd();
    const __m512d vbar = _mm512_set1_pd(-kBarrierFloor);
    const __m512d vcurvf = _mm512_set1_pd(kCurvFloor);
    const __m512d vdamp = _mm512_set1_pd(k.damping);
    const __m512d vmove = _mm512_set1_pd(k.max_move);
    const __m512d vnmove = _mm512_set1_pd(-k.max_move);
    const __m512d vkeep = _mm512_set1_pd(k.barrier_keep - 1.0);
    const __m512d vshed = _mm512_set1_pd(kShedFloor);
    const __m512d vgate = _mm512_set1_pd(k.anneal_gate);
    const __m512d vreheat = _mm512_set1_pd(k.reheat_gate);
    const __m512d vefloor = _mm512_set1_pd(k.eta_floor);
    const __m512d veinit = _mm512_set1_pd(k.eta_initial);
    const __m512d vdecay = _mm512_set1_pd(k.eta_decay);
    const __m512d vwiden = _mm512_set1_pd(k.eta_reheat);
    const __m512d vtwo = _mm512_set1_pd(2.0);

    __m512d vmax_dp = vzero;
    std::size_t i = 0;
    for (; i + 8 <= m; i += 8) {
        const __m512d vp = _mm512_loadu_pd(p + i);
        const __m512d ve = _mm512_loadu_pd(e + i);
        const __m512d veta = _mm512_loadu_pd(eta + i);
        const __m512d vb = _mm512_loadu_pd(b + i);
        const __m512d vc = _mm512_loadu_pd(c + i);
        const __m512d vlo = _mm512_loadu_pd(lo + i);
        const __m512d vhi = _mm512_loadu_pd(hi + i);

        // Barrier-gradient candidate.
        const __m512d e_eff = _mm512_min_pd(ve, vbar);
        const __m512d inv =
            _mm512_div_pd(_mm512_set1_pd(1.0), e_eff);
        const __m512d grad = _mm512_add_pd(
            _mm512_add_pd(vb, _mm512_mul_pd(
                                  _mm512_mul_pd(vtwo, vc), vp)),
            _mm512_mul_pd(veta, inv));
        // (eta * inv) * inv, matching the scalar association
        // exactly (FP multiplication is not associative).
        const __m512d curv = _mm512_add_pd(
            _mm512_mul_pd(_mm512_mul_pd(veta, inv), inv),
            _mm512_mul_pd(vtwo, _mm512_abs_pd(vc)));
        __m512d dp = _mm512_div_pd(_mm512_mul_pd(vdamp, grad),
                                   _mm512_max_pd(curv, vcurvf));
        // std::clamp(dp, -max_move, max_move) == min(max(dp, lo'),
        // hi') for finite dp.
        dp = _mm512_min_pd(_mm512_max_pd(dp, vnmove), vmove);
        const __mmask8 pos =
            _mm512_cmp_pd_mask(dp, vzero, _CMP_GT_OQ);
        dp = _mm512_mask_blend_pd(
            pos, dp, _mm512_min_pd(dp, _mm512_mul_pd(vkeep, ve)));
        dp = _mm512_min_pd(_mm512_max_pd(dp, _mm512_sub_pd(vlo, vp)),
                           _mm512_sub_pd(vhi, vp));

        // Emergency-shed candidate and selection.
        const __m512d want = _mm512_add_pd(ve, vshed);
        const __m512d can = _mm512_sub_pd(vp, vlo);
        const __m512d shed =
            _mm512_max_pd(vzero, _mm512_min_pd(want, can));
        const __mmask8 over =
            _mm512_cmp_pd_mask(ve, vzero, _CMP_GE_OQ);
        dp = _mm512_mask_blend_pd(over, dp,
                                  _mm512_sub_pd(vzero, shed));

        _mm512_storeu_pd(p + i, _mm512_add_pd(vp, dp));
        _mm512_storeu_pd(e + i, _mm512_add_pd(ve, dp));

        const __m512d moved = _mm512_abs_pd(dp);
        vmax_dp = _mm512_max_pd(vmax_dp, moved);

        // annealEta, blended: quiescent lanes decay toward the
        // floor, hot lanes re-widen toward the initial weight.
        const __m512d decayed = _mm512_max_pd(
            vefloor, _mm512_mul_pd(veta, vdecay));
        const __m512d widened = _mm512_min_pd(
            veinit, _mm512_mul_pd(veta, vwiden));
        const __mmask8 quiet =
            _mm512_cmp_pd_mask(moved, vgate, _CMP_LT_OQ);
        const __mmask8 hot =
            _mm512_cmp_pd_mask(moved, vreheat, _CMP_GT_OQ);
        __m512d eta_out = _mm512_mask_blend_pd(hot, veta, widened);
        eta_out = _mm512_mask_blend_pd(quiet, eta_out, decayed);
        _mm512_storeu_pd(eta + i, eta_out);
    }

    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, vmax_dp);
    double max_dp = std::max(
        std::max(std::max(lanes[0], lanes[1]),
                 std::max(lanes[2], lanes[3])),
        std::max(std::max(lanes[4], lanes[5]),
                 std::max(lanes[6], lanes[7])));
    if (i < m) {
        max_dp = std::max(
            max_dp, stepBlockQuadScalar(m - i, p + i, e + i,
                                        eta + i, b + i, c + i,
                                        lo + i, hi + i, k));
    }
    return max_dp;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // DPC_ROUND_KERNEL_X86

namespace {

using BlockKernel = decltype(&stepBlockQuadScalar);

struct KernelChoice
{
    BlockKernel fn;
    const char *name;
};

KernelChoice
detectKernel()
{
#if DPC_ROUND_KERNEL_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return {stepBlockQuadAvx512, "avx512f"};
    if (__builtin_cpu_supports("avx2"))
        return {stepBlockQuadAvx2, "avx2"};
#endif
    return {stepBlockQuadScalar, "scalar"};
}

const KernelChoice &
kernelChoice()
{
    static const KernelChoice choice = detectKernel();
    return choice;
}

} // namespace

double
stepBlockQuad(std::size_t m, double *DPC_RESTRICT p,
              double *DPC_RESTRICT e, double *DPC_RESTRICT eta,
              const double *DPC_RESTRICT b,
              const double *DPC_RESTRICT c,
              const double *DPC_RESTRICT lo,
              const double *DPC_RESTRICT hi,
              const RoundKernelParams &k)
{
    return kernelChoice().fn(m, p, e, eta, b, c, lo, hi, k);
}

const char *
roundKernelName()
{
    return kernelChoice().name;
}

} // namespace dpc
