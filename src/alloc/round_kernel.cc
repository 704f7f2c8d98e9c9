/**
 * @file
 * The SIMD twins of the block round kernel and of the dense gather,
 * the SELL overlay build, and the cpuid dispatch behind
 * stepBlockQuad and gatherDense (round_kernel.hh).
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
 * body or the inlined scalar tail would break the pin.  The gather
 * twins keep the CSR body's per-row order: one column after the
 * other, then the row's spilled tail, then e = snap + acc.
 */

#include "alloc/round_kernel.hh"

#if DPC_ROUND_KERNEL_X86
#include <immintrin.h>
#endif

namespace dpc {

namespace {

/**
 * Width of the slice starting at row i0: its second-largest degree,
 * so a single long row spills instead of widening all eight (a
 * column costs about what one spilled cell adds to its row's chain,
 * and a column serving one row wastes seven lanes), narrowed until
 * the cells (kSlice per column, plus each row's columns past the
 * width) stay within twice the slice's CSR slots.  Cells never
 * shrink as the width grows, and width = min degree costs exactly
 * the CSR slots, so the search always ends.
 */
std::size_t
sliceWidth(const GraphCsr &g, std::size_t i0)
{
    constexpr std::size_t S = SellOverlay::kSlice;
    std::size_t slots = 0, top = 0, second = 0;
    for (std::size_t r = 0; r < S; ++r) {
        const std::size_t d = g.degree(i0 + r);
        slots += d;
        second = std::max(second, std::min(top, d));
        top = std::max(top, d);
    }
    for (std::size_t width = second;; --width) {
        std::size_t cells = S * width;
        for (std::size_t r = 0; r < S; ++r)
            cells += g.degree(i0 + r) -
                     std::min<std::size_t>(width, g.degree(i0 + r));
        if (cells <= 2 * slots || width == 0)
            return width;
    }
}

/**
 * Slice s's spilled tail: continues row r's accumulator lanes[r]
 * with its CSR columns past the slice width, in CSR order, with the
 * CSR body's arithmetic.  Each row's run accumulates in a register,
 * so a hub's long chain does not round-trip through lanes[].
 */
inline void
spillSlice(const SellOverlay &sell, std::size_t s,
           const double *DPC_RESTRICT snap, double *lanes,
           double deadband)
{
    const std::size_t i0 = s * SellOverlay::kSlice;
    const std::uint32_t qend = sell.spill_off[s + 1];
    for (std::uint32_t q = sell.spill_off[s]; q < qend;) {
        const std::uint32_t r = sell.spill_row[q];
        const double ei = snap[i0 + r];
        double acc = lanes[r];
        for (; q < qend && sell.spill_row[q] == r; ++q) {
            const double ej = snap[sell.spill_col[q]];
            const double gap = ej - ei;
            if (deadband > 0.0) {
                const double gate =
                    deadband * std::max(std::fabs(ei), std::fabs(ej));
                if (std::fabs(gap) <= gate)
                    continue;
            }
            acc += sell.spill_w[q] * gap;
        }
        lanes[r] = acc;
    }
}

/** A twin's loop over full slices [s0, s1). */
using SliceBody = void (*)(const SellOverlay &, const double *, double *,
                           double, std::size_t, std::size_t);

/**
 * Rows [b0, b1): the full slices inside through `slices`, the rows
 * outside them (a chunk edge off a multiple of kSlice, the last
 * n % kSlice rows) through the CSR body.
 */
inline void
gatherBySlices(SliceBody slices, const GraphCsr &g,
               const double *DPC_RESTRICT w, const SellOverlay &sell,
               const double *DPC_RESTRICT snap, double *DPC_RESTRICT e,
               double deadband, std::size_t b0, std::size_t b1)
{
    constexpr std::size_t S = SellOverlay::kSlice;
    const std::size_t s0 = (b0 + S - 1) / S;
    const std::size_t s1 = std::min(b1 / S, sell.numSlices());
    if (s0 >= s1) {
        gatherDenseScalar(g, w, sell, snap, e, deadband, b0, b1);
        return;
    }
    gatherDenseScalar(g, w, sell, snap, e, deadband, b0, s0 * S);
    slices(sell, snap, e, deadband, s0, s1);
    gatherDenseScalar(g, w, sell, snap, e, deadband, s1 * S, b1);
}

} // namespace

SellOverlay::SellOverlay(const GraphCsr &g, const double *wts)
{
    constexpr std::size_t S = kSlice;
    const std::size_t n = g.offsets.empty() ? 0 : g.offsets.size() - 1;
    const std::size_t slices = n / S;
    // Sizes first, so every array is allocated once.
    slice_off.assign(slices + 1, 0);
    spill_off.assign(slices + 1, 0);
    for (std::size_t s = 0; s < slices; ++s) {
        const std::size_t width = sliceWidth(g, s * S);
        std::size_t spilled = 0;
        for (std::size_t i = s * S; i < (s + 1) * S; ++i)
            spilled += g.degree(i) - std::min<std::size_t>(width,
                                                           g.degree(i));
        slice_off[s + 1] =
            slice_off[s] + static_cast<std::uint32_t>(S * width);
        spill_off[s + 1] =
            spill_off[s] + static_cast<std::uint32_t>(spilled);
    }
    col.resize(slice_off.back());
    w.assign(slice_off.back(), 0.0);
    spill_row.resize(spill_off.back());
    spill_col.resize(spill_off.back());
    spill_w.resize(spill_off.back());
    for (std::size_t s = 0; s < slices; ++s) {
        const std::size_t width = (slice_off[s + 1] - slice_off[s]) / S;
        std::uint32_t q = spill_off[s];
        for (std::size_t r = 0; r < S; ++r) {
            const std::size_t i = s * S + r;
            const std::uint32_t k0 = g.offsets[i];
            const std::size_t deg = g.degree(i);
            for (std::size_t k = 0; k < width; ++k) {
                const std::size_t cell = slice_off[s] + k * S + r;
                if (k < deg) {
                    col[cell] = g.neighbors[k0 + k];
                    w[cell] = wts[k0 + k];
                } else {
                    col[cell] = static_cast<std::uint32_t>(i);
                }
            }
            for (std::size_t k = width; k < deg; ++k, ++q) {
                spill_row[q] = static_cast<std::uint32_t>(r);
                spill_col[q] = g.neighbors[k0 + k];
                spill_w[q] = wts[k0 + k];
            }
        }
    }
}

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

// GCC 12 reports false-positive -Wmaybe-uninitialized warnings from
// _mm256_i32gather_pd and _mm512_i32gather_pd (the undefined
// passthrough operand of their intrinsic wrappers); confine the
// suppression to the two gather twins.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/**
 * AVX2 slices [s0, s1): each slice as two 4-row halves, one gather
 * per half per column.  The deadband variant blends the add in
 * where |gap| > gate (NLE_UQ is the CSR body's !(|gap| <= gate)).
 */
template <bool kGated>
__attribute__((target("avx2"))) void
gatherSlicesAvx2(const SellOverlay &sell, const double *DPC_RESTRICT snap,
                 double *DPC_RESTRICT e, double deadband,
                 std::size_t s0, std::size_t s1)
{
    constexpr std::size_t S = SellOverlay::kSlice;
    const std::uint32_t *DPC_RESTRICT col = sell.col.data();
    const double *DPC_RESTRICT wts = sell.w.data();
    const __m256d vdb = _mm256_set1_pd(deadband);
    const __m256d vabsmask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    for (std::size_t s = s0; s < s1; ++s) {
        const std::size_t i0 = s * S;
        const __m256d ei_lo = _mm256_loadu_pd(snap + i0);
        const __m256d ei_hi = _mm256_loadu_pd(snap + i0 + 4);
        __m256d acc_lo = _mm256_setzero_pd();
        __m256d acc_hi = _mm256_setzero_pd();
        const std::uint32_t cend = sell.slice_off[s + 1];
        for (std::uint32_t c = sell.slice_off[s]; c < cend; c += S) {
            const __m128i idx_lo = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(col + c));
            const __m128i idx_hi = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(col + c + 4));
            const __m256d ej_lo = _mm256_i32gather_pd(snap, idx_lo, 8);
            const __m256d ej_hi = _mm256_i32gather_pd(snap, idx_hi, 8);
            const __m256d gap_lo = _mm256_sub_pd(ej_lo, ei_lo);
            const __m256d gap_hi = _mm256_sub_pd(ej_hi, ei_hi);
            const __m256d t_lo =
                _mm256_mul_pd(_mm256_loadu_pd(wts + c), gap_lo);
            const __m256d t_hi =
                _mm256_mul_pd(_mm256_loadu_pd(wts + c + 4), gap_hi);
            if constexpr (kGated) {
                // std::max(a, b) is b > a ? b : a, i.e. maxpd(b, a).
                const __m256d gate_lo = _mm256_mul_pd(
                    vdb, _mm256_max_pd(_mm256_and_pd(ej_lo, vabsmask),
                                       _mm256_and_pd(ei_lo, vabsmask)));
                const __m256d gate_hi = _mm256_mul_pd(
                    vdb, _mm256_max_pd(_mm256_and_pd(ej_hi, vabsmask),
                                       _mm256_and_pd(ei_hi, vabsmask)));
                const __m256d out_lo =
                    _mm256_cmp_pd(_mm256_and_pd(gap_lo, vabsmask),
                                  gate_lo, _CMP_NLE_UQ);
                const __m256d out_hi =
                    _mm256_cmp_pd(_mm256_and_pd(gap_hi, vabsmask),
                                  gate_hi, _CMP_NLE_UQ);
                acc_lo = _mm256_blendv_pd(
                    acc_lo, _mm256_add_pd(acc_lo, t_lo), out_lo);
                acc_hi = _mm256_blendv_pd(
                    acc_hi, _mm256_add_pd(acc_hi, t_hi), out_hi);
            } else {
                acc_lo = _mm256_add_pd(acc_lo, t_lo);
                acc_hi = _mm256_add_pd(acc_hi, t_hi);
            }
        }
        if (sell.spill_off[s] != sell.spill_off[s + 1]) {
            alignas(32) double lanes[S];
            _mm256_store_pd(lanes, acc_lo);
            _mm256_store_pd(lanes + 4, acc_hi);
            spillSlice(sell, s, snap, lanes, deadband);
            acc_lo = _mm256_load_pd(lanes);
            acc_hi = _mm256_load_pd(lanes + 4);
        }
        _mm256_storeu_pd(e + i0, _mm256_add_pd(ei_lo, acc_lo));
        _mm256_storeu_pd(e + i0 + 4, _mm256_add_pd(ei_hi, acc_hi));
    }
}

void
gatherDenseAvx2(const GraphCsr &g, const double *DPC_RESTRICT w,
                const SellOverlay &sell, const double *DPC_RESTRICT snap,
                double *DPC_RESTRICT e, double deadband, std::size_t b0,
                std::size_t b1)
{
    gatherBySlices(deadband > 0.0 ? gatherSlicesAvx2<true>
                                  : gatherSlicesAvx2<false>,
                   g, w, sell, snap, e, deadband, b0, b1);
}

/**
 * AVX-512F slices [s0, s1): one 8-wide gather per column.  The
 * deadband variant masks the add to the lanes with |gap| > gate.
 */
template <bool kGated>
__attribute__((target("avx512f"))) void
gatherSlicesAvx512(const SellOverlay &sell,
                   const double *DPC_RESTRICT snap,
                   double *DPC_RESTRICT e, double deadband,
                   std::size_t s0, std::size_t s1)
{
    constexpr std::size_t S = SellOverlay::kSlice;
    const std::uint32_t *DPC_RESTRICT col = sell.col.data();
    const double *DPC_RESTRICT wts = sell.w.data();
    const __m512d vdb = _mm512_set1_pd(deadband);
    for (std::size_t s = s0; s < s1; ++s) {
        const std::size_t i0 = s * S;
        const __m512d ei = _mm512_loadu_pd(snap + i0);
        __m512d acc = _mm512_setzero_pd();
        const std::uint32_t cend = sell.slice_off[s + 1];
        for (std::uint32_t c = sell.slice_off[s]; c < cend; c += S) {
            const __m256i idx = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(col + c));
            const __m512d ej = _mm512_i32gather_pd(idx, snap, 8);
            const __m512d gap = _mm512_sub_pd(ej, ei);
            const __m512d t = _mm512_mul_pd(_mm512_loadu_pd(wts + c), gap);
            if constexpr (kGated) {
                // std::max(a, b) is b > a ? b : a, i.e. maxpd(b, a).
                const __m512d gate = _mm512_mul_pd(
                    vdb, _mm512_max_pd(_mm512_abs_pd(ej),
                                       _mm512_abs_pd(ei)));
                const __mmask8 out = _mm512_cmp_pd_mask(
                    _mm512_abs_pd(gap), gate, _CMP_NLE_UQ);
                acc = _mm512_mask_add_pd(acc, out, acc, t);
            } else {
                acc = _mm512_add_pd(acc, t);
            }
        }
        if (sell.spill_off[s] != sell.spill_off[s + 1]) {
            alignas(64) double lanes[S];
            _mm512_store_pd(lanes, acc);
            spillSlice(sell, s, snap, lanes, deadband);
            acc = _mm512_load_pd(lanes);
        }
        _mm512_storeu_pd(e + i0, _mm512_add_pd(ei, acc));
    }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void
gatherDenseAvx512(const GraphCsr &g, const double *DPC_RESTRICT w,
                  const SellOverlay &sell,
                  const double *DPC_RESTRICT snap,
                  double *DPC_RESTRICT e, double deadband,
                  std::size_t b0, std::size_t b1)
{
    gatherBySlices(deadband > 0.0 ? gatherSlicesAvx512<true>
                                  : gatherSlicesAvx512<false>,
                   g, w, sell, snap, e, deadband, b0, b1);
}

#endif // DPC_ROUND_KERNEL_X86

namespace {

using BlockKernel = decltype(&stepBlockQuadScalar);
using GatherKernel = decltype(&gatherDenseScalar);

struct KernelChoice
{
    BlockKernel fn;
    GatherKernel gather;
    const char *name;
};

KernelChoice
detectKernel()
{
#if DPC_ROUND_KERNEL_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return {stepBlockQuadAvx512, gatherDenseAvx512, "avx512f"};
    if (__builtin_cpu_supports("avx2"))
        return {stepBlockQuadAvx2, gatherDenseAvx2, "avx2"};
#endif
    return {stepBlockQuadScalar, gatherDenseScalar, "scalar"};
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

void
gatherDense(const GraphCsr &g, const double *DPC_RESTRICT w,
            const SellOverlay &sell, const double *DPC_RESTRICT snap,
            double *DPC_RESTRICT e, double deadband, std::size_t b0,
            std::size_t b1)
{
    kernelChoice().gather(g, w, sell, snap, e, deadband, b0, b1);
}

const char *
roundKernelName()
{
    return kernelChoice().name;
}

} // namespace dpc
