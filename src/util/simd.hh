/**
 * @file
 * Portable SIMD lane abstraction for the rasterizer hot path.
 *
 * One algorithm, many lane widths: callers write against a *lanes policy*
 * (a type with a `Float` vector, a bitmask `Mask`, and a fixed set of
 * static operations) and instantiate it with whichever implementation the
 * build selected. The policies are
 *
 *  - `ScalarLanes<W>` — plain float arrays, any width 1..kMaxWidth,
 *    always available. This is both the reference implementation the
 *    bit-equality tests compare against and the fallback every platform
 *    without (or forced off) vector units compiles;
 *  - `SseLanes` (4-wide, x86-64 baseline) and `NeonLanes` (4-wide,
 *    aarch64) — vendor intrinsics behind feature detection. A build that
 *    enables AVX2 still uses `SseLanes`.
 *
 * `NativeLanes` aliases the implementation the build supports, or
 * `ScalarLanes<1>` when `CHOPIN_SIMD_FORCE_SCALAR` is defined (CMake
 * option `CHOPIN_FORCE_SCALAR`, the CI leg that keeps the fallback green).
 *
 * Determinism contract (DESIGN.md §14): every operation is a per-lane IEEE
 * single-precision operation — no FMA, no reciprocal approximations, no
 * horizontal reductions in value-producing paths — so evaluating an
 * expression per lane is bit-identical to evaluating it one float at a
 * time, at every width, on every backend. `fromIntBase` converts exact
 * int32 values (|x| < 2^24) and is therefore also exact. This is what lets
 * the rasterizer promise identical images across scalar and SIMD builds
 * without a golden-hash migration.
 *
 * Masks are plain `std::uint32_t` bitmasks (bit i = lane i) on every
 * backend, so coverage logic, tail handling and sink dispatch are written
 * once, outside the intrinsics.
 *
 * The lint rule `raw-simd` bans vendor intrinsics everywhere else in the
 * tree: this header is the single point where portability is paid for.
 */

#ifndef CHOPIN_UTIL_SIMD_HH
#define CHOPIN_UTIL_SIMD_HH

#include <cstdint>
#include <utility>

#if !defined(CHOPIN_SIMD_FORCE_SCALAR)
#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define CHOPIN_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define CHOPIN_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace chopin
{
namespace simd
{

/** Widest lane count any lanes policy may use: sizes fragment spans, and
 *  tests/gfx/raster_simd_test.cc sweeps `ScalarLanes<8>`. */
inline constexpr int kMaxWidth = 8;

/**
 * Reference / fallback implementation: a plain float array per vector.
 * Compiled from the same call sites as the intrinsic policies, so "the
 * scalar path" is never a separately-maintained loop.
 */
template <int W>
struct ScalarLanes
{
    static_assert(W >= 1 && W <= kMaxWidth, "unsupported lane width");

    static constexpr int width = W;
    static constexpr const char *backend = "scalar";

    struct Float
    {
        float lane[W];
    };
    using Mask = std::uint32_t;

    static constexpr Mask all = (W >= 32) ? ~Mask(0) : ((Mask(1) << W) - 1);

    // Every per-lane operation is expressed as a pack expansion rather
    // than a `for` loop: gcc at -O2 leaves small loops over member arrays
    // in memory (SROA gives up before complete unrolling runs), which
    // costs the fallback lanes a ~5x slowdown in the raster kernel.
    // Brace-init pack expansions scalarize into registers at -O2.
    template <typename Fn, std::size_t... I>
    static Float
    makeImpl(Fn fn, std::index_sequence<I...>)
    {
        return Float{{fn(static_cast<int>(I))...}};
    }

    /** Float whose lane i is fn(i); the per-lane evaluation order of every
     *  operation below (left-to-right, guaranteed for brace-init). */
    template <typename Fn>
    static Float
    make(Fn fn)
    {
        return makeImpl(fn, std::make_index_sequence<W>{});
    }

    static Float
    broadcast(float x)
    {
        return make([x](int) { return x; });
    }

    /** {float(base), float(base+1), ...} — exact for |base+i| < 2^24. */
    static Float
    fromIntBase(int base)
    {
        return make([base](int i) { return static_cast<float>(base + i); });
    }

    static Float
    add(Float a, Float b)
    {
        return make([&](int i) { return a.lane[i] + b.lane[i]; });
    }

    static Float
    mul(Float a, Float b)
    {
        return make([&](int i) { return a.lane[i] * b.lane[i]; });
    }

    template <std::size_t... I>
    static Mask
    cmpGtImpl(Float a, Float b, std::index_sequence<I...>)
    {
        return ((a.lane[I] > b.lane[I] ? (Mask(1) << I) : Mask(0)) | ...);
    }

    static Mask
    cmpGt(Float a, Float b)
    {
        return cmpGtImpl(a, b, std::make_index_sequence<W>{});
    }

    template <std::size_t... I>
    static Mask
    cmpEqImpl(Float a, Float b, std::index_sequence<I...>)
    {
        return ((a.lane[I] == b.lane[I] ? (Mask(1) << I) : Mask(0)) | ...);
    }

    static Mask
    cmpEq(Float a, Float b)
    {
        return cmpEqImpl(a, b, std::make_index_sequence<W>{});
    }

    template <std::size_t... I>
    static void
    storeImpl(Float a, float *out, std::index_sequence<I...>)
    {
        ((out[I] = a.lane[I]), ...);
    }

    static void
    store(Float a, float *out)
    {
        storeImpl(a, out, std::make_index_sequence<W>{});
    }
};

#if defined(CHOPIN_SIMD_SSE2)

/** 4-wide SSE2 lanes (the x86-64 baseline — always available there). */
struct SseLanes
{
    static constexpr int width = 4;
    static constexpr const char *backend = "sse2";

    using Float = __m128;
    using Mask = std::uint32_t;

    static constexpr Mask all = 0xF;

    static Float broadcast(float x) { return _mm_set1_ps(x); }

    static Float
    fromIntBase(int base)
    {
        return _mm_cvtepi32_ps(
            _mm_add_epi32(_mm_set1_epi32(base), _mm_set_epi32(3, 2, 1, 0)));
    }

    static Float add(Float a, Float b) { return _mm_add_ps(a, b); }
    static Float mul(Float a, Float b) { return _mm_mul_ps(a, b); }

    static Mask
    cmpGt(Float a, Float b)
    {
        return static_cast<Mask>(_mm_movemask_ps(_mm_cmpgt_ps(a, b)));
    }

    static Mask
    cmpEq(Float a, Float b)
    {
        return static_cast<Mask>(_mm_movemask_ps(_mm_cmpeq_ps(a, b)));
    }

    static void store(Float a, float *out) { _mm_storeu_ps(out, a); }
};

#endif // CHOPIN_SIMD_SSE2

#if defined(CHOPIN_SIMD_NEON)

/** 4-wide NEON lanes (aarch64: NEON is architecturally guaranteed). */
struct NeonLanes
{
    static constexpr int width = 4;
    static constexpr const char *backend = "neon";

    using Float = float32x4_t;
    using Mask = std::uint32_t;

    static constexpr Mask all = 0xF;

    static Float broadcast(float x) { return vdupq_n_f32(x); }

    static Float
    fromIntBase(int base)
    {
        const int32_t iota[4] = {0, 1, 2, 3};
        return vcvtq_f32_s32(vaddq_s32(vdupq_n_s32(base), vld1q_s32(iota)));
    }

    static Float add(Float a, Float b) { return vaddq_f32(a, b); }
    static Float mul(Float a, Float b) { return vmulq_f32(a, b); }

    static Mask
    moveMask(uint32x4_t m)
    {
        const uint32x4_t bits = {1u, 2u, 4u, 8u};
        return vaddvq_u32(vandq_u32(m, bits));
    }

    static Mask cmpGt(Float a, Float b) { return moveMask(vcgtq_f32(a, b)); }
    static Mask cmpEq(Float a, Float b) { return moveMask(vceqq_f32(a, b)); }

    static void store(Float a, float *out) { vst1q_f32(out, a); }
};

#endif // CHOPIN_SIMD_NEON

#if defined(CHOPIN_SIMD_SSE2)
using NativeLanes = SseLanes;
#elif defined(CHOPIN_SIMD_NEON)
using NativeLanes = NeonLanes;
#else
/** No vector unit (or CHOPIN_SIMD_FORCE_SCALAR): the width-1 reference
 *  lanes — the classic one-pixel-at-a-time loop, which is what a target
 *  without SIMD executes fastest (gcc -O2 half-vectorizes wider scalar
 *  lanes into a ~2-5x slowdown). Multi-lane control flow — masks, tails,
 *  span sinks — stays covered in every build by the W∈{2,3,4,8} sweep in
 *  tests/gfx/raster_simd_test.cc. */
using NativeLanes = ScalarLanes<1>;
#endif

/** Human-readable backend id, reported by benches and tests. */
inline constexpr const char *kNativeBackend =
#if defined(CHOPIN_SIMD_FORCE_SCALAR)
    "scalar-forced";
#else
    NativeLanes::backend;
#endif

/** Mask with the first @p n of @p W lanes set (tail handling). */
template <int W>
constexpr std::uint32_t
tailMask(int n)
{
    constexpr std::uint32_t all =
        (W >= 32) ? ~std::uint32_t(0) : ((std::uint32_t(1) << W) - 1);
    return n >= W ? all : ((std::uint32_t(1) << n) - 1);
}

/** Broadcast a scalar bool over all W lanes of a mask. */
template <int W>
constexpr std::uint32_t
boolMask(bool b)
{
    constexpr std::uint32_t all =
        (W >= 32) ? ~std::uint32_t(0) : ((std::uint32_t(1) << W) - 1);
    return b ? all : 0;
}

} // namespace simd
} // namespace chopin

#endif // CHOPIN_UTIL_SIMD_HH
