/**
 * @file
 * Screen-space triangle rasterization (Fig. 1(b), stage 2).
 *
 * Edge-function rasterization with the standard top-left fill convention so
 * that abutting triangles cover every pixel exactly once. The same code
 * rasterizes for every SFR scheme, which is what makes the cross-scheme
 * image-equality oracle meaningful: schemes may only differ in *which* GPU
 * rasterizes a triangle and how fragments are merged, never in coverage.
 *
 * There is exactly one inner loop in the codebase —
 * rasterizeTriangleInRectAs<Lanes>() — stepping `Lanes::width` pixels per
 * iteration over a SIMD lane policy from util/simd.hh. Every entry point is
 * a thin wrapper over it:
 *  - rasterizeTriangleInRect(): the binned renderer's hot path, native
 *    lane width, statically-typed sink;
 *  - rasterizeTriangle(): whole-viewport, type-erased sink (one erasure
 *    per *triangle*, not a std::function call per fragment);
 *  - countCoverage(): coverage-only sink (popcounts masks, skips
 *    interpolation entirely).
 *
 * Determinism contract (DESIGN.md §14): each lane evaluates every edge
 * function at its *absolute* pixel center — `a*x + b*y + c` with the exact
 * scalar association `((a*x) + (b*y)) + c`, no incremental accumulation
 * across pixels, no FMA contraction (the build sets -ffp-contract=off).
 * Coverage, z and color are therefore bit-identical at every lane width
 * and on every backend, and splitting a triangle across disjoint
 * rectangles yields the exact fragments of one whole-triangle pass. The
 * scalar-vs-SIMD sweep in tests/gfx/raster_simd_test.cc enforces this
 * fragment for fragment.
 */

#ifndef CHOPIN_GFX_RASTER_HH
#define CHOPIN_GFX_RASTER_HH

#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "gfx/geometry.hh"
#include "util/simd.hh"

namespace chopin
{

/** A rasterized fragment prior to depth test and shading. */
struct Fragment
{
    int x = 0;
    int y = 0;
    float z = 0.0f;
    Color color;
};

/**
 * Up to Lanes::width horizontally adjacent fragments on one row, produced
 * by one quad step of the rasterizer. Bit i of @ref mask set means pixel
 * (x0 + i, y) is covered; z/color lanes are only meaningful under set
 * bits. Quad-aware sinks consume this directly; others receive the
 * per-fragment expansion (see rasterizeTriangleInRectAs).
 */
struct FragmentSpan
{
    int x0 = 0;
    int y = 0;
    std::uint32_t mask = 0;
    float z[simd::kMaxWidth];
    float r[simd::kMaxWidth];
    float g[simd::kMaxWidth];
    float b[simd::kMaxWidth];
    float a[simd::kMaxWidth];

    Fragment
    fragmentAt(int lane) const
    {
        Fragment f;
        f.x = x0 + lane;
        f.y = y;
        f.z = z[lane];
        f.color = Color(r[lane], g[lane], b[lane], a[lane]);
        return f;
    }
};

/**
 * Coverage of one quad step with no attribute interpolation. A sink
 * invocable with this type short-circuits the kernel past barycentric
 * setup — countCoverage() is a popcount over these.
 */
struct CoverageSpan
{
    int x0 = 0;
    int y = 0;
    std::uint32_t mask = 0;
};

/**
 * Non-owning type-erased fragment callback: erasure happens once per
 * rasterizeTriangle() call (a pointer pair on the stack), replacing the
 * old std::function alias that possibly heap-allocated per call. The
 * referenced callable must outlive the rasterization call — passing a
 * temporary lambda at the call site is fine, storing a FragmentSink is
 * not.
 */
class FragmentSink
{
  public:
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<Fn>, FragmentSink> &&
                  std::is_invocable_v<Fn &, const Fragment &>>>
    FragmentSink(Fn &&fn) // NOLINT(google-explicit-constructor)
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(fn)))),
          call_([](void *obj, const Fragment &frag) {
              (*static_cast<std::remove_reference_t<Fn> *>(obj))(frag);
          })
    {}

    void operator()(const Fragment &frag) const { call_(obj_, frag); }

  private:
    void *obj_;
    void (*call_)(void *, const Fragment &);
};

namespace raster_detail
{

/**
 * Edge setup for the function e(x, y) = a*x + b*y + c, positive on the
 * interior side for a counter-clockwise triangle in a y-down coordinate
 * system after normalization.
 */
struct Edge
{
    float a, b, c;
    bool topLeft;

    float eval(float x, float y) const { return a * x + b * y + c; }

    /**
     * Fill rule: a pixel on the edge (e == 0) is covered only if the edge
     * is a top or left edge.
     */
    bool accepts(float e) const { return e > 0.0f || (e == 0.0f && topLeft); }
};

inline Edge
makeEdge(const Vec2 &p0, const Vec2 &p1)
{
    Edge e;
    e.a = p0.y - p1.y;
    e.b = p1.x - p0.x;
    e.c = p0.x * p1.y - p0.y * p1.x;
    // The triangle is normalized so the interior is on the positive side of
    // every edge. In y-down screen space a "top" edge is horizontal with the
    // interior below it (e grows with y => b > 0); a "left" edge has the
    // interior to its right (e grows with x => a > 0).
    e.topLeft = e.a > 0.0f || (e.a == 0.0f && e.b > 0.0f);
    return e;
}

/** Vectorized state of one edge: broadcast coefficients + fill-rule mask. */
template <typename Lanes>
struct EdgeLanes
{
    typename Lanes::Float a;
    typename Lanes::Float c;
    float b_scalar;
    std::uint32_t top_left; ///< boolMask of the top-left flag

    explicit EdgeLanes(const Edge &e)
        : a(Lanes::broadcast(e.a)), c(Lanes::broadcast(e.c)), b_scalar(e.b),
          top_left(simd::boolMask<Lanes::width>(e.topLeft))
    {}

    /** b*y for a row; kept scalar so w = ((a*x) + (b*y)) + c associates
     *  exactly like the scalar Edge::eval. */
    typename Lanes::Float
    rowTerm(float py) const
    {
        return Lanes::broadcast(b_scalar * py);
    }

    /** Accept mask at absolute pixel centers @p px for row term @p t:
     *  per-lane `e > 0 || (e == 0 && topLeft)`. */
    std::uint32_t
    accepts(typename Lanes::Float px, typename Lanes::Float t,
            typename Lanes::Float &w_out) const
    {
        typename Lanes::Float w =
            Lanes::add(Lanes::add(Lanes::mul(a, px), t), c);
        w_out = w;
        const typename Lanes::Float zero = Lanes::broadcast(0.0f);
        return Lanes::cmpGt(w, zero) |
               (Lanes::cmpEq(w, zero) & top_left);
    }
};

} // namespace raster_detail

/**
 * Rasterize @p tri_in into @p vp restricted to @p clip, stepping
 * Lanes::width pixels per inner-loop iteration and dispatching covered
 * quads to @p sink. Attribute interpolation is affine (screen-space
 * barycentric), matching early-2000s fixed-function hardware. Triangles of
 * either winding are filled (the caller performs backface culling during
 * geometry processing).
 *
 * Sink dispatch is static, by decreasing information:
 *  - invocable with `const CoverageSpan &`: coverage masks only, no
 *    barycentric work at all;
 *  - invocable with `const FragmentSpan &`: one call per covered quad with
 *    per-lane z/color;
 *  - invocable with `const Fragment &`: the span is expanded to fragments
 *    in ascending x, exactly the order the classic scalar loop produced.
 */
template <typename Lanes, typename Sink>
inline void
rasterizeTriangleInRectAs(const ScreenTriangle &tri_in, const Viewport &vp,
                          const PixelRect &clip, Sink &&sink)
{
    using raster_detail::EdgeLanes;
    using raster_detail::makeEdge;
    constexpr int W = Lanes::width;
    using F = typename Lanes::Float;
    using Sink_t = std::remove_reference_t<Sink>;
    constexpr bool coverage_only =
        std::is_invocable_v<Sink_t &, const CoverageSpan &>;
    constexpr bool span_sink =
        std::is_invocable_v<Sink_t &, const FragmentSpan &>;
    static_assert(coverage_only || span_sink ||
                      std::is_invocable_v<Sink_t &, const Fragment &>,
                  "sink must accept CoverageSpan, FragmentSpan or Fragment");

    ScreenTriangle tri = tri_in;
    // Normalize winding so the interior is on the positive side of all edges.
    float area2 =
        (tri.v[1].pos.x - tri.v[0].pos.x) * (tri.v[2].pos.y - tri.v[0].pos.y) -
        (tri.v[2].pos.x - tri.v[0].pos.x) * (tri.v[1].pos.y - tri.v[0].pos.y);
    if (area2 == 0.0f)
        return;
    if (area2 < 0.0f) {
        std::swap(tri.v[1], tri.v[2]);
        area2 = -area2;
    }

    // One clip: cached viewport-clamped bounds ∩ caller rectangle (the
    // helper shared with tile binning and coverage counting).
    PixelRect box = intersect(tri_in.boundsRect(vp.width, vp.height), clip);
    if (box.empty())
        return;

    const EdgeLanes<Lanes> e01(makeEdge(tri.v[0].pos, tri.v[1].pos));
    const EdgeLanes<Lanes> e12(makeEdge(tri.v[1].pos, tri.v[2].pos));
    const EdgeLanes<Lanes> e20(makeEdge(tri.v[2].pos, tri.v[0].pos));

    const float inv_area2 = 1.0f / area2;
    const F vinv = Lanes::broadcast(inv_area2);
    const F half = Lanes::broadcast(0.5f);
    const ScreenVertex &v0 = tri.v[0];
    const ScreenVertex &v1 = tri.v[1];
    const ScreenVertex &v2 = tri.v[2];

    // Attribute broadcasts (unused, and elided, for coverage-only sinks).
    const F z0 = Lanes::broadcast(v0.z);
    const F z1 = Lanes::broadcast(v1.z);
    const F z2 = Lanes::broadcast(v2.z);
    const F r0 = Lanes::broadcast(v0.color.r), r1 = Lanes::broadcast(v1.color.r),
            r2 = Lanes::broadcast(v2.color.r);
    const F g0 = Lanes::broadcast(v0.color.g), g1 = Lanes::broadcast(v1.color.g),
            g2 = Lanes::broadcast(v2.color.g);
    const F b0 = Lanes::broadcast(v0.color.b), b1 = Lanes::broadcast(v1.color.b),
            b2 = Lanes::broadcast(v2.color.b);
    const F a0 = Lanes::broadcast(v0.color.a), a1 = Lanes::broadcast(v1.color.a),
            a2 = Lanes::broadcast(v2.color.a);

    // Per-channel barycentric blend with the scalar association
    // ((q0*l0) + (q1*l1)) + (q2*l2) — see Color::operator*/operator+.
    auto blend = [](F q0, F q1, F q2, F l0, F l1, F l2) {
        return Lanes::add(Lanes::add(Lanes::mul(q0, l0), Lanes::mul(q1, l1)),
                          Lanes::mul(q2, l2));
    };

    for (int y = box.y0; y <= box.y1; ++y) {
        const float py = static_cast<float>(y) + 0.5f;
        const F t12 = e12.rowTerm(py);
        const F t20 = e20.rowTerm(py);
        const F t01 = e01.rowTerm(py);
        for (int x = box.x0; x <= box.x1; x += W) {
            // Absolute pixel centers: float(x+i) is exact below 2^24, so
            // every lane computes the same px the scalar loop would.
            const F px = Lanes::add(Lanes::fromIntBase(x), half);
            F w0, w1, w2;
            std::uint32_t m = e12.accepts(px, t12, w0); // weight of vertex 0
            m &= e20.accepts(px, t20, w1);              // weight of vertex 1
            m &= e01.accepts(px, t01, w2);              // weight of vertex 2
            m &= simd::tailMask<W>(box.x1 - x + 1);
            if (m == 0)
                continue;

            if constexpr (coverage_only) {
                sink(CoverageSpan{x, y, m});
            } else {
                const F l0 = Lanes::mul(w0, vinv);
                const F l1 = Lanes::mul(w1, vinv);
                const F l2 = Lanes::mul(w2, vinv);
                FragmentSpan span;
                span.x0 = x;
                span.y = y;
                span.mask = m;
                Lanes::store(blend(z0, z1, z2, l0, l1, l2), span.z);
                Lanes::store(blend(r0, r1, r2, l0, l1, l2), span.r);
                Lanes::store(blend(g0, g1, g2, l0, l1, l2), span.g);
                Lanes::store(blend(b0, b1, b2, l0, l1, l2), span.b);
                Lanes::store(blend(a0, a1, a2, l0, l1, l2), span.a);
                if constexpr (span_sink) {
                    sink(span);
                } else {
                    // Ascending set bits == ascending x: identical call
                    // order to the classic per-pixel loop.
                    std::uint32_t rest = m;
                    while (rest != 0) {
                        int lane = std::countr_zero(rest);
                        rest &= rest - 1;
                        sink(span.fragmentAt(lane));
                    }
                }
            }
        }
    }
}

/**
 * The hot-path entry: native lane width for this build (util/simd.hh), sink
 * statically typed so per-fragment calls inline.
 */
template <typename Sink>
inline void
rasterizeTriangleInRect(const ScreenTriangle &tri_in, const Viewport &vp,
                        const PixelRect &clip, Sink &&sink)
{
    rasterizeTriangleInRectAs<simd::NativeLanes>(tri_in, vp, clip,
                                                 std::forward<Sink>(sink));
}

/**
 * Rasterize @p tri into @p vp, invoking @p sink for every covered pixel
 * whose center passes the top-left rule (whole-viewport variant with a
 * type-erased sink, kept for tests and non-hot callers).
 */
void rasterizeTriangle(const ScreenTriangle &tri, const Viewport &vp,
                       FragmentSink sink);

/**
 * Count the pixels @p tri covers without emitting fragments (the raster
 * tests' coverage oracle). Pure coverage masks — no barycentric work.
 */
std::uint64_t countCoverage(const ScreenTriangle &tri, const Viewport &vp);

} // namespace chopin

#endif // CHOPIN_GFX_RASTER_HH
