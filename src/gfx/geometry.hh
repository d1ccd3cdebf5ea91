/**
 * @file
 * Geometry-stage data types and processing: object-space vertices are
 * transformed by a model-view-projection matrix, clipped against the near
 * plane, back-face culled, and mapped to the 2D screen (Fig. 1(b), stage 1
 * of the paper's pipeline).
 */

#ifndef CHOPIN_GFX_GEOMETRY_HH
#define CHOPIN_GFX_GEOMETRY_HH

#include <cstddef>
#include <vector>

#include "gfx/state.hh"
#include "util/color.hh"
#include "util/vec.hh"

namespace chopin
{

/** Object-space vertex. */
struct Vertex
{
    Vec3 pos;
    Color color;
};

/** Object-space triangle (a primitive). */
struct Triangle
{
    Vertex v[3];
};

/** Inclusive pixel rectangle (x0 <= x1 and y0 <= y1 when non-empty). */
struct PixelRect
{
    int x0 = 0;
    int y0 = 0;
    int x1 = -1;
    int y1 = -1;

    bool empty() const { return x1 < x0 || y1 < y0; }
};

/**
 * Intersection of two inclusive rectangles (empty when disjoint). The one
 * clip operation shared by rasterization, tile binning and coverage
 * counting, so the three cannot drift.
 */
inline PixelRect
intersect(const PixelRect &a, const PixelRect &b)
{
    PixelRect r;
    r.x0 = a.x0 > b.x0 ? a.x0 : b.x0;
    r.y0 = a.y0 > b.y0 ? a.y0 : b.y0;
    r.x1 = a.x1 < b.x1 ? a.x1 : b.x1;
    r.y1 = a.y1 < b.y1 ? a.y1 : b.y1;
    return r;
}

/** Screen-space vertex after projection and viewport transform. */
struct ScreenVertex
{
    Vec2 pos;    ///< pixel coordinates (origin top-left)
    float z = 0; ///< depth in [0, 1] after viewport transform
    Color color;
};

/** Screen-space triangle ready for rasterization. */
struct ScreenTriangle
{
    ScreenVertex v[3];

    /**
     * Cached inclusive pixel bounding box, clamped to the viewport it was
     * computed for. processPrimitive() fills it once; RenderFilter,
     * tile binning and the rasterizer all reuse it instead of re-deriving
     * min/max per consumer. bx1 < bx0 means "not cached" (e.g. a
     * hand-constructed triangle in a test) and boundingBox() recomputes.
     */
    int bx0 = 0;
    int by0 = 0;
    int bx1 = -1;
    int by1 = -1;

    bool boundsCached() const { return bx1 >= bx0 && by1 >= by0; }

    /** Compute and cache the clamped bounding box for a width x height
     *  viewport. The cache is only meaningful for that viewport. */
    void cacheBounds(int width, int height);

    /** Inclusive integer pixel bounding box, clamped to the viewport.
     *  Returns the cached box when present (all in-engine consumers use
     *  the one viewport the cache was built for). */
    void boundingBox(int width, int height, int &x0, int &y0, int &x1,
                     int &y1) const;

    /** boundingBox() as a PixelRect — empty when the triangle misses the
     *  viewport entirely. Consumers clip further with intersect(). */
    PixelRect
    boundsRect(int width, int height) const
    {
        PixelRect r;
        boundingBox(width, height, r.x0, r.y0, r.x1, r.y1);
        return r;
    }
};

/** Viewport description. */
struct Viewport
{
    int width = 0;
    int height = 0;
};

/**
 * Geometry processing for one primitive.
 *
 * @param tri       object-space triangle
 * @param mvp       combined model-view-projection matrix
 * @param vp        target viewport
 * @param backface_cull drop clockwise (in screen space) triangles
 * @param[out] out  zero, one or two screen triangles (near-plane clipping
 *                  of a triangle with one vertex behind the plane yields two)
 * @param[in,out] stats clip/cull counters are updated
 */
void processPrimitive(const Triangle &tri, const Mat4 &mvp,
                      const Viewport &vp, bool backface_cull,
                      std::vector<ScreenTriangle> &out, DrawStats &stats);

/**
 * Slab overload: writes at @p out[count], advancing @p count. The caller
 * guarantees room for two more triangles (one primitive emits at most two
 * after near-plane clipping). Same results as the vector overload, which
 * the renderer uses; this form serves callers that fill a preallocated
 * array.
 */
void processPrimitive(const Triangle &tri, const Mat4 &mvp,
                      const Viewport &vp, bool backface_cull,
                      ScreenTriangle *out, std::size_t &count,
                      DrawStats &stats);

/**
 * Twice the signed screen-space area; positive for front-facing triangles
 * (screen space is y-down, winding already accounted for).
 */
float signedScreenArea2(const ScreenTriangle &tri);

} // namespace chopin

#endif // CHOPIN_GFX_GEOMETRY_HH
