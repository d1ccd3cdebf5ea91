#include "gfx/raster.hh"

#include <bit>

namespace chopin
{

std::uint64_t
countCoverage(const ScreenTriangle &tri, const Viewport &vp)
{
    std::uint64_t n = 0;
    PixelRect full{0, 0, vp.width - 1, vp.height - 1};
    rasterizeTriangleInRect(tri, vp, full, [&n](const CoverageSpan &span) {
        n += static_cast<std::uint64_t>(std::popcount(span.mask));
    });
    return n;
}

} // namespace chopin
