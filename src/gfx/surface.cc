#include "gfx/surface.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/check.hh"

namespace chopin
{

namespace
{

inline constexpr std::uint64_t fnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t fnvPrime = 1099511628211ULL;

std::uint64_t
fnv1a(std::uint64_t h, const void *bytes, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

} // namespace

std::uint64_t
frameHash(const Image &img)
{
    std::uint64_t h = fnvOffset;
    int w = img.width();
    int h_px = img.height();
    h = fnv1a(h, &w, sizeof(w));
    h = fnv1a(h, &h_px, sizeof(h_px));
    if (!img.data().empty())
        h = fnv1a(h, img.data().data(),
                  img.data().size() * sizeof(Color));
    return h;
}

std::uint64_t
Surface::contentHash() const
{
    return contentHashFrom(frameHash(img));
}

std::uint64_t
Surface::contentHashFrom(std::uint64_t frame_hash) const
{
    CHOPIN_DCHECK(frame_hash == frameHash(img),
                  "contentHashFrom() needs frameHash(color())");
    std::uint64_t h = frame_hash;
    if (!depth.empty())
        h = fnv1a(h, depth.data(), depth.size() * sizeof(float));
    if (!written.empty())
        h = fnv1a(h, written.data(), written.size());
    return h;
}

Surface::Surface(int w, int h)
    : img(w, h),
      depth(static_cast<std::size_t>(w) * h, 1.0f),
      lastWriter(static_cast<std::size_t>(w) * h, noWriter),
      written(static_cast<std::size_t>(w) * h, 0),
      stencil(static_cast<std::size_t>(w) * h, 0)
{
}

void
Surface::clear(const Color &c, float z)
{
    img.clear(c);
    std::fill(depth.begin(), depth.end(), z);
    std::fill(lastWriter.begin(), lastWriter.end(), noWriter);
    std::fill(written.begin(), written.end(), 0);
    std::fill(stencil.begin(), stencil.end(), 0);
}

void
Surface::clearRect(const PixelRect &r, const Color &c, float z)
{
    CHOPIN_DCHECK(r.x0 >= 0 && r.y0 >= 0 && r.x1 < width() &&
                      r.y1 < height(),
                  "clearRect outside the ", width(), "x", height(),
                  " surface");
    if (r.empty())
        return;
    std::size_t n = static_cast<std::size_t>(r.x1 - r.x0 + 1);
    for (int y = r.y0; y <= r.y1; ++y) {
        std::size_t i = idx(r.x0, y);
        std::fill_n(img.data().begin() + i, n, c);
        std::fill_n(depth.begin() + i, n, z);
        std::fill_n(lastWriter.begin() + i, n, noWriter);
        std::fill_n(written.begin() + i, n, 0);
        std::fill_n(stencil.begin() + i, n, 0);
    }
}

namespace
{

/** Whether @p s is bit-for-bit in Surface(w, h) state (a full scan, for
 *  DCHECKs only). */
bool
isPristine(const Surface &s)
{
    using ColorBits = std::array<std::uint32_t, 4>;
    const ColorBits blank = std::bit_cast<ColorBits>(Color());
    const std::uint32_t far = std::bit_cast<std::uint32_t>(1.0f);
    for (int y = 0; y < s.height(); ++y) {
        for (int x = 0; x < s.width(); ++x) {
            if (std::bit_cast<ColorBits>(s.color().at(x, y)) != blank ||
                std::bit_cast<std::uint32_t>(s.depthAt(x, y)) != far ||
                s.writerAt(x, y) != noWriter || s.writtenAt(x, y) ||
                s.stencilAt(x, y) != 0)
                return false;
        }
    }
    return true;
}

} // namespace

Surface
SurfaceCache::pop(std::vector<Surface> &from)
{
    Surface s = std::move(from.back());
    from.pop_back();
    return s;
}

void
SurfaceCache::resize(int w, int h)
{
    if (w == width && h == height)
        return;
    clean.clear();
    dirty.clear();
    width = w;
    height = h;
}

Surface
SurfaceCache::take(int w, int h)
{
    resize(w, h);
    if (!clean.empty())
        return pop(clean);
    if (dirty.empty())
        return Surface(w, h);
    Surface s = pop(dirty);
    s.clear(Color(), 1.0f);
    return s;
}

Surface
SurfaceCache::takeAny(int w, int h)
{
    resize(w, h);
    if (!dirty.empty())
        return pop(dirty);
    if (!clean.empty())
        return pop(clean);
    return Surface(w, h);
}

void
SurfaceCache::give(Surface &&s)
{
    if (s.width() != width || s.height() != height)
        return;
    CHOPIN_DCHECK(isPristine(s), "surface given back to the cache is not in "
                                 "Surface(w, h) state");
    clean.push_back(std::move(s));
}

void
SurfaceCache::giveAny(Surface &&s)
{
    if (s.width() != width || s.height() != height)
        return;
    dirty.push_back(std::move(s));
}

Color
blendPixel(BlendOp op, const Color &src, const Color &dst)
{
    switch (op) {
      case BlendOp::Opaque:
        return {src.r, src.g, src.b, 1.0f};
      case BlendOp::Over: {
        // Source-over with straight source alpha onto an already-composited
        // destination: out = src * a + dst * (1 - a). The destination alpha
        // accumulates coverage.
        float a = src.a;
        return {src.r * a + dst.r * (1.0f - a),
                src.g * a + dst.g * (1.0f - a),
                src.b * a + dst.b * (1.0f - a),
                a + dst.a * (1.0f - a)};
      }
      case BlendOp::Additive:
        return {dst.r + src.r * src.a, dst.g + src.g * src.a,
                dst.b + src.b * src.a, dst.a};
      case BlendOp::Multiply:
        return {dst.r * src.r, dst.g * src.g, dst.b * src.b, dst.a};
    }
    return dst;
}

void
Surface::applyFragment(const Fragment &frag, const RasterState &state,
                       DrawId draw, float alpha_ref, DrawStats &stats)
{
    stats.frags_generated += 1;
    CHOPIN_DCHECK(frag.x >= 0 && frag.x < width() && frag.y >= 0 &&
                      frag.y < height(),
                  "fragment (", frag.x, ",", frag.y, ") outside ", width(),
                  "x", height(), " surface");
    std::size_t i = idx(frag.x, frag.y);

    // The joint depth/stencil test: stencil first, then depth (GL order).
    // Failing fragments leave the stencil value unchanged (keep-on-fail).
    auto depth_stencil_pass = [&]() {
        if (state.stencil_test &&
            !stencilCompare(state.stencil_func, state.stencil_ref,
                            stencil[i]))
            return false;
        if (state.depth_test &&
            !depthTest(state.depth_func, frag.z, depth[i]))
            return false;
        return true;
    };

    bool any_test = state.depth_test || state.stencil_test;
    bool early = any_test && !state.shader_discard;
    if (early) {
        if (!depth_stencil_pass()) {
            stats.frags_early_fail += 1;
            return;
        }
        stats.frags_early_pass += 1;
    }

    // Pixel shading (the cost is accounted by the timing model via this
    // counter; functionally the interpolated color is the shader output).
    stats.frags_shaded += 1;
    if (state.shader_discard && frag.color.a < alpha_ref)
        return; // alpha-test discard

    if (!early && any_test) {
        if (!depth_stencil_pass()) {
            stats.frags_late_fail += 1;
            return;
        }
        stats.frags_late_pass += 1;
    }

    img.data()[i] = blendPixel(state.blend_op, frag.color, img.data()[i]);
    if (state.depth_test && state.depth_write)
        depth[i] = frag.z;
    if (state.stencil_test)
        stencil[i] = applyStencilOp(state.stencil_pass_op, stencil[i],
                                    state.stencil_ref);
    lastWriter[i] = draw;
    written[i] = 1;
    stats.frags_written += 1;
}

} // namespace chopin
