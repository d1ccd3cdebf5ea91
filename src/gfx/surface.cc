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

/** Bitwise equality (tells -0.0 from 0.0 and matches NaN payloads). */
template <typename T>
bool
bitEqual(const T &a, const T &b)
{
    using Bytes = std::array<unsigned char, sizeof(T)>;
    return std::bit_cast<Bytes>(a) == std::bit_cast<Bytes>(b);
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
    // One 0/1 byte per pixel in row-major order: the bytes a per-pixel
    // written plane would hold, so the value does not depend on the mask
    // layout.
    for (int y = 0; y < height(); ++y) {
        const std::uint64_t *row = masks.data() + static_cast<std::size_t>(
                                                      y >> 3) * bx;
        unsigned shift = static_cast<unsigned>(y & 7) * 8;
        for (int x = 0; x < width(); ++x) {
            h ^= (row[x >> 3] >> (shift + static_cast<unsigned>(x & 7))) & 1U;
            h *= fnvPrime;
        }
    }
    return h;
}

Surface::Surface(int w, int h)
    : img(w, h),
      depth(static_cast<std::size_t>(w) * h, 1.0f),
      lastWriter(static_cast<std::size_t>(w) * h, noWriter),
      stencil(static_cast<std::size_t>(w) * h, 0),
      bx((w + blockEdge - 1) / blockEdge), by((h + blockEdge - 1) / blockEdge),
      masks(static_cast<std::size_t>(bx) * by, 0)
{
}

void
Surface::clear(const Color &c, float z)
{
    img.clear(c);
    std::fill(depth.begin(), depth.end(), z);
    std::fill(lastWriter.begin(), lastWriter.end(), noWriter);
    std::fill(stencil.begin(), stencil.end(), 0);
    std::fill(masks.begin(), masks.end(), 0);
    held_color = c;
    held_depth = z;
}

void
Surface::reset(const Color &c, float z)
{
    if (!bitEqual(c, held_color) || !bitEqual(z, held_depth)) {
        clear(c, z);
        return;
    }
    // Each run of written blocks in a block row clears as one span per
    // pixel row, so a mostly written surface clears in long fills.
    for (int b_y = 0; b_y < by; ++b_y) {
        std::uint64_t *row = masks.data() + static_cast<std::size_t>(b_y) * bx;
        int y0 = b_y * blockEdge;
        int y1 = std::min(y0 + blockEdge, height());
        for (int run = 0; run < bx;) {
            if (row[run] == 0) {
                ++run;
                continue;
            }
            int end = run;
            for (; end < bx && row[end] != 0; ++end)
                row[end] = 0;
            int x0 = run * blockEdge;
            std::size_t n = static_cast<std::size_t>(
                std::min(end * blockEdge, width()) - x0);
            for (int y = y0; y < y1; ++y) {
                std::size_t i = idx(x0, y);
                std::fill_n(img.data().begin() + i, n, c);
                std::fill_n(depth.begin() + i, n, z);
                std::fill_n(lastWriter.begin() + i, n, noWriter);
                std::fill_n(stencil.begin() + i, n, 0);
            }
            run = end;
        }
    }
}

Image
Surface::takeColor()
{
    Image out = std::move(img);
    *this = Surface();
    return out;
}

Surface
SurfaceCache::take(int w, int h)
{
    if (w != width || h != height) {
        held.clear();
        width = w;
        height = h;
    }
    if (held.empty())
        return Surface(w, h);
    Surface s = std::move(held.back());
    held.pop_back();
    return s;
}

void
SurfaceCache::give(Surface &&s)
{
    if (s.width() == width && s.height() == height)
        held.push_back(std::move(s));
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
    setWrittenBit(frag.x, frag.y);
    stats.frags_written += 1;
}

} // namespace chopin
