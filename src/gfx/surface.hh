/**
 * @file
 * A render surface: color image + depth buffer + per-pixel bookkeeping.
 *
 * Surfaces back three things: the single-GPU reference framebuffer, each
 * GPU's region-owned slice of the final image, and CHOPIN's per-GPU
 * sub-images. The per-pixel `lastWriter` draw id exists so that image
 * composition can resolve equal-depth fragments exactly the way an in-order
 * single GPU would have (first writer wins for strict comparisons, last
 * writer wins for comparisons that accept equality) — without it the oracle
 * tests would be flaky on depth ties.
 */

#ifndef CHOPIN_GFX_SURFACE_HH
#define CHOPIN_GFX_SURFACE_HH

#include <cstdint>
#include <vector>

#include "gfx/raster.hh"
#include "gfx/state.hh"
#include "util/image.hh"
#include "util/types.hh"

namespace chopin
{

/** Sentinel draw id for "no draw has written this pixel". */
inline constexpr DrawId noWriter = ~DrawId(0);

/** Color + depth + writer-id render surface. */
class Surface
{
  public:
    Surface() = default;
    /** A w x h surface in the state clear(Color(), 1.0f) leaves. */
    Surface(int w, int h);

    int width() const { return img.width(); }
    int height() const { return img.height(); }

    /** Reset color to @p c, depth to @p z, writers to none. */
    void clear(const Color &c, float z);

    /** clear() restricted to the pixels of inclusive rectangle @p r, which
     *  must lie inside the surface. */
    void clearRect(const PixelRect &r, const Color &c, float z);

    const Image &color() const { return img; }
    Image &color() { return img; }

    float depthAt(int x, int y) const { return depth[idx(x, y)]; }
    void setDepth(int x, int y, float z) { depth[idx(x, y)] = z; }

    DrawId writerAt(int x, int y) const { return lastWriter[idx(x, y)]; }
    void setWriter(int x, int y, DrawId d) { lastWriter[idx(x, y)] = d; }

    bool writtenAt(int x, int y) const { return written[idx(x, y)] != 0; }
    void markWritten(int x, int y) { written[idx(x, y)] = 1; }

    std::uint8_t stencilAt(int x, int y) const { return stencil[idx(x, y)]; }
    void setStencil(int x, int y, std::uint8_t v) { stencil[idx(x, y)] = v; }

    /**
     * Process one fragment through the depth test / shading / blend flow
     * under @p state, updating @p stats. @p draw identifies the draw command
     * for writer bookkeeping; @p alpha_ref is the alpha-test threshold used
     * when state.shader_discard is set.
     */
    void applyFragment(const Fragment &frag, const RasterState &state,
                       DrawId draw, float alpha_ref, DrawStats &stats);

    /**
     * Order-independent content hash over color, depth and written-mask
     * state. Two surfaces hash equal iff their pixel state is bit-identical,
     * which is the cross-scheme equality the paper's bit-exact composition
     * claim rests on; see frameHash() for the image-only variant.
     */
    std::uint64_t contentHash() const;

    /**
     * contentHash() for a caller that already holds
     * @p frame_hash == frameHash(color()): continues that FNV-1a stream
     * over the depth and written bytes instead of hashing the color image
     * a second time.
     */
    std::uint64_t contentHashFrom(std::uint64_t frame_hash) const;

  private:
    std::size_t
    idx(int x, int y) const
    {
        return static_cast<std::size_t>(y) * img.width() + x;
    }

    Image img;
    std::vector<float> depth;
    std::vector<DrawId> lastWriter;
    std::vector<std::uint8_t> written;
    std::vector<std::uint8_t> stencil;
};

/**
 * A per-thread cache of surfaces, so that back-to-back frame simulations
 * reuse their render targets and CHOPIN sub-images instead of paging in
 * and filling fresh memory for each run.
 *
 * Ownership and retention rules:
 *  - the cache owns what it holds; take() and takeAny() move a surface
 *    out to the caller, give() and giveAny() move it back;
 *  - take() hands out a surface in Surface(w, h) state, and give() takes
 *    back only a surface in that state (sub-images, which CHOPIN resets
 *    over touched tiles and so must start from a known value);
 *  - takeAny() and giveAny() skip that reset for a caller that clears the
 *    whole surface before use anyway (render targets): takeAny() prefers
 *    such a surface, and take() clears one before handing it out when it
 *    holds nothing else;
 *  - the cache is keyed by size: a take of another size drops every
 *    cached surface, and a give drops a surface of any other size — in
 *    particular one whose color image was moved out (it reports 0x0);
 *  - simulations on one thread run one after another and give back at
 *    most the surfaces they took, so the cache never holds more surfaces
 *    than the largest simulation since the last size change took.
 *
 * Thread-private: the one instance per thread lives in the renderer's
 * thread-local scratch (threadRenderScratch().surfaces, gfx/renderer.hh).
 */
class SurfaceCache
{
  public:
    /** A w x h surface in Surface(w, h) state. */
    Surface take(int w, int h);

    /** A w x h surface in unspecified state. */
    Surface takeAny(int w, int h);

    /** Hand back @p s, which must be in Surface(w, h) state. */
    void give(Surface &&s);

    /** Hand back @p s in any state. */
    void giveAny(Surface &&s);

    /** Number of surfaces currently held. */
    std::size_t size() const { return clean.size() + dirty.size(); }

  private:
    /** Switch to size w x h, dropping every surface of the old size. */
    void resize(int w, int h);

    /** Move the last surface out of @p from. */
    static Surface pop(std::vector<Surface> &from);

    int width = 0;
    int height = 0;
    std::vector<Surface> clean; ///< in Surface(w, h) state
    std::vector<Surface> dirty; ///< in any state
};

/** Apply blend operator @p op: @p src over/into @p dst (both straight RGBA
 *  except that a surface's stored color is treated as already-composited). */
Color blendPixel(BlendOp op, const Color &src, const Color &dst);

/**
 * FNV-1a hash of an image's pixel bits. Per-scheme framebuffer hashes are
 * the cheap equality hook: schemes reproducing the same frame must produce
 * the same hash as the single-GPU reference.
 */
std::uint64_t frameHash(const Image &img);

} // namespace chopin

#endif // CHOPIN_GFX_SURFACE_HH
