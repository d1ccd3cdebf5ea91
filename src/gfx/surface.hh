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

/**
 * Color + depth + writer-id render surface.
 *
 * Which pixels have been written is kept as one 64-bit mask per 8x8 pixel
 * block: pixel (x, y) is bit (y & 7) * 8 + (x & 7) of block
 * (y >> 3) * blocksX() + (x >> 3). Bits of an edge block that lie outside
 * the surface are never set.
 *
 * Reset invariant: a pixel differs from the value of the surface's last
 * clear() — that color and depth, no writer, stencil 0 — only if its
 * written bit is set. The only pixel mutators, applyFragment() and the two
 * composition stores, set the bit of every pixel they change, and the
 * color image leaves only whole, by takeColor(). So reset() to the held
 * value needs to clear only the blocks with a nonzero mask.
 */
class Surface
{
  public:
    /** Edge in pixels of the square block one written-mask word covers. */
    static constexpr int blockEdge = 8;

    Surface() = default;
    /** A w x h surface in the state clear(Color(), 1.0f) leaves. */
    Surface(int w, int h);

    int width() const { return img.width(); }
    int height() const { return img.height(); }

    /** Reset color to @p c, depth to @p z, writers to none and stencil
     *  to 0, clear every written bit, and hold (@p c, @p z) as the clear
     *  value. */
    void clear(const Color &c, float z);

    /**
     * The result of clear(@p c, @p z). When (@p c, @p z) equals the held
     * clear value bit for bit, only the blocks written since then are
     * cleared, every plane of each; any other value takes a full clear().
     */
    void reset(const Color &c, float z);

    const Image &color() const { return img; }

    /** Move the color image out; the surface is left empty (0x0). */
    Image takeColor();

    float depthAt(int x, int y) const { return depth[idx(x, y)]; }
    DrawId writerAt(int x, int y) const { return lastWriter[idx(x, y)]; }
    std::uint8_t stencilAt(int x, int y) const { return stencil[idx(x, y)]; }

    bool
    writtenAt(int x, int y) const
    {
        return (masks[blockOf(x, y)] >> bitOf(x, y)) & 1U;
    }

    /** Blocks per row and per column (edge blocks are partial). */
    int blocksX() const { return bx; }
    int blocksY() const { return by; }

    /** Written mask of block @p b (linear index by * blocksX() + bx). */
    std::uint64_t blockMask(int b) const { return masks[b]; }

    /**
     * Process one fragment through the depth test / shading / blend flow
     * under @p state, updating @p stats. @p draw identifies the draw command
     * for writer bookkeeping; @p alpha_ref is the alpha-test threshold used
     * when state.shader_discard is set.
     */
    void applyFragment(const Fragment &frag, const RasterState &state,
                       DrawId draw, float alpha_ref, DrawStats &stats);

    /** Opaque-composition store: pixel (x, y) takes color @p c and writer
     *  @p writer, depth @p z when @p write_depth, and is marked written. */
    void
    storeOpaque(int x, int y, const Color &c, float z, DrawId writer,
                bool write_depth)
    {
        std::size_t i = idx(x, y);
        img.data()[i] = c;
        if (write_depth)
            depth[i] = z;
        lastWriter[i] = writer;
        setWrittenBit(x, y);
    }

    /** Transparent-composition store: pixel (x, y) takes color @p c and
     *  is marked written; depth and writer keep their values. */
    void
    storeBlended(int x, int y, const Color &c)
    {
        img.data()[idx(x, y)] = c;
        setWrittenBit(x, y);
    }

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
     * over the depth bytes and one 0/1 written byte per pixel, row-major,
     * instead of hashing the color image a second time.
     */
    std::uint64_t contentHashFrom(std::uint64_t frame_hash) const;

  private:
    std::size_t
    idx(int x, int y) const
    {
        return static_cast<std::size_t>(y) * img.width() + x;
    }

    // Block and bit of a pixel; the shifts and masks spell blockEdge == 8.
    std::size_t
    blockOf(int x, int y) const
    {
        return static_cast<std::size_t>(y >> 3) * bx + (x >> 3);
    }

    static unsigned
    bitOf(int x, int y)
    {
        return static_cast<unsigned>((y & 7) * 8 + (x & 7));
    }

    void
    setWrittenBit(int x, int y)
    {
        masks[blockOf(x, y)] |= std::uint64_t{1} << bitOf(x, y);
    }

    Image img;
    std::vector<float> depth;
    std::vector<DrawId> lastWriter;
    std::vector<std::uint8_t> stencil;
    int bx = 0; ///< blocks per row
    int by = 0; ///< blocks per column
    std::vector<std::uint64_t> masks; ///< written bits, one word per block
    Color held_color;        ///< color of the last clear()
    float held_depth = 1.0f; ///< depth of the last clear()
};

/**
 * A per-thread cache of surfaces, so that back-to-back frame simulations
 * reuse their render targets and CHOPIN sub-images instead of paging in
 * and filling fresh memory for each run.
 *
 * Ownership and retention rules:
 *  - the cache owns what it holds; take() moves a surface out to the
 *    caller, give() moves it back;
 *  - surfaces come back in any state, and every taker resets what it
 *    takes (Surface::reset) before use;
 *  - take() hands out the surface given back last (LIFO), so a run that
 *    gives back its sub-images before its render targets hands each kind
 *    to the next run's takers in the order they take them;
 *  - the cache is keyed by size: a take of another size drops every
 *    cached surface, and a give drops a surface of any other size — in
 *    particular one whose color image was taken (it reports 0x0);
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
    /** A w x h surface in unspecified state: the one given back last, or
     *  a new Surface(w, h). */
    Surface take(int w, int h);

    /** Hand back @p s in any state. */
    void give(Surface &&s);

    /** Number of surfaces currently held. */
    std::size_t size() const { return held.size(); }

  private:
    int width = 0;
    int height = 0;
    std::vector<Surface> held;
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
