/**
 * @file
 * Bump/arena allocation for per-draw transient data.
 *
 * The binned renderer produces a pile of short-lived arrays every draw —
 * screen triangles, keep lists, tile-bucket CSR — whose lifetimes all end
 * together when the draw does. An @ref Arena turns those N heap round
 * trips into pointer bumps inside one retained block: allocation is a
 * cursor increment, deallocation is `reset()` once per draw, and after the
 * first few draws the arena has coalesced into a single block sized for
 * the biggest draw seen, so steady state performs *zero* heap traffic.
 *
 * Ownership contract (DESIGN.md §14): an Arena is single-threaded by
 * design — no locks, no atomics. The renderer embeds one per
 * RenderScratch, which is thread-private by construction
 * (threadRenderScratch()), so the coordinator of a draw is the only
 * allocator. Pool workers inside a draw never allocate; they write into
 * slabs the coordinator carved *before* the parallelFor fan-out (see
 * runGeometry). reset() must only be called between draws, never while a
 * worker can still hold a pointer into the arena.
 *
 * @ref ArenaVector is the std::vector-shaped façade over an arena for
 * trivially copyable element types: same clear()/reserve()/push_back()
 * surface the renderer already used, but growth relocates via memcpy into
 * arena storage and destruction frees nothing.
 */

#ifndef CHOPIN_UTIL_ARENA_HH
#define CHOPIN_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/check.hh"

namespace chopin
{

/**
 * A growable bump allocator. allocate() carves aligned ranges out of the
 * current block; when a block runs out a bigger one is chained on, and the
 * next reset() coalesces the chain into one block of the total capacity so
 * a steady-state workload settles into exactly one allocation ever.
 */
class Arena
{
  public:
    static constexpr std::size_t kDefaultBlockBytes = std::size_t(64) << 10;

    /** At check level 2 every fresh or coalesced block is filled with
     *  this byte, so a read of arena storage before it is written changes
     *  results under the Debug and sanitizer test runs. */
    static constexpr unsigned char kPoisonByte = 0xA5;

    explicit Arena(std::size_t first_block_bytes = kDefaultBlockBytes);

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * An uninitialized range of @p bytes aligned to @p align (a power of
     * two, at most alignof(std::max_align_t)). Valid until reset().
     */
    void *allocate(std::size_t bytes, std::size_t align);

    /** Typed convenience: room for @p n objects of T (uninitialized). */
    template <typename T>
    T *
    allocate(std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena storage is never destructed");
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /**
     * Invalidate every outstanding allocation and rewind. Capacity is
     * retained; a fragmented chain (more than one block) is coalesced into
     * a single block of the summed capacity so the fragmentation that
     * forced the chain cannot recur.
     */
    void reset();

    /** Bytes handed out since the last reset (diagnostics/tests). */
    std::size_t bytesAllocated() const { return allocated_; }

    /** Total bytes of owned block storage (diagnostics/tests). */
    std::size_t capacity() const;

    /** Number of blocks in the chain (1 in steady state). */
    std::size_t blockCount() const { return blocks_.size(); }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    /** Make block @p cur_ + 1 exist with at least @p min_bytes capacity. */
    void grow(std::size_t min_bytes);

    std::vector<Block> blocks_;
    std::size_t cur_ = 0;       ///< index of the block being bumped
    std::size_t off_ = 0;       ///< bump cursor within blocks_[cur_]
    std::size_t allocated_ = 0; ///< bytes handed out since reset()
};

/**
 * Minimal vector over arena storage for trivially copyable T. Clearing and
 * destruction never free (the arena owns the bytes); growth allocates a
 * fresh range and memcpys. The renderer re-points these at the start of
 * every draw (RenderScratch::beginDraw), right after the arena reset that
 * invalidated the previous draw's storage.
 */
template <typename T>
class ArenaVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ArenaVector elements are memcpy-relocated, never "
                  "destructed");

  public:
    ArenaVector() = default;

    /** Bind to @p arena and forget any previous (now-invalid) storage. */
    void
    attach(Arena &arena)
    {
        arena_ = &arena;
        data_ = nullptr;
        size_ = 0;
        cap_ = 0;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    T *data() { return data_; }
    const T *data() const { return data_; }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T &
    operator[](std::size_t i)
    {
        CHOPIN_DCHECK(i < size_);
        return data_[i];
    }
    const T &
    operator[](std::size_t i) const
    {
        CHOPIN_DCHECK(i < size_);
        return data_[i];
    }

    T &back() { return data_[size_ - 1]; }

    void clear() { size_ = 0; }

    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            regrow(n);
    }

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            regrow(size_ + 1);
        data_[size_++] = v;
    }

    /** Exactly @p n copies of @p v (the std::vector::assign shape). */
    void
    assign(std::size_t n, const T &v)
    {
        // `this->`: receiver-qualified so the analyzer's lite frontend
        // treats `reserve` as std-vocabulary instead of name-matching it
        // to unrelated classes (ir.AMBIGUOUS_METHOD_NAMES).
        this->reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            data_[i] = v;
        size_ = n;
    }

    /**
     * Size to @p n without initializing new elements — for slab protocols
     * where disjoint ranges are filled externally (e.g. parallel geometry
     * chunks) before shrinkTo() trims to the defined prefix.
     */
    void
    resizeUninitialized(std::size_t n)
    {
        this->reserve(n); // receiver-qualified: see assign()
        size_ = n;
    }

    /** Shrink to a prefix whose elements are fully written. */
    void
    shrinkTo(std::size_t n)
    {
        CHOPIN_DCHECK(n <= size_);
        size_ = n;
    }

  private:
    void
    regrow(std::size_t need)
    {
        CHOPIN_CHECK(arena_ != nullptr,
                     "ArenaVector used before attach()");
        std::size_t ncap = cap_ < 64 ? 64 : cap_ * 2;
        if (ncap < need)
            ncap = need;
        T *ndata = arena_->allocate<T>(ncap);
        if (size_ > 0)
            std::memcpy(static_cast<void *>(ndata), data_,
                        size_ * sizeof(T));
        data_ = ndata;
        cap_ = ncap;
    }

    Arena *arena_ = nullptr;
    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

} // namespace chopin

#endif // CHOPIN_UTIL_ARENA_HH
