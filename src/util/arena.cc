#include "util/arena.hh"

#include <cstring>
#include <memory>

namespace chopin
{

namespace
{

/**
 * Block storage of @p size bytes, uninitialized: arena memory is always
 * written before it is read, so zero-filling a block would only page in
 * memory no draw may ever touch. Debug builds fill it with
 * Arena::kPoisonByte instead, so a read before a write changes results.
 */
std::unique_ptr<std::byte[]>
newBlock(std::size_t size)
{
    auto data = std::make_unique_for_overwrite<std::byte[]>(size);
#if CHOPIN_CHECK_LEVEL >= 2
    std::memset(data.get(), Arena::kPoisonByte, size);
#endif
    return data;
}

} // namespace

Arena::Arena(std::size_t first_block_bytes)
{
    Block b;
    b.size = first_block_bytes < 64 ? 64 : first_block_bytes;
    b.data = newBlock(b.size);
    blocks_.push_back(std::move(b));
}

void *
Arena::allocate(std::size_t bytes, std::size_t align)
{
    CHOPIN_DCHECK(align != 0 && (align & (align - 1)) == 0,
                  "alignment must be a power of two");
    CHOPIN_DCHECK(align <= alignof(std::max_align_t));
    if (bytes == 0)
        bytes = 1; // distinct non-null pointers, like operator new

    Block &blk = blocks_[cur_];
    std::size_t aligned = (off_ + (align - 1)) & ~(align - 1);
    if (aligned + bytes > blk.size) {
        grow(bytes);
        // grow() advanced cur_ to a fresh block; new-block bases are
        // max_align_t-aligned, so offset 0 satisfies any valid align.
        off_ = 0;
        aligned = 0;
    }
    off_ = aligned + bytes;
    allocated_ += bytes;
    return blocks_[cur_].data.get() + aligned;
}

void
Arena::grow(std::size_t min_bytes)
{
    // Next block doubles the previous capacity (amortized growth) and is
    // always big enough for the allocation that overflowed — oversized
    // requests get a dedicated block instead of failing.
    std::size_t want = blocks_[cur_].size * 2;
    if (want < min_bytes)
        want = min_bytes;
    Block b;
    b.size = want;
    b.data = newBlock(b.size);
    blocks_.push_back(std::move(b));
    cur_ = blocks_.size() - 1;
}

void
Arena::reset()
{
    if (blocks_.size() > 1) {
        // Coalesce: one block of the summed capacity replaces the chain,
        // so the draw size that forced chaining now fits contiguously.
        std::size_t total = capacity();
        blocks_.clear();
        Block b;
        b.size = total;
        b.data = newBlock(b.size);
        blocks_.push_back(std::move(b));
    }
    cur_ = 0;
    off_ = 0;
    allocated_ = 0;
}

std::size_t
Arena::capacity() const
{
    std::size_t total = 0;
    for (const Block &b : blocks_)
        total += b.size;
    return total;
}

} // namespace chopin
