/**
 * @file
 * Fundamental scalar type aliases shared across the CHOPIN code base.
 */

#ifndef CHOPIN_UTIL_TYPES_HH
#define CHOPIN_UTIL_TYPES_HH

#include <cstdint>

namespace chopin
{

/** Simulated time, measured in GPU core-clock cycles (1 GHz default). */
using Tick = std::uint64_t;

/** Identifier of a GPU within the multi-GPU system (0-based, dense). */
using GpuId = std::uint32_t;

/** Identifier of a draw command within one frame trace (0-based, dense). */
using DrawId = std::uint32_t;

/** Identifier of a composition group within one frame (0-based, dense). */
using GroupId = std::uint32_t;

/** Sentinel for "no GPU" / "unassigned". */
inline constexpr GpuId invalidGpu = ~GpuId(0);

/** Largest representable simulated time; the "never" sentinel. */
inline constexpr Tick kTickMax = ~Tick(0);

/** Byte counts for traffic accounting. */
using Bytes = std::uint64_t;

} // namespace chopin

#endif // CHOPIN_UTIL_TYPES_HH
