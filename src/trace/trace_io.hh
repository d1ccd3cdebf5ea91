/**
 * @file
 * Binary (de)serialization of frame traces and frame sequences.
 *
 * Lets users regenerate a trace once and reuse it across sweeps, or author
 * traces with external tools. The format is a simple little-endian dump
 * with a magic/version header: v3 is a single frame, v4 a frame sequence
 * (trace/sequence.hh) — one shared geometry payload plus per-frame
 * animation keys, so an N-frame sequence file is barely larger than one
 * frame.
 *
 * Error-handling contract (uniform across every function here):
 *  - save*() returns false on open or write failure and never fatal()s.
 *  - load*() returns false — after a warn() diagnostic naming the path and
 *    the problem — on open failure, truncation, corruption, or an
 *    unsupported version, and never fatal()s: callers decide whether a bad
 *    trace file is fatal for *them*. On false the output object is
 *    valid but unspecified.
 *  - Version upgrades are automatic where meaning-preserving:
 *    loadSequence() reads a v3 single-frame file as a 1-frame sequence
 *    (sequenceFromFrame), and loadTrace() reads a v4 file whose sequence
 *    has exactly one frame. loadTrace() on a longer sequence fails with a
 *    diagnostic pointing at loadSequence() — collapsing a stream to one
 *    frame would silently change the workload.
 */

#ifndef CHOPIN_TRACE_TRACE_IO_HH
#define CHOPIN_TRACE_TRACE_IO_HH

#include <string>

#include "trace/draw_command.hh"
#include "trace/sequence.hh"

namespace chopin
{

/** Serialize @p trace to @p path (format v3). @return false on IO failure. */
bool saveTrace(const FrameTrace &trace, const std::string &path);

/**
 * Load a single-frame trace: a v3 file, or a v4 file holding exactly one
 * frame (materialized through its animation key). See the error contract
 * above; @return false on any failure.
 */
bool loadTrace(FrameTrace &trace, const std::string &path);

/** Serialize @p seq to @p path (format v4). @return false on IO failure. */
bool saveSequence(const SequenceTrace &seq, const std::string &path);

/**
 * Load a frame sequence: a v4 file, or — via the in-place upgrader — a v3
 * single-frame file as a 1-frame Static sequence that fingerprints
 * identically to its natively authored equivalent. See the error contract
 * above; @return false on any failure.
 */
bool loadSequence(SequenceTrace &seq, const std::string &path);

/**
 * Canonical content fingerprint of a trace: covers every field the
 * simulator consumes (viewport, matrices, clear state, and each draw's
 * state, transform and triangle data, in order). Two traces fingerprint
 * equal iff a scheme run on them is guaranteed to produce identical
 * results. Used by the sweep engine's result cache (core/sweep.hh) as the
 * trace half of the cache key.
 */
std::uint64_t traceFingerprint(const FrameTrace &trace);

/**
 * Canonical content fingerprint of a sequence: the base trace fingerprint
 * plus the camera path, every coherence knob, the frame count, and every
 * per-frame key (camera matrix and each model-matrix override, in order).
 * Two sequences fingerprint equal iff runSequence() on them is guaranteed
 * to produce identical results, whichever trace version they loaded from.
 */
std::uint64_t sequenceFingerprint(const SequenceTrace &seq);

} // namespace chopin

#endif // CHOPIN_TRACE_TRACE_IO_HH
