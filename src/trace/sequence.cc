#include "trace/sequence.hh"

#include "util/check.hh"

namespace chopin
{

std::string
toString(CameraPath p)
{
    switch (p) {
      case CameraPath::Static:
        return "static";
      case CameraPath::Orbit:
        return "orbit";
      case CameraPath::Dolly:
        return "dolly";
    }
    CHOPIN_CHECK(false, "unknown CameraPath ", static_cast<int>(p));
}

namespace
{

/** Does @p scratch already hold this base's draw list (geometry reusable)? */
bool
holdsBase(const FrameTrace &scratch, const FrameTrace &base)
{
    if (scratch.name != base.name || scratch.full_name != base.full_name ||
        scratch.draws.size() != base.draws.size())
        return false;
    for (std::size_t i = 0; i < base.draws.size(); ++i)
        if (scratch.draws[i].id != base.draws[i].id ||
            scratch.draws[i].triangles.size() !=
                base.draws[i].triangles.size())
            return false;
    return true;
}

} // namespace

void
SequenceTrace::materializeFrame(std::size_t index, FrameTrace &scratch) const
{
    CHOPIN_CHECK(index < frames.size(), "frame index ", index,
                 " out of range (sequence has ", frames.size(), " frames)");
    // One full copy (including the triangle storage) on first use; every
    // later frame only swaps matrices on the shared geometry.
    if (!holdsBase(scratch, base))
        scratch = base;

    const FrameKey &key = frames[index];
    scratch.view_proj = key.view_proj;
    for (std::size_t i = 0; i < base.draws.size(); ++i)
        scratch.draws[i].model = base.draws[i].model;
    for (const auto &[draw, model] : key.transforms) {
        CHOPIN_CHECK(draw < scratch.draws.size(),
                     "frame key overrides draw ", draw,
                     " but the base has only ", scratch.draws.size(),
                     " draws");
        scratch.draws[draw].model = model;
    }
}

FrameTrace
SequenceTrace::frame(std::size_t index) const
{
    FrameTrace out;
    materializeFrame(index, out);
    return out;
}

SequenceTrace
sequenceFromFrame(FrameTrace frame)
{
    SequenceTrace seq;
    seq.path = CameraPath::Static;
    seq.frames.resize(1);
    seq.frames[0].view_proj = frame.view_proj;
    seq.base = std::move(frame);
    return seq;
}

} // namespace chopin
