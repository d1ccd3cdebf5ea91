#include "sfr/grouping.hh"

#include "comp/operators.hh"

namespace chopin
{

namespace
{

/** The boundary event separating @p prev from @p next, if any. */
bool
boundaryBetween(const RasterState &prev, const RasterState &next,
                BoundaryEvent &event)
{
    if (prev.render_target != next.render_target ||
        prev.depth_buffer != next.depth_buffer) {
        event = BoundaryEvent::RenderTarget;
        return true;
    }
    if (prev.depth_write != next.depth_write ||
        prev.depth_test != next.depth_test) {
        event = BoundaryEvent::DepthWrite;
        return true;
    }
    if (prev.depth_func != next.depth_func && next.depth_test) {
        event = BoundaryEvent::DepthFunc;
        return true;
    }
    // Stencil state is part of the fragment occlusion test (event 4).
    if (prev.stencil_test != next.stencil_test ||
        (next.stencil_test &&
         (prev.stencil_func != next.stencil_func ||
          prev.stencil_ref != next.stencil_ref ||
          prev.stencil_pass_op != next.stencil_pass_op))) {
        event = BoundaryEvent::DepthFunc;
        return true;
    }
    if (prev.blend_op != next.blend_op) {
        event = BoundaryEvent::BlendOp;
        return true;
    }
    return false;
}

} // namespace

std::vector<CompositionGroup>
formGroups(const FrameTrace &trace)
{
    std::vector<CompositionGroup> groups;
    if (trace.draws.empty())
        return groups;

    auto open = [&](std::uint32_t first, BoundaryEvent ev) {
        CompositionGroup g;
        g.id = static_cast<GroupId>(groups.size());
        g.first_draw = first;
        g.last_draw = first;
        g.opened_by = ev;
        const RasterState &s = trace.draws[first].state;
        g.render_target = s.render_target;
        g.depth_buffer = s.depth_buffer;
        g.depth_test = s.depth_test;
        g.depth_write = s.depth_write;
        g.depth_func = s.depth_func;
        g.blend_op = s.blend_op;
        g.stencil_test = s.stencil_test;
        g.triangles = trace.draws[first].triangleCount();
        groups.push_back(g);
    };

    open(0, BoundaryEvent::FrameStart);
    for (std::uint32_t i = 1; i < trace.draws.size(); ++i) {
        BoundaryEvent ev;
        if (boundaryBetween(trace.draws[i - 1].state, trace.draws[i].state,
                            ev)) {
            open(i, ev);
        } else {
            groups.back().last_draw = i;
            groups.back().triangles += trace.draws[i].triangleCount();
        }
    }
    return groups;
}

bool
groupDistributable(const CompositionGroup &group, std::uint64_t threshold)
{
    if (group.triangles < threshold)
        return false; // small group: redundant geometry is cheaper (Fig. 7)
    if (group.stencil_test) {
        // The stencil buffer is region-distributed like the depth buffer;
        // a remote GPU neither holds the values to test against nor can
        // its updates be merged out-of-order. Run duplicated.
        return false;
    }
    if (group.transparent()) {
        // Transparent sub-images are composed associatively in input order;
        // with the depth test disabled (effect rendering) no cross-GPU depth
        // state is needed.
        return !group.depth_test;
    }
    if (group.depth_test && !group.depth_write) {
        // Depth-read-only draws test against the region-distributed depth
        // buffer, which a remote GPU does not hold; run duplicated.
        return false;
    }
    if (group.depth_test && !composableDepthFunc(group.depth_func))
        return false; // Equal/NotEqual/Never cannot be re-ordered
    return true;
}

} // namespace chopin
