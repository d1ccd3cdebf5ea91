#include "comp/operators.hh"

#include "util/check.hh"

namespace chopin
{

bool
opaqueWins(DepthFunc func, const OpaquePixel &in, const OpaquePixel &cur)
{
    std::int64_t in_w = effectiveWriter(in.writer);
    std::int64_t cur_w = effectiveWriter(cur.writer);

    switch (func) {
      case DepthFunc::Always:
        // Depth is ignored; in-order rendering keeps the last-drawn fragment.
        return in_w > cur_w;
      case DepthFunc::Less:
      case DepthFunc::LessEqual: {
        if (in.depth != cur.depth)
            return in.depth < cur.depth;
        // Depth tie: strict comparison keeps the earliest writer (a later
        // equal-depth fragment would have failed the in-order test);
        // less-equal keeps the latest (it would have passed and overwritten).
        return func == DepthFunc::Less ? in_w < cur_w : in_w > cur_w;
      }
      case DepthFunc::Greater:
      case DepthFunc::GreaterEqual: {
        if (in.depth != cur.depth)
            return in.depth > cur.depth;
        return func == DepthFunc::Greater ? in_w < cur_w : in_w > cur_w;
      }
      default:
        CHOPIN_CHECK(false, "opaqueWins: non-composable depth function ",
                     toString(func));
    }
}

Color
transparentIdentity(BlendOp op)
{
    switch (op) {
      case BlendOp::Over:     return {0.0f, 0.0f, 0.0f, 0.0f};
      case BlendOp::Additive: return {0.0f, 0.0f, 0.0f, 0.0f};
      case BlendOp::Multiply: return {1.0f, 1.0f, 1.0f, 1.0f};
      case BlendOp::Opaque:   break;
    }
    CHOPIN_CHECK(false, "transparentIdentity: opaque has no blend identity");
}

Color
mergeTransparent(BlendOp op, const Color &front, const Color &back)
{
    switch (op) {
      case BlendOp::Over: {
        // Premultiplied source-over of two partial composites.
        float t = 1.0f - front.a;
        return {front.r + t * back.r, front.g + t * back.g,
                front.b + t * back.b, front.a + t * back.a};
      }
      case BlendOp::Additive:
        // Alpha sums so the identity (0) is neutral; the channel carries no
        // visual meaning for additive content.
        return {front.r + back.r, front.g + back.g, front.b + back.b,
                front.a + back.a};
      case BlendOp::Multiply:
        return {front.r * back.r, front.g * back.g, front.b * back.b,
                front.a * back.a};
      case BlendOp::Opaque:
        break;
    }
    CHOPIN_CHECK(false,
                 "mergeTransparent: opaque is not a transparent operator");
}

Color
finalizeTransparent(BlendOp op, const Color &acc, const Color &background)
{
    switch (op) {
      case BlendOp::Over: {
        float t = 1.0f - acc.a;
        return {acc.r + t * background.r, acc.g + t * background.g,
                acc.b + t * background.b, acc.a + t * background.a};
      }
      case BlendOp::Additive:
        return {background.r + acc.r, background.g + acc.g,
                background.b + acc.b, background.a};
      case BlendOp::Multiply:
        return {background.r * acc.r, background.g * acc.g,
                background.b * acc.b, background.a};
      case BlendOp::Opaque:
        break;
    }
    CHOPIN_CHECK(false,
                 "finalizeTransparent: opaque is not a transparent operator");
}

} // namespace chopin
