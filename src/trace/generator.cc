#include "trace/generator.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hh"
#include "util/rng.hh"

namespace chopin
{

namespace
{

/** What kind of draw a slot in the frame plan is. */
enum class DrawKind
{
    Background,   ///< full-screen far-plane quadrants
    Object,       ///< opaque scene geometry
    RtPass,       ///< opaque draw into an intermediate render target
    DepthReadonly,///< decal: tests depth but does not write it
    FuncChange,   ///< small draw with a non-default depth function
    Composite,    ///< samples an intermediate RT onto the frame (bloom)
    StencilMask,  ///< writes the stencil mask (event 4 boundary)
    StencilDecal, ///< overlay drawn only where the mask was written
    Transparent,  ///< over-blended surface
    Particle,     ///< additively blended particles
};

/** Plan of one draw before geometry emission. */
struct DrawPlan
{
    DrawKind kind = DrawKind::Object;
    std::uint64_t tris = 1;
    std::uint32_t render_target = 0;
    DepthFunc func = DepthFunc::LessEqual;
    bool depth_write = true;
    BlendOp blend = BlendOp::Opaque;
    bool shader_discard = false;
    bool stencil_test = false;
    DepthFunc stencil_func = DepthFunc::Always;
    StencilOp stencil_op = StencilOp::Keep;
    std::int32_t texture_rt = -1;
    // Cluster placement (NDC): center, radius, and depth band.
    float cx = 0, cy = 0, radius = 0.2f, depth = 0.5f;
};

/** Uniform color with per-benchmark hue variation. */
Color
randomColor(Rng &rng, float alpha)
{
    return {rng.nextFloat(0.1f, 1.0f), rng.nextFloat(0.1f, 1.0f),
            rng.nextFloat(0.1f, 1.0f), alpha};
}

/**
 * Emit one screen-localized triangle of roughly @p area_px pixels around
 * (cx, cy) at NDC depth band @p depth. Front-facing unless @p backface.
 */
Triangle
makeTriangle(Rng &rng, const BenchmarkProfile &p, float cx, float cy,
             float radius, float depth, double area_px, bool backface,
             float alpha)
{
    // Convert the pixel-area target to NDC scale: screen area of an NDC
    // triangle is scaled by (w/2)*(h/2).
    double ndc_area = area_px / (0.25 * p.width * p.height);
    float s = static_cast<float>(std::sqrt(2.0 * std::max(1e-8, ndc_area)));

    float px = cx + rng.nextFloat(-radius, radius);
    float py = cy + rng.nextFloat(-radius, radius);
    float angle = rng.nextFloat(0.0f, 6.2831853f);
    float ca = std::cos(angle), sa = std::sin(angle);

    // Base shape: right triangle with legs s; rotated by `angle`.
    Vec2 o[3] = {{0.0f, 0.0f}, {s, 0.0f}, {0.0f, s}};
    Vec3 v[3];
    for (int i = 0; i < 3; ++i) {
        float rx = o[i].x * ca - o[i].y * sa;
        float ry = o[i].x * sa + o[i].y * ca;
        v[i] = {px + rx, py + ry,
                // NDC z in [-1, 1]; depth parameter is screen-space [0, 1].
                2.0f * (depth + rng.nextFloat(-0.004f, 0.004f)) - 1.0f};
    }

    // Make front-facing: screen y is flipped relative to NDC, so a
    // screen-space counter-clockwise (positive-area) triangle is clockwise
    // (negative cross product) in NDC.
    float ndc_area2 = (v[1].x - v[0].x) * (v[2].y - v[0].y) -
                      (v[2].x - v[0].x) * (v[1].y - v[0].y);
    bool front = ndc_area2 < 0.0f;
    if (front == backface)
        std::swap(v[1], v[2]);

    Triangle tri;
    Color base = randomColor(rng, alpha);
    for (int i = 0; i < 3; ++i) {
        tri.v[i].pos = v[i];
        // Slight per-vertex shading variation.
        tri.v[i].color = clamp01(base * rng.nextFloat(0.85f, 1.15f));
        tri.v[i].color.a = alpha;
    }
    return tri;
}

/** Two triangles covering the axis-aligned NDC rectangle, front-facing. */
void
makeQuad(std::vector<Triangle> &out, float x0, float y0, float x1, float y1,
         float depth, const Color &c)
{
    float z = 2.0f * depth - 1.0f;
    Vec3 a{x0, y0, z}, b{x1, y0, z}, d{x0, y1, z}, e{x1, y1, z};
    // NDC clockwise => screen counter-clockwise (front-facing).
    Triangle t1, t2;
    t1.v[0] = {a, c};
    t1.v[1] = {d, c};
    t1.v[2] = {b, c};
    t2.v[0] = {b, c};
    t2.v[1] = {d, c};
    t2.v[2] = {e, c};
    out.push_back(t1);
    out.push_back(t2);
}

/**
 * Distribute @p total triangles over @p weights proportionally, rounding so
 * the sum is exact (largest remainder method), with a minimum of
 * @p min_each per slot.
 */
std::vector<std::uint64_t>
apportion(std::uint64_t total, const std::vector<double> &weights,
          std::uint64_t min_each)
{
    std::size_t n = weights.size();
    CHOPIN_CHECK(n > 0);
    CHOPIN_CHECK(total >= min_each * n, "cannot apportion ", total,
                 " triangles over ", n, " draws with minimum ", min_each);

    double wsum = std::accumulate(weights.begin(), weights.end(), 0.0);
    std::uint64_t budget = total - min_each * n;

    std::vector<std::uint64_t> out(n, min_each);
    std::vector<std::pair<double, std::size_t>> remainders(n);
    std::uint64_t assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
        double share = static_cast<double>(budget) * (weights[i] / wsum);
        std::uint64_t whole = static_cast<std::uint64_t>(share);
        out[i] += whole;
        assigned += whole;
        remainders[i] = {share - static_cast<double>(whole), i};
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    std::uint64_t leftover = budget - assigned;
    for (std::uint64_t k = 0; k < leftover; ++k)
        out[remainders[k % n].second] += 1;
    return out;
}

} // namespace

FrameTrace
generateTrace(const BenchmarkProfile &p)
{
    CHOPIN_CHECK(p.num_draws >= 16, "profile needs at least 16 draws");
    Rng rng(p.seed);

    // ---- 1. Partition the draw budget over draw kinds. -------------------
    int n_bg = std::max(2, static_cast<int>(p.background_draw_frac *
                                            p.num_draws * 0.25));
    int n_trans = std::max(2, static_cast<int>(p.transparent_draw_frac *
                                               p.num_draws));
    int n_part = std::max(1, static_cast<int>(n_trans * p.additive_frac));
    n_trans -= n_part;
    int n_ro = p.depth_readonly_draws;
    int n_fc = p.depth_func_changes * 2; // each change is a small pair
    int n_st = p.stencil_draws > 0 ? p.stencil_draws + 1 : 0; // +1 mask
    int rt_block = 6; // draws per intermediate render-target pass
    // Each pass additionally gets one composite draw that samples the
    // intermediate target back onto the frame (bloom-style).
    int n_rt = p.rt_passes * (rt_block + 1);
    int n_obj =
        p.num_draws - n_bg - n_trans - n_part - n_ro - n_fc - n_rt - n_st;
    CHOPIN_CHECK(n_obj > 8, "profile '", p.name,
                 "' leaves too few object draws: ", n_obj);

    // ---- 2. Lay out the frame as an ordered list of draw plans. ----------
    std::vector<DrawPlan> plan;
    plan.reserve(p.num_draws);

    for (int i = 0; i < n_bg; ++i) {
        DrawPlan d;
        d.kind = DrawKind::Background;
        d.tris = 2;
        d.depth = 0.998f;
        plan.push_back(d);
    }

    // Object draws: clusters sorted roughly front-to-back. Cluster centers
    // are stratified over a jittered grid: real frames tile the screen with
    // distinct objects rather than piling them up, so most depth-culling is
    // intra-object (which CHOPIN preserves on a single GPU) rather than
    // between far-apart draws (which it loses across GPUs) — this is what
    // keeps the extra-fragment overhead of Fig. 15 small.
    std::vector<DrawPlan> objects;
    int strata = std::max(1, static_cast<int>(std::ceil(
                                  std::sqrt(static_cast<double>(n_obj)))));
    std::vector<int> cells(static_cast<std::size_t>(strata) * strata);
    std::iota(cells.begin(), cells.end(), 0);
    for (std::size_t k = cells.size(); k > 1; --k)
        std::swap(cells[k - 1], cells[rng.nextBounded(static_cast<std::uint32_t>(k))]);
    float cell_size = 1.8f / static_cast<float>(strata);
    for (int i = 0; i < n_obj; ++i) {
        DrawPlan d;
        d.kind = DrawKind::Object;
        d.shader_discard = rng.nextBool(p.shader_discard_frac);
        bool off = rng.nextBool(p.offscreen_frac);
        int cell = cells[static_cast<std::size_t>(i) % cells.size()];
        float cell_x = -0.9f + cell_size * static_cast<float>(cell % strata);
        float cell_y = -0.9f + cell_size * static_cast<float>(cell / strata);
        d.cx = off ? (rng.nextBool(0.5) ? 1.0f : -1.0f) *
                         rng.nextFloat(0.95f, 1.25f)
                   : cell_x + rng.nextFloat(0.0f, cell_size);
        d.cy = cell_y + rng.nextFloat(0.0f, cell_size);
        d.radius = static_cast<float>(p.cluster_radius_frac) * 2.0f *
                   rng.nextFloat(0.5f, 1.5f);
        d.depth = rng.nextFloat(0.05f, 0.95f);
        objects.push_back(d);
    }
    std::sort(objects.begin(), objects.end(),
              [](const DrawPlan &a, const DrawPlan &b) {
                  return a.depth < b.depth; // front-to-back
              });
    // Perturb the strict order a little (real streams are only roughly
    // sorted): swap random nearby pairs.
    for (int i = 0; i < n_obj / 4; ++i) {
        int a = static_cast<int>(rng.nextBounded(std::max(1, n_obj - 3)));
        std::swap(objects[a], objects[a + 2]);
    }

    // Interleave RT passes, depth-readonly decals and func changes at fixed
    // positions inside the object section.
    std::size_t obj_cursor = 0;
    auto emit_objects = [&](std::size_t count) {
        for (std::size_t i = 0; i < count && obj_cursor < objects.size(); ++i)
            plan.push_back(objects[obj_cursor++]);
    };

    int segments = p.rt_passes + p.depth_func_changes + (n_ro > 0 ? 1 : 0) + 1;
    std::size_t per_segment = objects.size() / std::max(1, segments);

    for (int pass = 0; pass < p.rt_passes; ++pass) {
        emit_objects(per_segment);
        for (int i = 0; i < rt_block; ++i) {
            DrawPlan d;
            d.kind = DrawKind::RtPass;
            d.render_target = static_cast<std::uint32_t>(1 + pass);
            d.cx = rng.nextFloat(-0.7f, 0.7f);
            d.cy = rng.nextFloat(-0.7f, 0.7f);
            d.radius = 0.06f;
            d.depth = rng.nextFloat(0.1f, 0.9f);
            plan.push_back(d);
        }
        // Composite the intermediate target onto the frame: a full-screen
        // additive quad whose shader samples the just-rendered RT (this is
        // what makes the Section V consistency broadcast load-bearing).
        DrawPlan comp;
        comp.kind = DrawKind::Composite;
        comp.blend = BlendOp::Additive;
        comp.depth_write = false;
        comp.texture_rt = static_cast<std::int32_t>(1 + pass);
        comp.cx = rng.nextFloat(-0.5f, 0.1f);
        comp.cy = rng.nextFloat(-0.5f, 0.1f);
        comp.radius = 0.25f; // composite region half-extent
        comp.depth = 0.5f;
        plan.push_back(comp);
    }

    for (int c = 0; c < p.depth_func_changes; ++c) {
        emit_objects(per_segment);
        for (int i = 0; i < 2; ++i) {
            DrawPlan d;
            d.kind = DrawKind::FuncChange;
            d.func = DepthFunc::GreaterEqual;
            d.cx = rng.nextFloat(-0.8f, 0.8f);
            d.cy = rng.nextFloat(-0.8f, 0.8f);
            d.radius = 0.15f;
            d.depth = rng.nextFloat(0.3f, 0.98f);
            plan.push_back(d);
        }
    }

    if (n_ro > 0) {
        emit_objects(per_segment);
        for (int i = 0; i < n_ro; ++i) {
            DrawPlan d;
            d.kind = DrawKind::DepthReadonly;
            d.depth_write = false;
            d.cx = rng.nextFloat(-0.8f, 0.8f);
            d.cy = rng.nextFloat(-0.8f, 0.8f);
            d.radius = 0.1f;
            d.depth = rng.nextFloat(0.1f, 0.9f);
            plan.push_back(d);
        }
    }
    if (n_st > 0) {
        // A stencil mask (replace ref=1 over a small region), then decals
        // drawn only where the mask is set (stencil func Equal).
        float mx = rng.nextFloat(-0.5f, 0.5f);
        float my = rng.nextFloat(-0.5f, 0.5f);
        DrawPlan mask;
        mask.kind = DrawKind::StencilMask;
        mask.stencil_test = true;
        mask.stencil_func = DepthFunc::Always;
        mask.stencil_op = StencilOp::Replace;
        mask.depth_write = false;
        mask.cx = mx;
        mask.cy = my;
        mask.radius = 0.12f;
        mask.depth = rng.nextFloat(0.1f, 0.5f);
        plan.push_back(mask);
        for (int i = 0; i < p.stencil_draws; ++i) {
            DrawPlan d;
            d.kind = DrawKind::StencilDecal;
            d.stencil_test = true;
            d.stencil_func = DepthFunc::Equal;
            d.stencil_op = StencilOp::Keep;
            d.depth_write = false;
            d.cx = mx + rng.nextFloat(-0.1f, 0.1f);
            d.cy = my + rng.nextFloat(-0.1f, 0.1f);
            d.radius = 0.18f; // larger than the mask: clipping matters
            d.depth = mask.depth * rng.nextFloat(0.5f, 0.95f);
            plan.push_back(d);
        }
    }
    emit_objects(objects.size() - obj_cursor);

    // Transparent tail: over-blended surfaces back-to-front, then particles.
    std::vector<DrawPlan> trans;
    for (int i = 0; i < n_trans; ++i) {
        DrawPlan d;
        d.kind = DrawKind::Transparent;
        d.blend = BlendOp::Over;
        d.depth_write = false;
        d.cx = rng.nextFloat(-0.8f, 0.8f);
        d.cy = rng.nextFloat(-0.8f, 0.8f);
        d.radius = static_cast<float>(p.cluster_radius_frac) * 2.5f;
        d.depth = rng.nextFloat(0.05f, 0.9f);
        trans.push_back(d);
    }
    std::sort(trans.begin(), trans.end(),
              [](const DrawPlan &a, const DrawPlan &b) {
                  return a.depth > b.depth; // back-to-front
              });
    for (const DrawPlan &d : trans)
        plan.push_back(d);
    for (int i = 0; i < n_part; ++i) {
        DrawPlan d;
        d.kind = DrawKind::Particle;
        d.blend = BlendOp::Additive;
        d.depth_write = false;
        d.cx = rng.nextFloat(-0.8f, 0.8f);
        d.cy = rng.nextFloat(-0.8f, 0.8f);
        d.radius = static_cast<float>(p.cluster_radius_frac) * 2.0f;
        d.depth = rng.nextFloat(0.05f, 0.6f);
        plan.push_back(d);
    }

    CHOPIN_CHECK(plan.size() == static_cast<std::size_t>(p.num_draws),
                 "frame plan has ", plan.size(), " draws, expected ",
                 p.num_draws);

    // ---- 3. Apportion the triangle budget. --------------------------------
    std::vector<double> weights(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        switch (plan[i].kind) {
          case DrawKind::Background:
            weights[i] = 0.0; // fixed 2 triangles, min_each covers it
            break;
          case DrawKind::Composite:
            weights[i] = 0.0; // fixed full-screen quad
            break;
          case DrawKind::RtPass:
          case DrawKind::FuncChange:
          case DrawKind::DepthReadonly:
          case DrawKind::StencilMask:
          case DrawKind::StencilDecal:
            weights[i] = 0.15 * rng.nextLogNormal(0.0, 0.6);
            break;
          case DrawKind::Transparent:
          case DrawKind::Particle:
            weights[i] = 0.4 * rng.nextLogNormal(0.0, 0.8);
            break;
          case DrawKind::Object:
            weights[i] = rng.nextLogNormal(0.0, p.draw_size_sigma);
            break;
        }
    }
    std::vector<std::uint64_t> tri_counts =
        apportion(p.num_triangles, weights, 2);
    std::uint64_t total_obj_tris = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        plan[i].tris = tri_counts[i];
        if (plan[i].kind != DrawKind::Background)
            total_obj_tris += tri_counts[i];
    }

    // Mean small-triangle screen area from the overdraw target. Large
    // triangles (decals/terrain) may take at most 40% of the coverage
    // budget: their *frequency* is scaled down if the profile's nominal
    // fraction would exceed it, so the overdraw target is always honoured.
    double visible = static_cast<double>(total_obj_tris) *
                     (1.0 - p.backface_frac);
    double budget_px = p.overdraw * p.width * p.height;
    double nominal_large_px =
        visible * p.large_triangle_frac * p.large_triangle_area;
    double large_budget = 0.4 * budget_px;
    double eff_large_frac = p.large_triangle_frac;
    if (nominal_large_px > large_budget && nominal_large_px > 0.0)
        eff_large_frac *= large_budget / nominal_large_px;
    double large_px = visible * eff_large_frac * p.large_triangle_area;
    double mean_small_area = std::max(
        0.5, (budget_px - large_px) /
                 std::max(1.0, visible * (1.0 - eff_large_frac)));

    // ---- 4. Emit geometry. -----------------------------------------------
    FrameTrace trace;
    trace.name = p.name;
    trace.full_name = p.full_name;
    trace.viewport = {p.width, p.height};
    trace.view_proj = Mat4::identity();
    trace.num_render_targets = 1 + static_cast<std::uint32_t>(p.rt_passes);
    trace.num_depth_buffers = trace.num_render_targets;
    trace.draws.reserve(plan.size());

    for (std::size_t i = 0; i < plan.size(); ++i) {
        const DrawPlan &d = plan[i];
        DrawCommand cmd;
        cmd.id = static_cast<DrawId>(i);
        cmd.state.render_target = d.render_target;
        cmd.state.depth_buffer = d.render_target;
        // Transparent effects (glass, particles) are emitted with the depth
        // test disabled, as DX9-era engines commonly do; this also matches
        // the paper's transparent-composition model, which exchanges only
        // color/coverage between GPUs.
        cmd.state.depth_test = !isTransparent(d.blend);
        cmd.state.depth_write = d.depth_write && !isTransparent(d.blend);
        cmd.state.depth_func = d.func;
        cmd.state.blend_op = d.blend;
        cmd.state.shader_discard = d.shader_discard;
        cmd.state.stencil_test = d.stencil_test;
        cmd.state.stencil_func = d.stencil_func;
        cmd.state.stencil_ref = 1;
        cmd.state.stencil_pass_op = d.stencil_op;
        cmd.texture_rt = d.texture_rt;
        cmd.alpha_ref = 0.3f;
        cmd.triangles.reserve(d.tris);

        if (d.kind == DrawKind::Composite) {
            // Region-sized quad, faint additive contribution of the RT
            // (bloom composites are screen-space local).
            Color c{1.0f, 1.0f, 1.0f, 0.35f};
            while (cmd.triangles.size() < d.tris)
                makeQuad(cmd.triangles, d.cx - d.radius, d.cy - d.radius,
                         d.cx + d.radius, d.cy + d.radius, d.depth, c);
            cmd.triangles.resize(d.tris);
        } else if (d.kind == DrawKind::Background) {
            // Two big quadrants per background draw, covering the screen
            // across the set of background draws.
            float band = 2.0f / static_cast<float>(n_bg);
            float y0 = -1.0f + band * static_cast<float>(i);
            Color c = randomColor(rng, 1.0f);
            makeQuad(cmd.triangles, -1.0f, y0, 1.0f, y0 + band, d.depth, c);
            while (cmd.triangles.size() < d.tris) {
                // Extra filler strips if the apportioner gave more than 2.
                float yy = rng.nextFloat(-1.0f, 0.9f);
                makeQuad(cmd.triangles, -1.0f, yy, 1.0f, yy + 0.1f,
                         d.depth, c);
            }
            // Trim in case quads overshoot (they come in pairs).
            cmd.triangles.resize(d.tris);
        } else {
            float alpha = 1.0f;
            if (d.blend == BlendOp::Over)
                alpha = rng.nextFloat(0.2f, 0.7f);
            else if (d.blend == BlendOp::Additive)
                alpha = rng.nextFloat(0.1f, 0.4f);
            else if (d.shader_discard)
                alpha = rng.nextFloat(0.2f, 0.9f); // exercises alpha test

            for (std::uint64_t t = 0; t < d.tris; ++t) {
                bool large = rng.nextBool(eff_large_frac) &&
                             d.kind == DrawKind::Object;
                double area = large
                                  ? p.large_triangle_area *
                                        rng.nextFloat(0.5f, 1.5f)
                                  : rng.nextExponential(mean_small_area);
                bool backface = d.kind == DrawKind::Object &&
                                rng.nextBool(p.backface_frac);
                cmd.triangles.push_back(
                    makeTriangle(rng, p, d.cx, d.cy, d.radius, d.depth,
                                 area, backface, alpha));
            }
        }
        trace.draws.push_back(std::move(cmd));
    }

    CHOPIN_CHECK(trace.totalTriangles() == p.num_triangles,
                 "generated ", trace.totalTriangles(),
                 " triangles, expected ", p.num_triangles);
    return trace;
}

FrameTrace
generateBenchmark(const std::string &name, int scale_divisor)
{
    const BenchmarkProfile &p = benchmarkProfile(name);
    CHOPIN_CHECK(scale_divisor >= 1, "scale divisor must be >= 1, got ",
                 scale_divisor);
    if (scale_divisor == 1)
        return generateTrace(p);
    return generateTrace(scaleProfile(p, scale_divisor));
}

SequenceTrace
generateSequence(const BenchmarkProfile &p, const SequenceParams &params)
{
    CHOPIN_CHECK(params.num_frames >= 1,
                 "a sequence needs at least one frame");
    CHOPIN_CHECK(params.knobs.camera_hold >= 1,
                 "camera_hold must be >= 1");

    SequenceTrace seq;
    seq.base = generateTrace(p);
    seq.path = params.path;
    seq.knobs = params.knobs;

    // Per-object animation channels, drawn from a stream independent of
    // the geometry stream (changing knobs or frame count never perturbs
    // the shared base): a deterministic animated_frac subset of the
    // opaque, depth-writing draws (backgrounds and the transparent tail
    // stay pinned — animating a full-screen quad reads as flicker, not
    // motion).
    struct Channel
    {
        std::uint32_t draw;
        float phase;
        float rate;
    };
    Rng anim_rng(p.seed ^ 0x5eb0e11cu);
    std::vector<Channel> channels;
    for (std::uint32_t i = 0; i < seq.base.draws.size(); ++i) {
        const DrawCommand &d = seq.base.draws[i];
        if (!d.state.depth_write || d.state.stencil_test)
            continue;
        if (!anim_rng.nextBool(params.knobs.animated_frac))
            continue;
        Channel c;
        c.draw = i;
        c.phase = anim_rng.nextFloat(0.0f, 6.2831853f);
        c.rate = anim_rng.nextFloat(0.5f, 1.5f);
        channels.push_back(c);
    }

    seq.frames.resize(params.num_frames);
    for (std::uint32_t f = 0; f < params.num_frames; ++f) {
        FrameKey &key = seq.frames[f];

        // Camera spline, advancing once every camera_hold frames. Deltas
        // apply in NDC space (post base view_proj): the generator emits
        // screen-space geometry with an identity view_proj.
        float t = static_cast<float>(f / params.knobs.camera_hold) *
                  params.knobs.camera_step;
        switch (params.path) {
          case CameraPath::Static:
            key.view_proj = seq.base.view_proj;
            break;
          case CameraPath::Orbit: {
            float zoom = 1.0f + 0.1f * std::sin(0.5f * t);
            key.view_proj = Mat4::rotateZ(t) *
                            Mat4::scale(zoom, zoom, 1.0f) *
                            seq.base.view_proj;
            break;
          }
          case CameraPath::Dolly: {
            float push = 1.0f + t;
            key.view_proj = Mat4::scale(push, push, 1.0f) *
                            seq.base.view_proj;
            break;
          }
        }

        // Object channels: small screen-space drift + roll per frame.
        key.transforms.reserve(channels.size());
        for (const Channel &c : channels) {
            float a = c.phase + 0.7f * c.rate * static_cast<float>(f);
            float amp = params.knobs.object_motion;
            Mat4 anim = Mat4::translate(amp * std::sin(a),
                                        amp * std::cos(a), 0.0f) *
                        Mat4::rotateZ(0.25f * amp * std::sin(a + 1.3f));
            key.transforms.emplace_back(
                c.draw, anim * seq.base.draws[c.draw].model);
        }
    }
    return seq;
}

SequenceTrace
generateBenchmarkSequence(const std::string &name, int scale_divisor,
                          const SequenceParams &params)
{
    const BenchmarkProfile &p = benchmarkProfile(name);
    CHOPIN_CHECK(scale_divisor >= 1, "scale divisor must be >= 1, got ",
                 scale_divisor);
    if (scale_divisor == 1)
        return generateSequence(p, params);
    return generateSequence(scaleProfile(p, scale_divisor), params);
}

} // namespace chopin
