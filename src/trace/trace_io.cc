#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <iostream>

#include "util/fingerprint.hh"

namespace chopin
{

namespace
{

// The only sanctioned home of the on-disk magic/version constants; the
// `trace-version` lint rule bans raw literals everywhere else.
constexpr std::uint32_t traceMagic = 0x43484f50;       // "CHOP"
constexpr std::uint32_t traceVersionFrame = 3;    // v3: stencil + RT sampling
constexpr std::uint32_t traceVersionSequence = 4; // v4: frame sequences

template <typename T>
void
put(std::ostream &os, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

void
putString(std::ostream &os, const std::string &s)
{
    put(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/**
 * Soft-failing reader implementing the load half of the error contract in
 * trace_io.hh: the first short read or sanity-check failure poisons the
 * reader and records a diagnostic; every later read is a no-op returning
 * false. Malformed input therefore surfaces as `false` + one `warn:` line
 * from the loaders, never as a failed check or a crash.
 */
class Reader
{
  public:
    explicit Reader(const std::string &path) : is(path, std::ios::binary)
    {
        if (!is)
            fail("cannot open file");
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }

    bool
    fail(std::string message)
    {
        if (ok_) {
            ok_ = false;
            error_ = std::move(message);
        }
        return false;
    }

    template <typename T>
    bool
    get(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (!ok_)
            return false;
        is.read(reinterpret_cast<char *>(&v), sizeof(T));
        if (!is)
            return fail("file truncated");
        return true;
    }

    bool
    getBytes(void *data, std::size_t size)
    {
        if (!ok_)
            return false;
        is.read(static_cast<char *>(data),
                static_cast<std::streamsize>(size));
        if (!is)
            return fail("file truncated");
        return true;
    }

    bool
    getString(std::string &s)
    {
        std::uint32_t n = 0;
        if (!get(n))
            return false;
        if (n > (1u << 20))
            return fail("unreasonable string length " + std::to_string(n));
        s.assign(n, '\0');
        return getBytes(s.data(), n);
    }

  private:
    std::ifstream is;
    bool ok_ = true;
    std::string error_;
};

/** The shared per-frame payload: identical layout in v3 and the v4 base. */
void
putFrameBody(std::ostream &os, const FrameTrace &trace)
{
    putString(os, trace.name);
    putString(os, trace.full_name);
    put(os, trace.viewport.width);
    put(os, trace.viewport.height);
    put(os, trace.view_proj);
    put(os, trace.clear_color);
    put(os, trace.clear_depth);
    put(os, trace.num_render_targets);
    put(os, trace.num_depth_buffers);
    put(os, static_cast<std::uint64_t>(trace.draws.size()));
    for (const DrawCommand &d : trace.draws) {
        put(os, d.id);
        put(os, d.state);
        put(os, d.model);
        put(os, d.alpha_ref);
        put(os, d.backface_cull);
        put(os, d.texture_rt);
        put(os, static_cast<std::uint64_t>(d.triangles.size()));
        os.write(reinterpret_cast<const char *>(d.triangles.data()),
                 static_cast<std::streamsize>(d.triangles.size() *
                                              sizeof(Triangle)));
    }
}

/** The byte a one-byte field holds, read without loading it as its own
 *  type: a bool byte other than 0 or 1 is not a valid bool value. */
template <typename T>
unsigned
rawByte(const T &field)
{
    static_assert(sizeof(T) == 1);
    std::uint8_t byte = 0;
    std::memcpy(&byte, &field, 1);
    return byte;
}

/** Reject a frame header the simulator cannot render. Viewport sides are
 *  capped at 4096, 3.2x the largest Table III frame (1280x1024). */
bool
checkFrameHeader(Reader &r, const FrameTrace &trace)
{
    const Viewport &vp = trace.viewport;
    if (vp.width < 1 || vp.width > 4096 || vp.height < 1 || vp.height > 4096)
        return r.fail("viewport " + std::to_string(vp.width) + "x" +
                      std::to_string(vp.height) + " outside [1, 4096]");
    if (trace.num_render_targets < 1 || trace.num_render_targets > 64)
        return r.fail("num_render_targets " +
                      std::to_string(trace.num_render_targets) +
                      " outside [1, 64]");
    if (trace.num_depth_buffers < 1 || trace.num_depth_buffers > 64)
        return r.fail("num_depth_buffers " +
                      std::to_string(trace.num_depth_buffers) +
                      " outside [1, 64]");
    return true;
}

/** Reject a draw whose state indexes past the frame's surfaces or holds a
 *  bool or enum byte outside its values; the message names the field. */
bool
checkDraw(Reader &r, const FrameTrace &trace, std::size_t index,
          const DrawCommand &d)
{
    std::string where = "draw " + std::to_string(index) + ": ";
    const RasterState &s = d.state;
    if (s.render_target >= trace.num_render_targets)
        return r.fail(where + "render_target " +
                      std::to_string(s.render_target) +
                      " >= num_render_targets " +
                      std::to_string(trace.num_render_targets));
    if (s.depth_buffer >= trace.num_depth_buffers)
        return r.fail(where + "depth_buffer " +
                      std::to_string(s.depth_buffer) +
                      " >= num_depth_buffers " +
                      std::to_string(trace.num_depth_buffers));
    if (d.texture_rt < -1 ||
        d.texture_rt >= static_cast<std::int64_t>(trace.num_render_targets))
        return r.fail(where + "texture_rt " + std::to_string(d.texture_rt) +
                      " outside [-1, " +
                      std::to_string(trace.num_render_targets) + ")");
    if (d.texture_rt == static_cast<std::int64_t>(s.render_target))
        return r.fail(where + "texture_rt " + std::to_string(d.texture_rt) +
                      " is the draw's own render_target");

    struct Field
    {
        const char *name;
        unsigned byte;
        unsigned max;
    };
    const Field fields[] = {
        {"depth_test", rawByte(s.depth_test), 1},
        {"depth_write", rawByte(s.depth_write), 1},
        {"depth_func", rawByte(s.depth_func),
         static_cast<unsigned>(DepthFunc::Always)},
        {"blend_op", rawByte(s.blend_op),
         static_cast<unsigned>(BlendOp::Multiply)},
        {"shader_discard", rawByte(s.shader_discard), 1},
        {"stencil_test", rawByte(s.stencil_test), 1},
        {"stencil_func", rawByte(s.stencil_func),
         static_cast<unsigned>(DepthFunc::Always)},
        {"stencil_pass_op", rawByte(s.stencil_pass_op),
         static_cast<unsigned>(StencilOp::Zero)},
        {"backface_cull", rawByte(d.backface_cull), 1},
    };
    for (const Field &f : fields)
        if (f.byte > f.max)
            return r.fail(where + f.name + " byte " + std::to_string(f.byte) +
                          " outside [0, " + std::to_string(f.max) + "]");
    return true;
}

bool
getFrameBody(Reader &r, FrameTrace &trace)
{
    trace = FrameTrace{};
    if (!r.getString(trace.name) || !r.getString(trace.full_name))
        return false;
    if (!r.get(trace.viewport.width) || !r.get(trace.viewport.height) ||
        !r.get(trace.view_proj) || !r.get(trace.clear_color) ||
        !r.get(trace.clear_depth) || !r.get(trace.num_render_targets) ||
        !r.get(trace.num_depth_buffers))
        return false;
    if (!checkFrameHeader(r, trace))
        return false;
    std::uint64_t n_draws = 0;
    if (!r.get(n_draws))
        return false;
    if (n_draws > (1ull << 24))
        return r.fail("unreasonable draw count " + std::to_string(n_draws));
    trace.draws.resize(n_draws);
    for (std::size_t i = 0; i < trace.draws.size(); ++i) {
        DrawCommand &d = trace.draws[i];
        if (!r.get(d.id) || !r.get(d.state) || !r.get(d.model) ||
            !r.get(d.alpha_ref) || !r.get(d.backface_cull) ||
            !r.get(d.texture_rt))
            return false;
        if (!checkDraw(r, trace, i, d)) {
            trace = FrameTrace{}; // drop the bool bytes that failed the check
            return false;
        }
        std::uint64_t n_tris = 0;
        if (!r.get(n_tris))
            return false;
        if (n_tris > (1ull << 28))
            return r.fail("unreasonable triangle count " +
                          std::to_string(n_tris));
        d.triangles.resize(n_tris);
        if (!r.getBytes(d.triangles.data(), n_tris * sizeof(Triangle)))
            return false;
    }
    return true;
}

/** The v4 tail after the base frame body: path, knobs, per-frame keys. */
bool
getSequenceBody(Reader &r, SequenceTrace &seq)
{
    seq = SequenceTrace{};
    if (!getFrameBody(r, seq.base))
        return false;
    std::uint32_t path_raw = 0;
    if (!r.get(path_raw))
        return false;
    if (path_raw > static_cast<std::uint32_t>(CameraPath::Dolly))
        return r.fail("unknown camera path " + std::to_string(path_raw));
    seq.path = static_cast<CameraPath>(path_raw);
    if (!r.get(seq.knobs.camera_step) || !r.get(seq.knobs.object_motion) ||
        !r.get(seq.knobs.animated_frac) || !r.get(seq.knobs.camera_hold))
        return false;
    std::uint64_t n_frames = 0;
    if (!r.get(n_frames))
        return false;
    if (n_frames == 0 || n_frames > (1ull << 20))
        return r.fail("unreasonable frame count " +
                      std::to_string(n_frames));
    seq.frames.resize(n_frames);
    for (FrameKey &key : seq.frames) {
        if (!r.get(key.view_proj))
            return false;
        std::uint64_t n_overrides = 0;
        if (!r.get(n_overrides))
            return false;
        if (n_overrides > seq.base.draws.size())
            return r.fail("unreasonable override count " +
                          std::to_string(n_overrides));
        key.transforms.resize(n_overrides);
        for (auto &[draw, model] : key.transforms) {
            if (!r.get(draw) || !r.get(model))
                return false;
            if (draw >= seq.base.draws.size())
                return r.fail("transform override targets draw " +
                              std::to_string(draw) + " of " +
                              std::to_string(seq.base.draws.size()));
        }
    }
    return true;
}

/** Emit the load-contract diagnostic and return false. */
bool
loadFail(const std::string &path, const std::string &reason)
{
    std::cerr << "warn: cannot load trace '" << path << "': " << reason
              << "\n";
    return false;
}

} // namespace

bool
saveTrace(const FrameTrace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    put(os, traceMagic);
    put(os, traceVersionFrame);
    putFrameBody(os, trace);
    return static_cast<bool>(os);
}

bool
saveSequence(const SequenceTrace &seq, const std::string &path)
{
    if (seq.frames.empty())
        return false; // an empty sequence is not representable
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    put(os, traceMagic);
    put(os, traceVersionSequence);
    putFrameBody(os, seq.base);
    put(os, static_cast<std::uint32_t>(seq.path));
    put(os, seq.knobs.camera_step);
    put(os, seq.knobs.object_motion);
    put(os, seq.knobs.animated_frac);
    put(os, seq.knobs.camera_hold);
    put(os, static_cast<std::uint64_t>(seq.frames.size()));
    for (const FrameKey &key : seq.frames) {
        put(os, key.view_proj);
        put(os, static_cast<std::uint64_t>(key.transforms.size()));
        for (const auto &[draw, model] : key.transforms) {
            put(os, draw);
            put(os, model);
        }
    }
    return static_cast<bool>(os);
}

std::uint64_t
traceFingerprint(const FrameTrace &trace)
{
    Fingerprinter fp;
    fp.str("FrameTrace/v1");
    fp.str(trace.name).str(trace.full_name);
    fp.i64(trace.viewport.width).i64(trace.viewport.height);
    // Mat4/Color/Triangle are tightly packed float aggregates (the binary
    // trace format round-trips them as raw bytes), so bytes() is canonical.
    fp.bytes(&trace.view_proj.m, sizeof(trace.view_proj.m));
    fp.f32(trace.clear_color.r)
        .f32(trace.clear_color.g)
        .f32(trace.clear_color.b)
        .f32(trace.clear_color.a)
        .f32(trace.clear_depth);
    fp.u64(trace.num_render_targets).u64(trace.num_depth_buffers);
    fp.u64(trace.draws.size());
    for (const DrawCommand &d : trace.draws) {
        fp.u64(d.id);
        // RasterState is mixed field by field: it mixes byte-sized and
        // word-sized members, so raw bytes would hash padding.
        const RasterState &s = d.state;
        fp.u64(s.render_target)
            .u64(s.depth_buffer)
            .boolean(s.depth_test)
            .boolean(s.depth_write)
            .u64(static_cast<std::uint64_t>(s.depth_func))
            .u64(static_cast<std::uint64_t>(s.blend_op))
            .boolean(s.shader_discard)
            .boolean(s.stencil_test)
            .u64(static_cast<std::uint64_t>(s.stencil_func))
            .u64(s.stencil_ref)
            .u64(static_cast<std::uint64_t>(s.stencil_pass_op));
        fp.bytes(&d.model.m, sizeof(d.model.m));
        fp.f32(d.alpha_ref).boolean(d.backface_cull).i64(d.texture_rt);
        fp.u64(d.triangles.size());
        fp.bytes(d.triangles.data(),
                 d.triangles.size() * sizeof(Triangle));
    }
    return fp.value();
}

std::uint64_t
sequenceFingerprint(const SequenceTrace &seq)
{
    Fingerprinter fp;
    fp.str("SequenceTrace/v1");
    fp.u64(traceFingerprint(seq.base));
    fp.u64(static_cast<std::uint64_t>(seq.path));
    fp.f32(seq.knobs.camera_step)
        .f32(seq.knobs.object_motion)
        .f32(seq.knobs.animated_frac)
        .u64(seq.knobs.camera_hold);
    fp.u64(seq.frames.size());
    for (const FrameKey &key : seq.frames) {
        fp.bytes(&key.view_proj.m, sizeof(key.view_proj.m));
        fp.u64(key.transforms.size());
        for (const auto &[draw, model] : key.transforms) {
            fp.u64(draw);
            fp.bytes(&model.m, sizeof(model.m));
        }
    }
    return fp.value();
}

bool
loadTrace(FrameTrace &trace, const std::string &path)
{
    Reader r(path);
    std::uint32_t magic = 0, version = 0;
    if (!r.get(magic))
        return loadFail(path, r.error());
    if (magic != traceMagic)
        return loadFail(path, "not a CHOPIN trace file");
    if (!r.get(version))
        return loadFail(path, r.error());

    if (version == traceVersionFrame)
        return getFrameBody(r, trace) ? true : loadFail(path, r.error());

    if (version == traceVersionSequence) {
        SequenceTrace seq;
        if (!getSequenceBody(r, seq))
            return loadFail(path, r.error());
        if (seq.frameCount() != 1)
            return loadFail(path, "holds a " +
                                      std::to_string(seq.frameCount()) +
                                      "-frame sequence; use loadSequence()");
        seq.materializeFrame(0, trace);
        return true;
    }

    return loadFail(path, "version " + std::to_string(version) +
                              " unsupported (expected " +
                              std::to_string(traceVersionFrame) + " or " +
                              std::to_string(traceVersionSequence) + ")");
}

bool
loadSequence(SequenceTrace &seq, const std::string &path)
{
    Reader r(path);
    std::uint32_t magic = 0, version = 0;
    if (!r.get(magic))
        return loadFail(path, r.error());
    if (magic != traceMagic)
        return loadFail(path, "not a CHOPIN trace file");
    if (!r.get(version))
        return loadFail(path, r.error());

    if (version == traceVersionFrame) {
        // The v3 -> v4 upgrader: a single frame is a 1-frame Static
        // sequence, fingerprint-identical to its native-v4 equivalent.
        FrameTrace frame;
        if (!getFrameBody(r, frame))
            return loadFail(path, r.error());
        seq = sequenceFromFrame(std::move(frame));
        return true;
    }

    if (version == traceVersionSequence)
        return getSequenceBody(r, seq) ? true : loadFail(path, r.error());

    return loadFail(path, "version " + std::to_string(version) +
                              " unsupported (expected " +
                              std::to_string(traceVersionFrame) + " or " +
                              std::to_string(traceVersionSequence) + ")");
}

} // namespace chopin
