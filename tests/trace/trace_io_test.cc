#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "trace/generator.hh"
#include "trace/trace_io.hh"

namespace chopin
{
namespace
{

/** Overwrite a one-byte field's storage with @p byte, bypassing its type
 *  (a bool field then holds an invalid bool, as a corrupt file would). */
template <typename T>
void
poke(T &field, std::uint8_t byte)
{
    static_assert(sizeof(T) == 1);
    std::memcpy(&field, &byte, 1);
}

/**
 * Save a generated trace with one field corrupted by @p corrupt, then
 * expect both loaders to reject it with a diagnostic naming @p field.
 */
void
expectRejected(const std::string &field,
               const std::function<void(FrameTrace &)> &corrupt)
{
    FrameTrace trace = generateBenchmark("wolf", 32);
    corrupt(trace);
    // One file per test: ctest runs the cases as concurrent processes.
    std::string path =
        ::testing::TempDir() + "/chopin_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".bin";
    ASSERT_TRUE(saveTrace(trace, path));

    FrameTrace t;
    ::testing::internal::CaptureStderr();
    bool loaded = loadTrace(t, path);
    std::string diagnostic = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(loaded) << field;
    EXPECT_NE(diagnostic.find(field), std::string::npos) << diagnostic;

    SequenceTrace seq;
    ::testing::internal::CaptureStderr();
    loaded = loadSequence(seq, path);
    diagnostic = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(loaded) << field;
    EXPECT_NE(diagnostic.find(field), std::string::npos) << diagnostic;
    std::remove(path.c_str());
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    FrameTrace original = generateBenchmark("cod2", 16);
    std::string path = ::testing::TempDir() + "/chopin_trace.bin";
    ASSERT_TRUE(saveTrace(original, path));

    FrameTrace loaded;
    ASSERT_TRUE(loadTrace(loaded, path));
    std::remove(path.c_str());

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.full_name, original.full_name);
    EXPECT_EQ(loaded.viewport.width, original.viewport.width);
    EXPECT_EQ(loaded.viewport.height, original.viewport.height);
    EXPECT_EQ(loaded.num_render_targets, original.num_render_targets);
    ASSERT_EQ(loaded.draws.size(), original.draws.size());
    for (std::size_t i = 0; i < original.draws.size(); ++i) {
        const DrawCommand &a = original.draws[i];
        const DrawCommand &b = loaded.draws[i];
        ASSERT_EQ(a.id, b.id);
        ASSERT_TRUE(a.state == b.state);
        ASSERT_EQ(a.alpha_ref, b.alpha_ref);
        ASSERT_EQ(a.backface_cull, b.backface_cull);
        ASSERT_EQ(a.texture_rt, b.texture_rt);
        ASSERT_EQ(a.triangles.size(), b.triangles.size());
        for (std::size_t k = 0; k < a.triangles.size(); ++k) {
            for (int v = 0; v < 3; ++v) {
                ASSERT_EQ(a.triangles[k].v[v].pos.x,
                          b.triangles[k].v[v].pos.x);
                ASSERT_EQ(a.triangles[k].v[v].pos.z,
                          b.triangles[k].v[v].pos.z);
                ASSERT_EQ(a.triangles[k].v[v].color, b.triangles[k].v[v].color);
            }
        }
    }
}

TEST(TraceIo, MissingFileReturnsFalse)
{
    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, "/nonexistent/path/trace.bin"));
}

TEST(TraceIo, RejectsNonTraceFile)
{
    std::string path = ::testing::TempDir() + "/not_a_trace.bin";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[] = "this is not a trace file at all............";
        std::fwrite(junk, 1, sizeof(junk), f);
        std::fclose(f);
    }
    // The load contract (trace_io.hh) is false + diagnostic, never fatal.
    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, path));
    SequenceTrace seq;
    EXPECT_FALSE(loadSequence(seq, path));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncatedFile)
{
    FrameTrace original = generateBenchmark("wolf", 32);
    std::string path = ::testing::TempDir() + "/chopin_trunc.bin";
    ASSERT_TRUE(saveTrace(original, path));
    // Truncate to half.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
    }
    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, path));
    SequenceTrace seq;
    EXPECT_FALSE(loadSequence(seq, path));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsUnsupportedVersionCleanly)
{
    FrameTrace original = generateBenchmark("wolf", 32);
    std::string path = ::testing::TempDir() + "/chopin_badver.bin";
    ASSERT_TRUE(saveTrace(original, path));
    // Patch the version word (bytes 4..7, after the magic) to a future
    // version: the loaders must return false with a diagnostic, not fail
    // a check — callers decide whether that is fatal for them.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::uint32_t future = 99;
        ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(&future, sizeof(future), 1, f), 1u);
        std::fclose(f);
    }
    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, path));
    SequenceTrace seq;
    EXPECT_FALSE(loadSequence(seq, path));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsViewportOutsideRange)
{
    // Sides must lie in [1, 4096].
    expectRejected("viewport", [](FrameTrace &t) {
        t.viewport = {200000, 200000};
    });
    expectRejected("viewport", [](FrameTrace &t) { t.viewport.width = 0; });
    expectRejected("viewport", [](FrameTrace &t) {
        t.viewport.height = 4097;
    });
}

TEST(TraceIo, RejectsSurfaceCountsOutsideRange)
{
    // num_render_targets and num_depth_buffers must lie in [1, 64].
    expectRejected("num_render_targets",
                   [](FrameTrace &t) { t.num_render_targets = 0; });
    expectRejected("num_render_targets",
                   [](FrameTrace &t) { t.num_render_targets = 65; });
    expectRejected("num_depth_buffers",
                   [](FrameTrace &t) { t.num_depth_buffers = 0; });
}

TEST(TraceIo, RejectsDrawTargetsPastTheirCount)
{
    expectRejected("render_target", [](FrameTrace &t) {
        t.draws[0].state.render_target = 7;
    });
    expectRejected("render_target", [](FrameTrace &t) {
        t.draws.back().state.render_target = t.num_render_targets;
    });
    expectRejected("depth_buffer", [](FrameTrace &t) {
        t.draws[0].state.depth_buffer = t.num_depth_buffers;
    });
}

TEST(TraceIo, RejectsTextureRtOutsideRangeOrOwnTarget)
{
    // texture_rt must lie in [-1, num_render_targets) and differ from the
    // draw's own render target.
    expectRejected("texture_rt",
                   [](FrameTrace &t) { t.draws[0].texture_rt = -2; });
    expectRejected("texture_rt", [](FrameTrace &t) {
        t.draws[0].texture_rt =
            static_cast<std::int32_t>(t.num_render_targets);
    });
    expectRejected("texture_rt", [](FrameTrace &t) {
        DrawCommand &d = t.draws[0];
        d.texture_rt = static_cast<std::int32_t>(d.state.render_target);
    });
}

TEST(TraceIo, RejectsEnumAndBoolBytesOutsideTheirValues)
{
    expectRejected("depth_func", [](FrameTrace &t) {
        poke(t.draws[0].state.depth_func, 200);
    });
    expectRejected("blend_op", [](FrameTrace &t) {
        poke(t.draws[0].state.blend_op, 4);
    });
    expectRejected("stencil_func", [](FrameTrace &t) {
        poke(t.draws[0].state.stencil_func, 8);
    });
    expectRejected("stencil_pass_op", [](FrameTrace &t) {
        poke(t.draws[0].state.stencil_pass_op, 5);
    });
    expectRejected("depth_test", [](FrameTrace &t) {
        poke(t.draws[0].state.depth_test, 2);
    });
    expectRejected("depth_write", [](FrameTrace &t) {
        poke(t.draws[0].state.depth_write, 0xff);
    });
    expectRejected("shader_discard", [](FrameTrace &t) {
        poke(t.draws[0].state.shader_discard, 2);
    });
    expectRejected("stencil_test", [](FrameTrace &t) {
        poke(t.draws[0].state.stencil_test, 2);
    });
    expectRejected("backface_cull", [](FrameTrace &t) {
        poke(t.draws.back().backface_cull, 2);
    });
}

} // namespace
} // namespace chopin
