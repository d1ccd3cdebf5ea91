#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/generator.hh"
#include "trace/trace_io.hh"

namespace chopin
{
namespace
{

SequenceParams
smallParams(std::uint32_t frames = 4)
{
    SequenceParams p;
    p.num_frames = frames;
    p.path = CameraPath::Orbit;
    return p;
}

SequenceTrace
smallSequence(std::uint32_t frames = 4)
{
    return generateBenchmarkSequence("wolf", 32, smallParams(frames));
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(SequenceIo, RoundTripPreservesFingerprint)
{
    SequenceTrace original = smallSequence();
    std::string path = ::testing::TempDir() + "/chopin_seq.bin";
    ASSERT_TRUE(saveSequence(original, path));

    SequenceTrace loaded;
    ASSERT_TRUE(loadSequence(loaded, path));
    std::remove(path.c_str());

    EXPECT_EQ(loaded.frameCount(), original.frameCount());
    EXPECT_EQ(loaded.path, original.path);
    EXPECT_EQ(loaded.knobs.camera_hold, original.knobs.camera_hold);
    EXPECT_EQ(sequenceFingerprint(loaded), sequenceFingerprint(original));
    EXPECT_EQ(traceFingerprint(loaded.base),
              traceFingerprint(original.base));
    // Materialized frames are identical too (fingerprint covers the keys).
    for (std::size_t f = 0; f < original.frameCount(); ++f)
        EXPECT_EQ(traceFingerprint(loaded.frame(f)),
                  traceFingerprint(original.frame(f)));
}

TEST(SequenceIo, SaveBytesAreDeterministic)
{
    // Trace bytes must be bit-identical across regenerations (and hence
    // across --jobs values: generation and serialization are serial).
    std::string p1 = ::testing::TempDir() + "/chopin_seq_a.bin";
    std::string p2 = ::testing::TempDir() + "/chopin_seq_b.bin";
    ASSERT_TRUE(saveSequence(smallSequence(), p1));
    ASSERT_TRUE(saveSequence(smallSequence(), p2));
    EXPECT_EQ(fileBytes(p1), fileBytes(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(SequenceIo, UpgraderLoadsSingleFrameFileAsSequence)
{
    FrameTrace frame = generateBenchmark("wolf", 32);
    std::string path = ::testing::TempDir() + "/chopin_v3.bin";
    ASSERT_TRUE(saveTrace(frame, path));

    SequenceTrace upgraded;
    ASSERT_TRUE(loadSequence(upgraded, path));
    std::remove(path.c_str());

    ASSERT_EQ(upgraded.frameCount(), 1u);
    EXPECT_EQ(upgraded.path, CameraPath::Static);
    EXPECT_TRUE(upgraded.frames[0].transforms.empty());
    // The upgraded frame is the original frame, bit for bit.
    EXPECT_EQ(traceFingerprint(upgraded.frame(0)),
              traceFingerprint(frame));
}

TEST(SequenceIo, UpgradedFingerprintMatchesNativeEquivalent)
{
    // A v3 file upgraded through loadSequence() must fingerprint
    // identically to the natively authored v4 equivalent: the upgrade
    // yields the same workload, whichever format it happened to ship in.
    FrameTrace frame = generateBenchmark("wolf", 32);
    std::string v3_path = ::testing::TempDir() + "/chopin_up_v3.bin";
    std::string v4_path = ::testing::TempDir() + "/chopin_up_v4.bin";
    ASSERT_TRUE(saveTrace(frame, v3_path));
    ASSERT_TRUE(saveSequence(sequenceFromFrame(frame), v4_path));

    SequenceTrace upgraded, native;
    ASSERT_TRUE(loadSequence(upgraded, v3_path));
    ASSERT_TRUE(loadSequence(native, v4_path));
    std::remove(v3_path.c_str());
    std::remove(v4_path.c_str());

    EXPECT_EQ(sequenceFingerprint(upgraded), sequenceFingerprint(native));
}

TEST(SequenceIo, LoadTraceAcceptsOneFrameSequenceOnly)
{
    SequenceTrace one = generateBenchmarkSequence("wolf", 32,
                                                  smallParams(1));
    SequenceTrace many = smallSequence(4);
    std::string p_one = ::testing::TempDir() + "/chopin_seq1.bin";
    std::string p_many = ::testing::TempDir() + "/chopin_seqN.bin";
    ASSERT_TRUE(saveSequence(one, p_one));
    ASSERT_TRUE(saveSequence(many, p_many));

    FrameTrace t;
    ASSERT_TRUE(loadTrace(t, p_one));
    EXPECT_EQ(traceFingerprint(t), traceFingerprint(one.frame(0)));
    // Collapsing a longer stream to one frame would silently change the
    // workload, so loadTrace refuses (false + diagnostic, not fatal).
    EXPECT_FALSE(loadTrace(t, p_many));
    std::remove(p_one.c_str());
    std::remove(p_many.c_str());
}

TEST(SequenceIo, EmptySequenceIsNotRepresentable)
{
    SequenceTrace empty;
    EXPECT_FALSE(saveSequence(empty,
                              ::testing::TempDir() + "/chopin_empty.bin"));
}

TEST(SequenceIo, FingerprintCoversEveryStreamField)
{
    // Perturb every sequence-level field and assert the fingerprint moves:
    // a field added without fingerprint coverage would make genuinely
    // different workloads compare equal.
    const SequenceTrace base = smallSequence();
    const std::uint64_t fp = sequenceFingerprint(base);

    { // camera keyframe
        SequenceTrace s = base;
        s.frames[1].view_proj.m[0][0] += 0.25f;
        EXPECT_NE(sequenceFingerprint(s), fp);
    }
    { // per-frame object transform (value)
        SequenceTrace s = base;
        ASSERT_FALSE(s.frames[1].transforms.empty())
            << "generated sequence should carry animation channels";
        s.frames[1].transforms[0].second.m[3][0] += 0.1f;
        EXPECT_NE(sequenceFingerprint(s), fp);
    }
    { // per-frame object transform (target draw)
        SequenceTrace s = base;
        s.frames[1].transforms[0].first += 1;
        EXPECT_NE(sequenceFingerprint(s), fp);
    }
    { // coherence knobs, one by one
        SequenceTrace s = base;
        s.knobs.camera_step *= 2.0f;
        EXPECT_NE(sequenceFingerprint(s), fp);
        s = base;
        s.knobs.object_motion *= 2.0f;
        EXPECT_NE(sequenceFingerprint(s), fp);
        s = base;
        s.knobs.animated_frac *= 0.5f;
        EXPECT_NE(sequenceFingerprint(s), fp);
        s = base;
        s.knobs.camera_hold += 1;
        EXPECT_NE(sequenceFingerprint(s), fp);
    }
    { // frame count
        SequenceTrace s = base;
        s.frames.push_back(s.frames.back());
        EXPECT_NE(sequenceFingerprint(s), fp);
    }
    { // camera path enum
        SequenceTrace s = base;
        s.path = CameraPath::Dolly;
        EXPECT_NE(sequenceFingerprint(s), fp);
    }
    { // base trace content flows through
        SequenceTrace s = base;
        s.base.draws[0].model.m[3][1] += 0.1f;
        EXPECT_NE(sequenceFingerprint(s), fp);
    }
}

TEST(SequenceIo, MaterializeReusesTriangleStorage)
{
    SequenceTrace seq = smallSequence();
    FrameTrace scratch;
    seq.materializeFrame(0, scratch);
    ASSERT_FALSE(scratch.draws.empty());
    const Triangle *storage = scratch.draws[0].triangles.data();
    // Later frames swap matrices on the shared geometry without
    // re-copying or reallocating the triangle storage.
    seq.materializeFrame(1, scratch);
    EXPECT_EQ(scratch.draws[0].triangles.data(), storage);
    EXPECT_EQ(traceFingerprint(scratch), traceFingerprint(seq.frame(1)));
}

TEST(SequenceIo, GeneratedFramesActuallyAnimate)
{
    SequenceTrace seq = smallSequence();
    // Consecutive frames differ (camera and objects move)...
    EXPECT_NE(traceFingerprint(seq.frame(0)),
              traceFingerprint(seq.frame(1)));
    // ...but share the base geometry: only matrices change.
    FrameTrace a = seq.frame(0), b = seq.frame(1);
    ASSERT_EQ(a.draws.size(), b.draws.size());
    for (std::size_t i = 0; i < a.draws.size(); ++i)
        EXPECT_EQ(a.draws[i].triangles.size(), b.draws[i].triangles.size());
}

} // namespace
} // namespace chopin
