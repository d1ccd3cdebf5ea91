#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "comp/operators.hh"
#include "gfx/surface.hh"
#include "util/rng.hh"

namespace chopin
{
namespace
{

TEST(OpaqueWins, SmallerDepthWinsUnderLess)
{
    OpaquePixel near_px{{1, 0, 0, 1}, 0.2f, 5};
    OpaquePixel far_px{{0, 1, 0, 1}, 0.8f, 3};
    EXPECT_TRUE(opaqueWins(DepthFunc::Less, near_px, far_px));
    EXPECT_FALSE(opaqueWins(DepthFunc::Less, far_px, near_px));
}

TEST(OpaqueWins, LargerDepthWinsUnderGreater)
{
    OpaquePixel near_px{{}, 0.2f, 5};
    OpaquePixel far_px{{}, 0.8f, 3};
    EXPECT_TRUE(opaqueWins(DepthFunc::Greater, far_px, near_px));
    EXPECT_FALSE(opaqueWins(DepthFunc::Greater, near_px, far_px));
}

TEST(OpaqueWins, DepthTieStrictKeepsEarliestWriter)
{
    OpaquePixel early{{}, 0.5f, 2};
    OpaquePixel late{{}, 0.5f, 9};
    // Under Less, the later equal-depth fragment would have failed the
    // in-order test, so the earlier writer must win.
    EXPECT_TRUE(opaqueWins(DepthFunc::Less, early, late));
    EXPECT_FALSE(opaqueWins(DepthFunc::Less, late, early));
}

TEST(OpaqueWins, DepthTieAcceptingKeepsLatestWriter)
{
    OpaquePixel early{{}, 0.5f, 2};
    OpaquePixel late{{}, 0.5f, 9};
    EXPECT_TRUE(opaqueWins(DepthFunc::LessEqual, late, early));
    EXPECT_FALSE(opaqueWins(DepthFunc::LessEqual, early, late));
}

TEST(OpaqueWins, AlwaysKeepsLatestWriterRegardlessOfDepth)
{
    OpaquePixel early{{}, 0.1f, 2};
    OpaquePixel late{{}, 0.9f, 9};
    EXPECT_TRUE(opaqueWins(DepthFunc::Always, late, early));
    EXPECT_FALSE(opaqueWins(DepthFunc::Always, early, late));
}

TEST(OpaqueWins, BackgroundLosesToAnyRealWriter)
{
    OpaquePixel bg{{}, 0.5f, ~DrawId(0)};
    OpaquePixel drawn{{}, 0.5f, 0};
    EXPECT_TRUE(opaqueWins(DepthFunc::Always, drawn, bg));
    EXPECT_TRUE(opaqueWins(DepthFunc::LessEqual, drawn, bg));
}

TEST(OpaqueWins, ComposableFuncClassification)
{
    EXPECT_TRUE(composableDepthFunc(DepthFunc::Less));
    EXPECT_TRUE(composableDepthFunc(DepthFunc::LessEqual));
    EXPECT_TRUE(composableDepthFunc(DepthFunc::Greater));
    EXPECT_TRUE(composableDepthFunc(DepthFunc::GreaterEqual));
    EXPECT_TRUE(composableDepthFunc(DepthFunc::Always));
    EXPECT_FALSE(composableDepthFunc(DepthFunc::Equal));
    EXPECT_FALSE(composableDepthFunc(DepthFunc::NotEqual));
    EXPECT_FALSE(composableDepthFunc(DepthFunc::Never));
}

/**
 * The core soundness property behind CHOPIN's out-of-order composition:
 * folding contributions with composeOpaque in ANY order produces exactly
 * what in-order rendering (apply each fragment in draw order through the
 * depth test) would produce.
 */
// Padding-free: gtest prints a parameter type that has no printer as its
// raw bytes, ctest names each discovered test with that text, and an
// uninitialised padding byte there would rename the tests on every build.
struct OrderCase
{
    DepthFunc func;
    std::uint8_t zero[7]; ///< zeroed bytes where padding would be
    std::uint64_t seed;
};
static_assert(sizeof(OrderCase) ==
              sizeof(DepthFunc) + 7 + sizeof(std::uint64_t));

class OutOfOrderEquivalence : public ::testing::TestWithParam<OrderCase>
{
};

TEST_P(OutOfOrderEquivalence, FoldAnyOrderMatchesInOrderRendering)
{
    const DepthFunc func = GetParam().func;
    Rng rng(GetParam().seed);

    for (int trial = 0; trial < 200; ++trial) {
        int k = 1 + static_cast<int>(rng.nextBounded(6));
        std::vector<OpaquePixel> contribs;
        for (int i = 0; i < k; ++i) {
            // Coarse depths make ties common (the hard case).
            float z = static_cast<float>(rng.nextBounded(4)) / 4.0f;
            contribs.push_back(
                {{rng.nextFloat(), rng.nextFloat(), rng.nextFloat(), 1.0f},
                 z,
                 static_cast<DrawId>(i)});
        }

        // In-order rendering oracle.
        OpaquePixel buffer{{0, 0, 0, 1},
                           prefersSmaller(func) ? 1.0f : 0.0f, ~DrawId(0)};
        if (func == DepthFunc::Always)
            buffer.depth = 1.0f;
        OpaquePixel oracle = buffer;
        for (const OpaquePixel &c : contribs) {
            bool pass = func == DepthFunc::Always ||
                        depthTest(func, c.depth, oracle.depth);
            if (pass)
                oracle = c;
        }

        // Fold in a random permutation.
        std::vector<OpaquePixel> shuffled = contribs;
        for (std::size_t i = shuffled.size(); i > 1; --i)
            std::swap(shuffled[i - 1],
                      shuffled[rng.nextBounded(static_cast<std::uint32_t>(i))]);
        OpaquePixel folded = buffer;
        for (const OpaquePixel &c : shuffled)
            folded = composeOpaque(func, c, folded);

        ASSERT_EQ(folded.writer, oracle.writer)
            << "trial " << trial << " func " << toString(func);
        ASSERT_EQ(folded.depth, oracle.depth);
    }
}

INSTANTIATE_TEST_SUITE_P(
    FuncsAndSeeds, OutOfOrderEquivalence,
    ::testing::Values(OrderCase{DepthFunc::Less, {}, 1},
                      OrderCase{DepthFunc::Less, {}, 2},
                      OrderCase{DepthFunc::LessEqual, {}, 3},
                      OrderCase{DepthFunc::LessEqual, {}, 4},
                      OrderCase{DepthFunc::Greater, {}, 5},
                      OrderCase{DepthFunc::GreaterEqual, {}, 6},
                      OrderCase{DepthFunc::Always, {}, 7}),
    [](const auto &info) {
        return toString(info.param.func) + "_" +
               std::to_string(info.param.seed);
    });

// ---- Transparent operators ------------------------------------------------

Color
randColor(Rng &rng)
{
    return {rng.nextFloat(), rng.nextFloat(), rng.nextFloat(),
            rng.nextFloat()};
}

class TransparentOpTest : public ::testing::TestWithParam<BlendOp>
{
};

TEST_P(TransparentOpTest, IdentityIsNeutral)
{
    BlendOp op = GetParam();
    Rng rng(11);
    Color id = transparentIdentity(op);
    for (int i = 0; i < 100; ++i) {
        Color c = randColor(rng);
        Color front = mergeTransparent(op, id, c);
        Color back = mergeTransparent(op, c, id);
        EXPECT_LT(maxAbsDiff(front, c), 1e-6f);
        EXPECT_LT(maxAbsDiff(back, c), 1e-6f);
    }
}

TEST_P(TransparentOpTest, MergeIsAssociative)
{
    BlendOp op = GetParam();
    Rng rng(13 + static_cast<int>(op));
    for (int i = 0; i < 500; ++i) {
        Color a = randColor(rng), b = randColor(rng), c = randColor(rng);
        // (a . b) . c == a . (b . c), with a frontmost.
        Color left = mergeTransparent(op, mergeTransparent(op, a, b), c);
        Color right = mergeTransparent(op, a, mergeTransparent(op, b, c));
        EXPECT_LT(maxAbsDiff(left, right), 2e-6f);
    }
}

TEST_P(TransparentOpTest, FinalizeMatchesMergeOntoOpaqueBackground)
{
    BlendOp op = GetParam();
    Rng rng(17 + static_cast<int>(op));
    for (int i = 0; i < 200; ++i) {
        Color acc = randColor(rng);
        Color bg = randColor(rng);
        bg.a = 1.0f;
        Color fin = finalizeTransparent(op, acc, bg);
        Color merged = mergeTransparent(op, acc, bg);
        // Finalize preserves the framebuffer's alpha convention for the
        // commutative operators; only rgb must agree with a plain merge.
        EXPECT_NEAR(fin.r, merged.r, 1e-6f);
        EXPECT_NEAR(fin.g, merged.g, 1e-6f);
        EXPECT_NEAR(fin.b, merged.b, 1e-6f);
        if (op == BlendOp::Over) {
            EXPECT_NEAR(fin.a, merged.a, 1e-6f);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ops, TransparentOpTest,
                         ::testing::Values(BlendOp::Over, BlendOp::Additive,
                                           BlendOp::Multiply),
                         [](const auto &info) {
                             return toString(info.param);
                         });

TEST(TransparentOps, OverIsNotCommutative)
{
    Color a{0.8f, 0.1f, 0.1f, 0.7f};
    Color b{0.1f, 0.8f, 0.1f, 0.5f};
    Color ab = mergeTransparent(BlendOp::Over, a, b);
    Color ba = mergeTransparent(BlendOp::Over, b, a);
    EXPECT_GT(maxAbsDiff(ab, ba), 0.01f);
}

TEST(TransparentOps, AdditiveAndMultiplyAreCommutative)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        Color a = randColor(rng), b = randColor(rng);
        for (BlendOp op : {BlendOp::Additive, BlendOp::Multiply}) {
            Color ab = mergeTransparent(op, a, b);
            Color ba = mergeTransparent(op, b, a);
            // Alpha channel carries the back coverage, compare rgb only.
            EXPECT_NEAR(ab.r, ba.r, 1e-6f);
            EXPECT_NEAR(ab.g, ba.g, 1e-6f);
            EXPECT_NEAR(ab.b, ba.b, 1e-6f);
        }
    }
}

TEST(TransparentOps, OverMatchesSequentialBlend)
{
    // Folding premultiplied partial composites then finalizing over the
    // background must match blending straight-alpha fragments in order.
    Rng rng(29);
    for (int trial = 0; trial < 100; ++trial) {
        Color bg{rng.nextFloat(), rng.nextFloat(), rng.nextFloat(), 1.0f};
        std::vector<Color> frags;
        for (int i = 0; i < 4; ++i)
            frags.push_back(randColor(rng));

        // Reference: sequential source-over blending onto the background.
        Color ref = bg;
        for (const Color &f : frags)
            ref = blendPixel(BlendOp::Over, f, ref);

        // CHOPIN-style: accumulate premultiplied, split at a random point,
        // merge the halves, finalize over the background.
        auto accumulate = [&](int lo, int hi) {
            Color acc = transparentIdentity(BlendOp::Over);
            for (int i = hi - 1; i >= lo; --i) {
                Color premul{frags[i].r * frags[i].a,
                             frags[i].g * frags[i].a,
                             frags[i].b * frags[i].a, frags[i].a};
                acc = mergeTransparent(BlendOp::Over, acc, premul);
            }
            return acc;
        };
        int split = 1 + static_cast<int>(rng.nextBounded(3));
        Color merged = mergeTransparent(BlendOp::Over, accumulate(split, 4),
                                        accumulate(0, split));
        Color out = finalizeTransparent(BlendOp::Over, merged, bg);
        EXPECT_LT(maxAbsDiff(out, ref), 1e-5f) << "trial " << trial;
    }
}

} // namespace
} // namespace chopin
