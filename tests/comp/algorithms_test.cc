#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <span>
#include <vector>

#include "comp/algorithms.hh"
#include "util/rng.hh"

namespace chopin
{
namespace
{

/** Random sparse sub-images: most pixels background, some written. */
std::vector<DepthImage>
randomSubImages(Rng &rng, int n, int w, int h, double fill = 0.4)
{
    std::vector<DepthImage> subs;
    for (int i = 0; i < n; ++i) {
        DepthImage img(w, h);
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                if (!rng.nextBool(fill))
                    continue;
                img.set(x, y,
                        {{rng.nextFloat(), rng.nextFloat(), rng.nextFloat(),
                          1.0f},
                         rng.nextFloat(),
                         static_cast<DrawId>(rng.nextBounded(1000))});
            }
        }
        subs.push_back(std::move(img));
    }
    return subs;
}

void
expectSame(const DepthImage &a, const DepthImage &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            OpaquePixel pa = a.at(x, y);
            OpaquePixel pb = b.at(x, y);
            ASSERT_EQ(pa.depth, pb.depth) << x << "," << y;
            ASSERT_EQ(pa.writer, pb.writer) << x << "," << y;
            ASSERT_EQ(pa.color, pb.color) << x << "," << y;
        }
    }
}

class AlgorithmEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(AlgorithmEquivalence, AllAlgorithmsProduceTheSameImage)
{
    int n = GetParam();
    Rng rng(100 + n);
    auto subs = randomSubImages(rng, n, 32, 24);
    DepthImage serial = composeSerialSink(subs, DepthFunc::LessEqual);
    DepthImage direct = composeDirectSend(subs, DepthFunc::LessEqual);
    expectSame(serial, direct);
    if ((n & (n - 1)) == 0) {
        DepthImage swap = composeBinarySwap(subs, DepthFunc::LessEqual);
        expectSame(serial, swap);
    }
}

INSTANTIATE_TEST_SUITE_P(Ranks, AlgorithmEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(Algorithms, SingleImagePassesThrough)
{
    Rng rng(7);
    auto subs = randomSubImages(rng, 1, 8, 8);
    DepthImage out = composeSerialSink(subs, DepthFunc::Less);
    expectSame(out, subs[0]);
}

TEST(Algorithms, SerialSinkTrafficIsFullImages)
{
    Rng rng(8);
    auto subs = randomSubImages(rng, 4, 16, 16);
    CompositionTraffic t;
    composeSerialSink(subs, DepthFunc::Less, &t);
    Bytes image_bytes = 16 * 16 * bytesPerOpaquePixel;
    EXPECT_EQ(t.total_bytes, 3 * image_bytes);
    EXPECT_EQ(t.transfers, 3u);
    EXPECT_EQ(t.max_link_bytes, image_bytes);
}

TEST(Algorithms, DirectSendBalancesLinkLoad)
{
    Rng rng(9);
    int n = 8;
    auto subs = randomSubImages(rng, n, 16, 64);
    CompositionTraffic serial, direct;
    composeSerialSink(subs, DepthFunc::Less, &serial);
    composeDirectSend(subs, DepthFunc::Less, &direct);
    // Direct-send moves roughly the same total volume but in per-region
    // messages, so the heaviest single transfer is ~n times smaller.
    EXPECT_EQ(direct.transfers, static_cast<std::uint32_t>(n * (n - 1)));
    EXPECT_LT(direct.max_link_bytes, serial.max_link_bytes);
    EXPECT_LE(direct.max_link_bytes * (n - 1), serial.total_bytes);
}

TEST(Algorithms, BinarySwapTotalTrafficIsLowerThanDirectSend)
{
    Rng rng(10);
    int n = 8;
    auto subs = randomSubImages(rng, n, 16, 64);
    CompositionTraffic direct, swap;
    composeDirectSend(subs, DepthFunc::Less, &direct);
    composeBinarySwap(subs, DepthFunc::Less, &swap);
    // Binary-swap sends sum_k h/2^k per rank vs (n-1)/n * h for direct-send:
    // totals are close, but binary-swap uses fewer, larger messages early.
    EXPECT_LT(swap.transfers, direct.transfers);
    EXPECT_GT(swap.total_bytes, 0u);
}

// The factors are held inline, not in a vector: gtest prints a parameter
// type that has no printer as its raw bytes, ctest names each discovered
// test with that text, and a heap address there would rename the tests on
// every build.
struct RadixCase
{
    RadixCase(std::initializer_list<unsigned> ks)
    {
        for (unsigned k : ks)
            held.at(count++) = k;
    }

    std::span<const unsigned> factors() const { return {held.data(), count}; }

    std::array<unsigned, 3> held{};
    unsigned count = 0;
};

class RadixKTest : public ::testing::TestWithParam<RadixCase>
{
};

TEST_P(RadixKTest, MatchesSerialSink)
{
    const RadixCase &c = GetParam();
    std::size_t n = 1;
    for (unsigned k : c.factors())
        n *= k;
    Rng rng(200 + static_cast<std::uint64_t>(n));
    auto subs = randomSubImages(rng, static_cast<int>(n), 24, 30);
    DepthImage serial = composeSerialSink(subs, DepthFunc::LessEqual);
    DepthImage radix =
        composeRadixK(subs, DepthFunc::LessEqual, c.factors());
    expectSame(serial, radix);
}

INSTANTIATE_TEST_SUITE_P(
    Factorizations, RadixKTest,
    ::testing::Values(RadixCase{2}, RadixCase{2, 2}, RadixCase{2, 2, 2},
                      RadixCase{4, 2}, RadixCase{2, 4}, RadixCase{8},
                      RadixCase{3, 3}, RadixCase{2, 3}, RadixCase{16}),
    [](const auto &info) {
        std::string name = "k";
        for (unsigned k : info.param.factors())
            name += "_" + std::to_string(k);
        return name;
    });

TEST(RadixK, AllTwosMatchesBinarySwapTraffic)
{
    Rng rng(77);
    auto subs = randomSubImages(rng, 8, 16, 32);
    CompositionTraffic swap, radix;
    composeBinarySwap(subs, DepthFunc::Less, &swap);
    const unsigned twos[] = {2, 2, 2};
    composeRadixK(subs, DepthFunc::Less, twos, &radix);
    EXPECT_EQ(radix.total_bytes, swap.total_bytes);
    EXPECT_EQ(radix.transfers, swap.transfers);
}

TEST(RadixK, SingleFactorMatchesDirectSendTraffic)
{
    Rng rng(78);
    auto subs = randomSubImages(rng, 8, 16, 32);
    CompositionTraffic direct, radix;
    composeDirectSend(subs, DepthFunc::Less, &direct);
    const unsigned whole[] = {8};
    composeRadixK(subs, DepthFunc::Less, whole, &radix);
    EXPECT_EQ(radix.transfers, direct.transfers);
    EXPECT_EQ(radix.total_bytes, direct.total_bytes);
}

TEST(RadixK, FactorizationTradesMessageCountAgainstSize)
{
    Rng rng(79);
    auto subs = randomSubImages(rng, 16, 16, 64);
    CompositionTraffic fine, coarse;
    const unsigned twos[] = {2, 2, 2, 2};
    const unsigned fours[] = {4, 4};
    composeRadixK(subs, DepthFunc::Less, twos, &fine);
    composeRadixK(subs, DepthFunc::Less, fours, &coarse);
    EXPECT_LT(fine.transfers, coarse.transfers);
    EXPECT_GT(fine.max_link_bytes, coarse.max_link_bytes);
}

TEST(RadixKDeath, WrongFactorizationPanics)
{
    Rng rng(80);
    auto subs = randomSubImages(rng, 8, 8, 8);
    const unsigned bad[] = {2, 2};
    EXPECT_DEATH(composeRadixK(subs, DepthFunc::Less, bad),
                 "factors multiply");
}

TEST(Algorithms, GreaterFuncSelectsFarthest)
{
    DepthImage a(2, 1), b(2, 1);
    a.set(0, 0, {{1, 0, 0, 1}, 0.3f, 0});
    b.set(0, 0, {{0, 1, 0, 1}, 0.7f, 1});
    std::vector<DepthImage> subs{a, b};
    DepthImage out = composeDirectSend(subs, DepthFunc::GreaterEqual);
    EXPECT_EQ(out.at(0, 0).writer, 1u);
    EXPECT_FLOAT_EQ(out.at(0, 0).depth, 0.7f);
}

class TransparentLayersTest : public ::testing::TestWithParam<BlendOp>
{
};

TEST_P(TransparentLayersTest, AnyBracketingMatchesLeftFold)
{
    BlendOp op = GetParam();
    Rng rng(40 + static_cast<int>(op));
    int w = 16, h = 12;
    std::vector<Image> layers;
    for (int i = 0; i < 6; ++i) {
        Image l(w, h, transparentIdentity(op));
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                if (rng.nextBool(0.5))
                    l.at(x, y) = {rng.nextFloat() * 0.8f,
                                  rng.nextFloat() * 0.8f,
                                  rng.nextFloat() * 0.8f, rng.nextFloat()};
        layers.push_back(std::move(l));
    }
    Image fold = composeTransparentLayers(layers, op, 0);
    for (std::size_t split = 1; split < layers.size(); ++split) {
        Image bracketed = composeTransparentLayers(layers, op, split);
        ImageDiff diff = compareImages(fold, bracketed, 1e-5f);
        EXPECT_EQ(diff.differing_pixels, 0)
            << toString(op) << " split " << split << " max diff "
            << diff.max_abs_diff;
    }
}

INSTANTIATE_TEST_SUITE_P(Ops, TransparentLayersTest,
                         ::testing::Values(BlendOp::Over, BlendOp::Additive,
                                           BlendOp::Multiply),
                         [](const auto &info) {
                             return toString(info.param);
                         });

} // namespace
} // namespace chopin
