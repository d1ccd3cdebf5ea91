#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/image.hh"

namespace chopin
{
namespace
{

TEST(Image, ConstructionAndFill)
{
    Image img(4, 3, {1, 0, 0, 1});
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.at(3, 2), (Color{1, 0, 0, 1}));
    img.clear({0, 1, 0, 1});
    EXPECT_EQ(img.at(0, 0), (Color{0, 1, 0, 1}));
}

TEST(Image, MovesLeaveTheSourceEmpty)
{
    // A moved-from image must not keep reporting its old size over empty
    // pixel storage (the frame result takes the final image by move).
    Image a(4, 3, {1, 0, 0, 1});
    Image b(std::move(a));
    EXPECT_EQ(b.width(), 4);
    EXPECT_EQ(b.height(), 3);
    EXPECT_EQ(b.at(3, 2), (Color{1, 0, 0, 1}));
    EXPECT_EQ(a.width(), 0); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.height(), 0);
    EXPECT_TRUE(a.data().empty());

    Image c(2, 2);
    c = std::move(b);
    EXPECT_EQ(c.width(), 4);
    EXPECT_EQ(c.height(), 3);
    EXPECT_EQ(c.data().size(), 12u);
    EXPECT_EQ(b.width(), 0); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.height(), 0);
    EXPECT_TRUE(b.data().empty());

    // A copy leaves its source alone.
    Image d = c;
    EXPECT_EQ(c.width(), 4);
    EXPECT_EQ(d.data(), c.data());
}

TEST(Image, CompareIdentical)
{
    Image a(8, 8, {0.5f, 0.5f, 0.5f, 1});
    ImageDiff d = compareImages(a, a);
    EXPECT_EQ(d.differing_pixels, 0);
    EXPECT_FLOAT_EQ(d.max_abs_diff, 0.0f);
}

TEST(Image, CompareFindsFirstDifference)
{
    Image a(8, 8), b(8, 8);
    b.at(5, 2) = {0.2f, 0, 0, 0};
    b.at(6, 7) = {0.1f, 0, 0, 0};
    ImageDiff d = compareImages(a, b);
    EXPECT_EQ(d.differing_pixels, 2);
    EXPECT_EQ(d.first_x, 5);
    EXPECT_EQ(d.first_y, 2);
    EXPECT_NEAR(d.max_abs_diff, 0.2f, 1e-6f);
}

TEST(Image, CompareHonorsTolerance)
{
    Image a(4, 4), b(4, 4);
    b.at(1, 1) = {0.05f, 0, 0, 0};
    EXPECT_EQ(compareImages(a, b, 0.1f).differing_pixels, 0);
    EXPECT_EQ(compareImages(a, b, 0.01f).differing_pixels, 1);
}

TEST(Image, CompareSizeMismatch)
{
    Image a(4, 4), b(5, 4);
    EXPECT_EQ(compareImages(a, b).differing_pixels, -1);
}

TEST(Image, PpmWriteProducesValidHeaderAndSize)
{
    Image img(10, 5, {1, 1, 1, 1});
    std::string path = ::testing::TempDir() + "/chopin_test.ppm";
    ASSERT_TRUE(img.writePpm(path));
    std::ifstream in(path, std::ios::binary);
    std::string magic;
    int w, h, maxval;
    in >> magic >> w >> h >> maxval;
    EXPECT_EQ(magic, "P6");
    EXPECT_EQ(w, 10);
    EXPECT_EQ(h, 5);
    EXPECT_EQ(maxval, 255);
    in.get(); // single whitespace after header
    std::vector<char> payload(static_cast<std::size_t>(w) * h * 3);
    in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
    EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(payload.size()));
    std::remove(path.c_str());
}

TEST(Image, PpmWriteFailsOnBadPath)
{
    Image img(2, 2);
    EXPECT_FALSE(img.writePpm("/nonexistent-dir/x.ppm"));
}

} // namespace
} // namespace chopin
