/**
 * @file
 * A simple 2D image of Color pixels, used for framebuffers, render targets
 * and sub-images, plus PPM output and comparison helpers for the
 * image-equality oracle tests.
 */

#ifndef CHOPIN_UTIL_IMAGE_HH
#define CHOPIN_UTIL_IMAGE_HH

#include <string>
#include <vector>

#include "util/check.hh"
#include "util/color.hh"

namespace chopin
{

/** Row-major 2D array of RGBA colors. */
class Image
{
  public:
    Image() = default;

    /** Create a w x h image filled with @p fill. */
    Image(int w, int h, const Color &fill = Color());

    Image(const Image &) = default;
    Image &operator=(const Image &) = default;

    /** Moves leave the source 0x0, so its size agrees with its (empty)
     *  pixel storage. */
    Image(Image &&other) noexcept;
    Image &operator=(Image &&other) noexcept;

    int width() const { return _width; }
    int height() const { return _height; }

    const Color &at(int x, int y) const { return pixels[index(x, y)]; }
    Color &at(int x, int y) { return pixels[index(x, y)]; }

    /** Raw pixel storage (row-major). */
    const std::vector<Color> &data() const { return pixels; }
    std::vector<Color> &data() { return pixels; }

    /** Fill the whole image with one color. */
    void clear(const Color &c);

    /** Write as binary PPM (P6), discarding alpha. Returns false on IO error. */
    bool writePpm(const std::string &path) const;

  private:
    std::size_t
    index(int x, int y) const
    {
        CHOPIN_CHECK(x >= 0 && x < _width && y >= 0 && y < _height,
                     "pixel (", x, ",", y, ") out of ", _width, "x", _height);
        return static_cast<std::size_t>(y) * _width + x;
    }

    int _width = 0;
    int _height = 0;
    std::vector<Color> pixels;
};

/** Result of comparing two images. */
struct ImageDiff
{
    int differing_pixels = 0;  ///< count of pixels beyond tolerance
    float max_abs_diff = 0.0f; ///< worst per-component difference
    int first_x = -1;          ///< coordinates of the first differing pixel
    int first_y = -1;
};

/**
 * Compare two images component-wise.
 *
 * @param tolerance maximum allowed per-component absolute difference.
 * @return diff summary; differing_pixels == 0 means "equal".
 */
ImageDiff compareImages(const Image &a, const Image &b,
                        float tolerance = 0.0f);

} // namespace chopin

#endif // CHOPIN_UTIL_IMAGE_HH
