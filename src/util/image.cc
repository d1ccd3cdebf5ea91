#include "util/image.hh"

#include <cstdio>
#include <fstream>
#include <utility>

namespace chopin
{

Image::Image(int w, int h, const Color &fill)
    : _width(w), _height(h),
      pixels(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), fill)
{
    CHOPIN_CHECK(w >= 0 && h >= 0);
}

Image::Image(Image &&other) noexcept
    : _width(std::exchange(other._width, 0)),
      _height(std::exchange(other._height, 0)),
      pixels(std::move(other.pixels))
{
}

Image &
Image::operator=(Image &&other) noexcept
{
    if (this != &other) {
        _width = std::exchange(other._width, 0);
        _height = std::exchange(other._height, 0);
        pixels = std::move(other.pixels);
        other.pixels.clear();
    }
    return *this;
}

void
Image::clear(const Color &c)
{
    std::fill(pixels.begin(), pixels.end(), c);
}

bool
Image::writePpm(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << "P6\n" << _width << " " << _height << "\n255\n";
    std::vector<unsigned char> row(static_cast<std::size_t>(_width) * 3);
    for (int y = 0; y < _height; ++y) {
        for (int x = 0; x < _width; ++x) {
            std::uint32_t p = packRgba8(at(x, y));
            row[3 * x + 0] = static_cast<unsigned char>((p >> 24) & 0xff);
            row[3 * x + 1] = static_cast<unsigned char>((p >> 16) & 0xff);
            row[3 * x + 2] = static_cast<unsigned char>((p >> 8) & 0xff);
        }
        out.write(reinterpret_cast<const char *>(row.data()),
                  static_cast<std::streamsize>(row.size()));
    }
    return static_cast<bool>(out);
}

ImageDiff
compareImages(const Image &a, const Image &b, float tolerance)
{
    ImageDiff diff;
    if (a.width() != b.width() || a.height() != b.height()) {
        diff.differing_pixels = -1;
        return diff;
    }
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            float d = maxAbsDiff(a.at(x, y), b.at(x, y));
            if (d > diff.max_abs_diff)
                diff.max_abs_diff = d;
            if (d > tolerance) {
                if (diff.differing_pixels == 0) {
                    diff.first_x = x;
                    diff.first_y = y;
                }
                ++diff.differing_pixels;
            }
        }
    }
    return diff;
}

} // namespace chopin
