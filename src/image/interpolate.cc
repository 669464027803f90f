#include "image/interpolate.h"

#include <cmath>

namespace neuroprint::image {

double SampleTrilinear(const Volume3D& v, double x, double y, double z,
                       double outside_value) {
  if (v.empty()) return outside_value;
  const double max_x = static_cast<double>(v.nx()) - 1.0;
  const double max_y = static_cast<double>(v.ny()) - 1.0;
  const double max_z = static_cast<double>(v.nz()) - 1.0;
  if (!(x >= 0.0 && y >= 0.0 && z >= 0.0 && x <= max_x && y <= max_y &&
        z <= max_z)) {
    return outside_value;  // Also for a NaN coordinate.
  }
  // Truncation is floor on these non-negative coordinates, without a libm
  // call.
  const auto x0 = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(x));
  const auto y0 = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(y));
  const auto z0 = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(z));
  const std::size_t x1 = std::min(x0 + 1, v.nx() - 1);
  const std::size_t y1 = std::min(y0 + 1, v.ny() - 1);
  const std::size_t z1 = std::min(z0 + 1, v.nz() - 1);
  const double fx = x - static_cast<double>(x0);
  const double fy = y - static_cast<double>(y0);
  const double fz = z - static_cast<double>(z0);

  const double c000 = v.at(x0, y0, z0), c100 = v.at(x1, y0, z0);
  const double c010 = v.at(x0, y1, z0), c110 = v.at(x1, y1, z0);
  const double c001 = v.at(x0, y0, z1), c101 = v.at(x1, y0, z1);
  const double c011 = v.at(x0, y1, z1), c111 = v.at(x1, y1, z1);

  const double c00 = c000 * (1 - fx) + c100 * fx;
  const double c10 = c010 * (1 - fx) + c110 * fx;
  const double c01 = c001 * (1 - fx) + c101 * fx;
  const double c11 = c011 * (1 - fx) + c111 * fx;
  const double c0 = c00 * (1 - fy) + c10 * fy;
  const double c1 = c01 * (1 - fy) + c11 * fy;
  return c0 * (1 - fz) + c1 * fz;
}

double SampleNearest(const Volume3D& v, double x, double y, double z,
                     double outside_value) {
  if (v.empty()) return outside_value;
  const auto xi = static_cast<std::ptrdiff_t>(std::lround(x));
  const auto yi = static_cast<std::ptrdiff_t>(std::lround(y));
  const auto zi = static_cast<std::ptrdiff_t>(std::lround(z));
  if (xi < 0 || yi < 0 || zi < 0 ||
      xi >= static_cast<std::ptrdiff_t>(v.nx()) ||
      yi >= static_cast<std::ptrdiff_t>(v.ny()) ||
      zi >= static_cast<std::ptrdiff_t>(v.nz())) {
    return outside_value;
  }
  return v.at(static_cast<std::size_t>(xi), static_cast<std::size_t>(yi),
              static_cast<std::size_t>(zi));
}

}  // namespace neuroprint::image
