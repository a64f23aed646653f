#include "reference.hpp"

#include <cstdlib>
#include <sstream>

#include "device.hpp"

namespace perfbench {

std::vector<std::uint8_t> renderReference(const mqs::vm::VMPredicate& q,
                                          std::uint64_t slideSeed) {
  const std::int64_t z = q.zoom();
  const std::int64_t w = q.region().width() / z;
  const std::int64_t h = q.region().height() / z;
  const std::int64_t x0 = q.region().x0;
  const std::int64_t y0 = q.region().y0;
  std::vector<std::uint8_t> img(static_cast<std::size_t>(w * h * 3));
  for (std::int64_t py = 0; py < h; ++py) {
    for (std::int64_t px = 0; px < w; ++px) {
      std::uint8_t* o = &img[static_cast<std::size_t>((py * w + px) * 3)];
      if (q.op() == mqs::vm::VMOp::Subsample) {
        const std::uint64_t p = benchPixel(slideSeed, x0 + px * z, y0 + py * z);
        for (int c = 0; c < 3; ++c) o[c] = static_cast<std::uint8_t>(p >> (8 * c));
        continue;
      }
      std::uint64_t sum[3] = {0, 0, 0};
      for (std::int64_t dy = 0; dy < z; ++dy) {
        for (std::int64_t dx = 0; dx < z; ++dx) {
          const std::uint64_t p =
              benchPixel(slideSeed, x0 + px * z + dx, y0 + py * z + dy);
          for (int c = 0; c < 3; ++c) sum[c] += (p >> (8 * c)) & 0xff;
        }
      }
      const auto n = static_cast<std::uint64_t>(z * z);
      for (int c = 0; c < 3; ++c) {
        o[c] = static_cast<std::uint8_t>((sum[c] + n / 2) / n);
      }
    }
  }
  return img;
}

int averagingTolerance(std::uint32_t zoom) {
  int primeFactors = 0;
  for (std::uint32_t f = 2, z = zoom; z > 1;) {
    if (z % f == 0) {
      z /= f;
      ++primeFactors;
    } else {
      ++f;
    }
  }
  const int d = primeFactors > 1 ? primeFactors - 1 : 0;
  return d == 0 ? 0 : (d + 2) / 2;
}

std::string checkImage(const mqs::vm::VMPredicate& q, std::uint64_t slideSeed,
                       std::span<const std::byte> got, int tolerance,
                       int* maxDiff) {
  const std::vector<std::uint8_t> want = renderReference(q, slideSeed);
  if (maxDiff != nullptr) *maxDiff = 0;
  if (got.size() != want.size()) {
    std::ostringstream os;
    os << q.describe() << ": " << got.size() << " bytes, expected "
       << want.size();
    return os.str();
  }
  std::string first;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const int d = std::abs(static_cast<int>(got[i]) - static_cast<int>(want[i]));
    if (maxDiff != nullptr && d > *maxDiff) *maxDiff = d;
    if (d > tolerance && first.empty()) {
      std::ostringstream os;
      os << q.describe() << ": byte " << i << " is "
         << static_cast<int>(got[i]) << ", expected "
         << static_cast<int>(want[i]) << " (tolerance " << tolerance << ")";
      first = os.str();
      if (maxDiff == nullptr) break;
    }
  }
  return first;
}

}  // namespace perfbench
