#include "device.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace perfbench {

void BenchSlide::readPage(mqs::storage::PageId page,
                          std::span<std::byte> out) const {
  const auto t0 = std::chrono::steady_clock::now();
  const mqs::Rect r = layout_.chunkRect(page);
  const std::size_t need = static_cast<std::size_t>(r.area()) * 3;
  if (out.size() < need) throw std::runtime_error("readPage: short buffer");
  std::byte* o = out.data();
  for (std::int64_t y = r.y0; y < r.y1; ++y) {
    for (std::int64_t x = r.x0; x < r.x1; ++x) {
      const std::uint64_t px = benchPixel(seed_, x, y);
      *o++ = static_cast<std::byte>(px);
      *o++ = static_cast<std::byte>(px >> 8);
      *o++ = static_cast<std::byte>(px >> 16);
    }
  }
  std::this_thread::sleep_for(std::chrono::microseconds(kPageLatencyUs));
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  counters_->pages.fetch_add(1, std::memory_order_relaxed);
  counters_->bytes.fetch_add(need, std::memory_order_relaxed);
  counters_->readNs.fetch_add(static_cast<std::uint64_t>(ns),
                              std::memory_order_relaxed);
}

}  // namespace perfbench
