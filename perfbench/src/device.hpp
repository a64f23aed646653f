// The benchmark's own storage device and pixel function.
//
// Pages are served from benchPixel(), a pure function of (slide seed, x, y)
// that lives here and nowhere in the program, so an edit to the program's
// SyntheticSlideSource can neither change the bytes the benchmark checks
// nor make the device cheaper. Each page read costs the pixel fill plus a
// fixed modeled device latency (kPageLatencyUs, slept, not spun), and the
// device counts its pages, bytes and read time.
#pragma once

#include <atomic>
#include <cstdint>

#include "index/chunk_layout.hpp"
#include "storage/data_source.hpp"

namespace perfbench {

/// Modeled device latency per page read, in microseconds.
inline constexpr int kPageLatencyUs = 150;

/// Pixel (x, y) of the slide with seed `seed`: channel c (0..2) is byte c
/// of the returned word.
inline std::uint64_t benchPixel(std::uint64_t seed, std::int64_t x,
                                std::int64_t y) {
  std::uint64_t h = seed ^ (static_cast<std::uint64_t>(x) *
                            0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(y) * 0xd1b54a32d192ed03ULL);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}

/// Device counters, shared by every slide of one server.
struct DeviceCounters {
  std::atomic<std::uint64_t> pages{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> readNs{0};
};

class BenchSlide final : public mqs::storage::DataSource {
 public:
  BenchSlide(mqs::index::ChunkLayout layout, std::uint64_t seed,
             DeviceCounters* counters)
      : layout_(std::move(layout)), seed_(seed), counters_(counters) {}

  [[nodiscard]] mqs::storage::PageId pageCount() const override {
    return layout_.chunkCount();
  }
  [[nodiscard]] std::size_t pageBytes(mqs::storage::PageId page) const override {
    return layout_.chunkBytes(page);
  }
  void readPage(mqs::storage::PageId page,
                std::span<std::byte> out) const override;

 private:
  mqs::index::ChunkLayout layout_;
  std::uint64_t seed_;
  DeviceCounters* counters_;
};

}  // namespace perfbench
