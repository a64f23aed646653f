// Tests for the asynchronous fetch pipeline: prefetch claims, coalescing
// with blocking fetches, batch fetch failure handling, and the eviction
// guarantee for claimed pages.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "index/chunk_layout.hpp"
#include "pagespace/page_space_manager.hpp"
#include "pagespace/readahead.hpp"
#include "storage/synthetic_source.hpp"

namespace mqs::pagespace {
namespace {

using storage::PageKey;

/// Wraps a source, counting device reads and optionally stalling them so
/// tests can provoke concurrent fetches of the same page.
class CountingSource final : public storage::DataSource {
 public:
  explicit CountingSource(const storage::DataSource& inner,
                          std::chrono::milliseconds delay = {})
      : inner_(inner), delay_(delay) {}

  [[nodiscard]] storage::PageId pageCount() const override {
    return inner_.pageCount();
  }
  [[nodiscard]] std::size_t pageBytes(storage::PageId p) const override {
    return inner_.pageBytes(p);
  }
  void readPage(storage::PageId p, std::span<std::byte> out) const override {
    ++reads_;
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    inner_.readPage(p, out);
  }

  [[nodiscard]] int reads() const { return reads_.load(); }

 private:
  const storage::DataSource& inner_;
  std::chrono::milliseconds delay_;
  mutable std::atomic<int> reads_{0};
};

/// A source whose every read fails.
class FailingSource final : public storage::DataSource {
 public:
  explicit FailingSource(const storage::DataSource& inner) : inner_(inner) {}

  [[nodiscard]] storage::PageId pageCount() const override {
    return inner_.pageCount();
  }
  [[nodiscard]] std::size_t pageBytes(storage::PageId p) const override {
    return inner_.pageBytes(p);
  }
  void readPage(storage::PageId, std::span<std::byte>) const override {
    throw std::runtime_error("device error");
  }

 private:
  const storage::DataSource& inner_;
};

void waitForIdle(const PageSpaceManager& ps) {
  while (ps.inflightCount() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

class PrefetchPipelineTest : public ::testing::Test {
 protected:
  PrefetchPipelineTest()
      : layout_(256, 256, 64), slide_(layout_, /*seed=*/9) {}

  index::ChunkLayout layout_;
  storage::SyntheticSlideSource slide_;
};

TEST_F(PrefetchPipelineTest, PrefetchCoalescesWithBlockingFetch) {
  CountingSource slow(slide_, std::chrono::milliseconds(25));
  PageSpaceManager ps(1 << 20);
  ps.attach(0, &slow);

  // prefetch() registers the in-flight read before returning, so the
  // demand fetch below is guaranteed to merge onto it.
  ps.prefetch(PageKey{0, 2});
  const auto page = ps.fetch(PageKey{0, 2});
  ASSERT_EQ(page->size(), layout_.chunkBytes(2));
  EXPECT_EQ(static_cast<std::uint8_t>((*page)[0]),
            storage::syntheticPixel(9, layout_.chunkRect(2).x0,
                                    layout_.chunkRect(2).y0, 0));

  EXPECT_EQ(slow.reads(), 1);  // one device read for both requests
  const auto s = ps.stats();
  EXPECT_EQ(s.merged, 1u);
  EXPECT_EQ(s.misses, 0u);  // demand miss was absorbed by the prefetch
  EXPECT_EQ(s.prefetchIssued, 1u);
  EXPECT_EQ(s.prefetchHits, 1u);
  EXPECT_EQ(s.prefetchWasted, 0u);
  EXPECT_EQ(ps.claimCount(), 0u);  // claim consumed by the fetch
}

TEST_F(PrefetchPipelineTest, PrefetchedButUnusedIsAccountedWasted) {
  CountingSource counting(slide_);
  PageSpaceManager ps(1 << 20);
  ps.attach(0, &counting);

  ps.prefetch(PageKey{0, 4});
  waitForIdle(ps);
  ps.releaseClaim(PageKey{0, 4});

  EXPECT_EQ(counting.reads(), 1);
  const auto s = ps.stats();
  EXPECT_EQ(s.prefetchIssued, 1u);
  EXPECT_EQ(s.prefetchHits, 0u);
  EXPECT_EQ(s.prefetchWasted, 1u);
  EXPECT_EQ(ps.claimCount(), 0u);

  // The page is no longer pinned: a later fetch is a plain resident hit.
  (void)ps.fetch(PageKey{0, 4});
  EXPECT_EQ(counting.reads(), 1);
  EXPECT_EQ(ps.stats().hits, 1u);
}

TEST_F(PrefetchPipelineTest, FetchBatchFailurePropagatesWithoutLeaks) {
  FailingSource failing(slide_);
  PageSpaceManager ps(1 << 20);
  ps.attach(0, &failing);

  const std::vector<PageKey> keys = {
      PageKey{0, 0}, PageKey{0, 1}, PageKey{0, 2}, PageKey{0, 3}};
  EXPECT_THROW((void)ps.fetchBatch(keys), std::runtime_error);

  waitForIdle(ps);
  EXPECT_EQ(ps.inflightCount(), 0u);  // no leaked in-flight entries
  EXPECT_EQ(ps.claimCount(), 0u);     // no leaked prefetch claims

  // A re-fetch must attempt a fresh read and fail again — not hang on a
  // stale in-flight entry.
  EXPECT_THROW((void)ps.fetch(PageKey{0, 0}), std::runtime_error);
}

TEST_F(PrefetchPipelineTest, FetchBatchReturnsPagesInOrder) {
  CountingSource counting(slide_);
  PageSpaceManager ps(1 << 20);
  ps.attach(0, &counting);

  const std::vector<PageKey> keys = {PageKey{0, 3}, PageKey{0, 0},
                                     PageKey{0, 7}};
  const auto pages = ps.fetchBatch(keys);
  ASSERT_EQ(pages.size(), keys.size());
  EXPECT_EQ(counting.reads(), 3);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Rect r = layout_.chunkRect(keys[i].page);
    EXPECT_EQ(static_cast<std::uint8_t>((*pages[i])[0]),
              storage::syntheticPixel(9, r.x0, r.y0, 0));
  }
  EXPECT_EQ(ps.claimCount(), 0u);
}

TEST_F(PrefetchPipelineTest, EvictionNeverDropsClaimedPage) {
  CountingSource counting(slide_);
  // Budget for roughly one page only.
  PageSpaceManager ps(layout_.chunkBytes(0) + 10);
  ps.attach(0, &counting);

  ps.prefetch(PageKey{0, 0});
  waitForIdle(ps);

  // These fetches would each evict the previous resident page, but the
  // claim pins page 0 so it must survive all of them.
  for (storage::PageId p = 1; p <= 3; ++p) {
    const PagePtr page = ps.fetch(PageKey{0, p});
    ASSERT_NE(page, nullptr);
    EXPECT_EQ(page->size(), layout_.chunkBytes(p));
  }
  EXPECT_EQ(counting.reads(), 4);
  // Pages 1-3 were served but never cached: the pinned claim fills the
  // budget, so each insert found nothing evictable and left the page out.
  EXPECT_EQ(ps.residentBytes(), layout_.chunkBytes(0));
  EXPECT_EQ(ps.stats().evictions, 0u);

  // Page 0 is still resident: consuming the claim costs no device read.
  (void)ps.fetch(PageKey{0, 0});
  EXPECT_EQ(counting.reads(), 4);
  const auto s = ps.stats();
  EXPECT_EQ(s.prefetchHits, 1u);
  EXPECT_EQ(ps.claimCount(), 0u);
}

TEST_F(PrefetchPipelineTest, ReadaheadStreamScansEveryChunkCorrectly) {
  CountingSource counting(slide_);
  PageSpaceManager ps(1 << 22);
  ps.attach(0, &counting);

  std::vector<PageKey> keys;
  for (storage::PageId p = 0; p < layout_.chunkCount(); ++p) {
    keys.push_back(PageKey{0, p});
  }
  ReadaheadStream stream(ps, keys, /*window=*/3);
  std::size_t i = 0;
  while (!stream.done()) {
    const auto page = stream.next();
    const Rect r = layout_.chunkRect(keys[i].page);
    ASSERT_EQ(page->size(), layout_.chunkBytes(keys[i].page));
    EXPECT_EQ(static_cast<std::uint8_t>((*page)[0]),
              storage::syntheticPixel(9, r.x0, r.y0, 0));
    ++i;
  }
  EXPECT_EQ(i, keys.size());
  EXPECT_EQ(counting.reads(), static_cast<int>(keys.size()));
  EXPECT_EQ(ps.claimCount(), 0u);
  EXPECT_EQ(ps.stats().prefetchWasted, 0u);
}

TEST_F(PrefetchPipelineTest, AbandonedStreamReleasesItsClaims) {
  CountingSource counting(slide_);
  PageSpaceManager ps(1 << 22);
  ps.attach(0, &counting);

  std::vector<PageKey> keys;
  for (storage::PageId p = 0; p < 8; ++p) keys.push_back(PageKey{0, p});
  {
    ReadaheadStream stream(ps, keys, /*window=*/4);
    (void)stream.next();
    (void)stream.next();
  }  // destroyed mid-scan: outstanding claims must be released
  waitForIdle(ps);
  EXPECT_EQ(ps.claimCount(), 0u);
  EXPECT_GE(ps.stats().prefetchWasted, 1u);
}

}  // namespace
}  // namespace mqs::pagespace
