#include "server/query_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_order.hpp"
#include "storage/delayed_source.hpp"
#include "storage/synthetic_source.hpp"
#include "vm/image.hpp"
#include "vm/vm_executor.hpp"

namespace mqs::server {
namespace {

using vm::ImageRGB;
using vm::VMOp;
using vm::VMPredicate;

constexpr std::uint64_t kSeed = 77;

class QueryServerTest : public ::testing::Test {
 protected:
  QueryServerTest()
      : layout_(1024, 1024, 96), slide_(layout_, kSeed), exec_(&sem_) {
    dsid_ = sem_.addDataset(layout_);
  }

  ServerConfig config(int threads = 2, const std::string& policy = "FIFO") {
    ServerConfig cfg;
    cfg.threads = threads;
    cfg.policy = policy;
    cfg.dsBytes = 16ULL << 20;
    cfg.psBytes = 8ULL << 20;
    return cfg;
  }

  std::unique_ptr<QueryServer> makeServer(ServerConfig cfg) {
    auto server = std::make_unique<QueryServer>(&sem_, &exec_, cfg);
    server->attach(dsid_, &slide_);
    return server;
  }

  query::PredicatePtr pred(Rect r, std::uint32_t zoom,
                           VMOp op = VMOp::Subsample) {
    return std::make_unique<VMPredicate>(dsid_, r, zoom, op);
  }

  static void expectCorrect(const VMPredicate& q, const QueryResult& result) {
    const ImageRGB got =
        ImageRGB::fromBytes(result.bytes, q.outWidth(), q.outHeight());
    const ImageRGB expect = renderReference(q, kSeed);
    // Averaging reuse paths may double-round; subsampling must be exact.
    const int tol = q.op() == VMOp::Average ? 2 : 0;
    EXPECT_LE(maxAbsDiff(got, expect), tol) << q.describe();
  }

  index::ChunkLayout layout_;
  storage::SyntheticSlideSource slide_;
  vm::VMSemantics sem_;
  vm::VMExecutor exec_;
  storage::DatasetId dsid_ = 0;
};

TEST_F(QueryServerTest, SingleQueryCorrectResult) {
  auto server = makeServer(config());
  const VMPredicate q(dsid_, Rect::ofSize(0, 0, 256, 256), 4, VMOp::Subsample);
  const auto result = server->execute(q.clone(), 0);
  expectCorrect(q, result);
  EXPECT_EQ(result.record.outputBytes, q.outBytes());
  EXPECT_GT(result.record.bytesFromDisk, 0u);
}

TEST_F(QueryServerTest, RepeatQueryReusesCache) {
  auto server = makeServer(config());
  const VMPredicate q(dsid_, Rect::ofSize(0, 0, 256, 256), 4, VMOp::Subsample);
  (void)server->execute(q.clone(), 0);
  const auto second = server->execute(q.clone(), 0);
  expectCorrect(q, second);
  EXPECT_DOUBLE_EQ(second.record.overlapUsed, 1.0);
  EXPECT_EQ(second.record.bytesFromDisk, 0u);
}

TEST_F(QueryServerTest, PartialReuseStillCorrect) {
  auto server = makeServer(config());
  const VMPredicate a(dsid_, Rect::ofSize(0, 0, 512, 512), 4, VMOp::Subsample);
  (void)server->execute(a.clone(), 0);
  const VMPredicate b(dsid_, Rect::ofSize(256, 128, 512, 512), 4,
                      VMOp::Subsample);
  const auto result = server->execute(b.clone(), 0);
  expectCorrect(b, result);
  EXPECT_GT(result.record.overlapUsed, 0.0);
  EXPECT_LT(result.record.overlapUsed, 1.0);
  EXPECT_GT(result.record.bytesReused, 0u);
}

TEST_F(QueryServerTest, CrossZoomReuseCorrectForBothOps) {
  for (const VMOp op : {VMOp::Subsample, VMOp::Average}) {
    auto server = makeServer(config());
    const VMPredicate hi(dsid_, Rect::ofSize(0, 0, 512, 512), 2, op);
    (void)server->execute(hi.clone(), 0);
    const VMPredicate lo(dsid_, Rect::ofSize(0, 0, 512, 512), 8, op);
    const auto result = server->execute(lo.clone(), 0);
    expectCorrect(lo, result);
    EXPECT_GT(result.record.overlapUsed, 0.0);
    EXPECT_EQ(result.record.bytesFromDisk, 0u);
  }
}

TEST_F(QueryServerTest, ManyConcurrentClientsAllCorrect) {
  auto server = makeServer(config(/*threads=*/4, "CF"));
  std::vector<VMPredicate> queries;
  for (int i = 0; i < 24; ++i) {
    const std::uint32_t zoom = 1u << (i % 3);  // 1, 2, 4
    const std::int64_t side = 64 * static_cast<std::int64_t>(zoom);
    const std::int64_t x = (i % 4) * 128;
    const std::int64_t y = ((i / 4) % 3) * 128;
    queries.emplace_back(dsid_, Rect::ofSize(x, y, side, side), zoom,
                         i % 2 == 0 ? VMOp::Subsample : VMOp::Average);
  }
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    futures.push_back(server->submit(queries[i].clone(), static_cast<int>(i)));
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expectCorrect(queries[i], futures[i].get());
  }
  EXPECT_EQ(server->collector().count(), queries.size());
}

TEST_F(QueryServerTest, AllPoliciesProduceCorrectResults) {
  for (const auto& policy : sched::allPolicyNames()) {
    auto server = makeServer(config(3, policy));
    std::vector<std::future<QueryResult>> futures;
    std::vector<VMPredicate> queries;
    for (int i = 0; i < 10; ++i) {
      queries.emplace_back(dsid_,
                           Rect::ofSize((i % 3) * 128, (i % 2) * 128, 256, 256),
                           2, VMOp::Subsample);
    }
    for (auto& q : queries) futures.push_back(server->submit(q.clone(), 0));
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expectCorrect(queries[i], futures[i].get());
    }
  }
}

TEST_F(QueryServerTest, TinyDataStoreStillCorrect) {
  auto cfg = config();
  cfg.dsBytes = 10 * 1024;  // smaller than any result: nothing cacheable
  auto server = makeServer(cfg);
  const VMPredicate q(dsid_, Rect::ofSize(0, 0, 256, 256), 2, VMOp::Average);
  const auto first = server->execute(q.clone(), 0);
  const auto second = server->execute(q.clone(), 0);
  expectCorrect(q, first);
  expectCorrect(q, second);
  EXPECT_DOUBLE_EQ(second.record.overlapUsed, 0.0);  // nothing was cached
}

TEST_F(QueryServerTest, CachingDisabledStillCorrect) {
  auto cfg = config();
  cfg.dataStoreEnabled = false;
  auto server = makeServer(cfg);
  const VMPredicate q(dsid_, Rect::ofSize(64, 64, 256, 256), 4,
                      VMOp::Average);
  const auto r1 = server->execute(q.clone(), 0);
  const auto r2 = server->execute(q.clone(), 0);
  expectCorrect(q, r1);
  expectCorrect(q, r2);
  EXPECT_DOUBLE_EQ(r2.record.overlapUsed, 0.0);
}

TEST_F(QueryServerTest, WaitOnExecutingProducesCorrectResult) {
  auto server = makeServer(config(/*threads=*/2));
  const VMPredicate q(dsid_, Rect::ofSize(0, 0, 512, 512), 2, VMOp::Average);
  // Submit twice back-to-back: the second will either find the first
  // executing (and wait) or cached; both paths must be correct.
  auto f1 = server->submit(q.clone(), 0);
  auto f2 = server->submit(q.clone(), 1);
  expectCorrect(q, f1.get());
  expectCorrect(q, f2.get());
}

TEST_F(QueryServerTest, ShutdownDrainsQueuedQueries) {
  auto server = makeServer(config(2));
  std::vector<std::future<QueryResult>> futures;
  std::vector<VMPredicate> queries;
  for (int i = 0; i < 12; ++i) {
    queries.emplace_back(dsid_, Rect::ofSize((i % 3) * 256, 0, 256, 256), 2,
                         VMOp::Average);
    futures.push_back(server->submit(queries.back().clone(), i));
  }
  server->shutdown();  // must finish everything already accepted
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expectCorrect(queries[i], futures[i].get());
  }
  EXPECT_EQ(server->collector().count(), 12u);
}

TEST_F(QueryServerTest, RealisticDiskLatencyStillCorrect) {
  storage::DiskModel model;
  model.seekOverheadSec = 0.0005;
  model.sequentialOverheadSec = 0.0001;
  model.bytesPerSecond = 200.0 * 1024 * 1024;
  const storage::DelayedSource slow(slide_, model);

  auto server = std::make_unique<QueryServer>(&sem_, &exec_, config(4, "FF"));
  server->attach(dsid_, &slow);

  std::vector<std::future<QueryResult>> futures;
  std::vector<VMPredicate> queries;
  for (int i = 0; i < 8; ++i) {
    queries.emplace_back(dsid_, Rect::ofSize((i % 2) * 256, (i % 4) * 128,
                                             256, 256),
                         2, VMOp::Subsample);
    futures.push_back(server->submit(queries.back().clone(), i));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expectCorrect(queries[i], futures[i].get());
    EXPECT_GT(futures.size(), 0u);
  }
  // With real latency, duplicate-request merging has a chance to show up.
  const auto ps = server->pageSpace().stats();
  EXPECT_GT(ps.hits + ps.merged, 0u);
  server->shutdown();
}

TEST_F(QueryServerTest, SubmitAfterShutdownFails) {
  auto server = makeServer(config());
  server->shutdown();
  auto f = server->submit(pred(Rect::ofSize(0, 0, 64, 64), 1), 0);
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(QueryServerTest, RecordsCaptureTiming) {
  auto server = makeServer(config(1));
  const VMPredicate q(dsid_, Rect::ofSize(0, 0, 512, 512), 2, VMOp::Average);
  const auto r = server->execute(q.clone(), 5);
  EXPECT_EQ(r.record.client, 5);
  EXPECT_GE(r.record.startTime, r.record.arrivalTime);
  EXPECT_GT(r.record.finishTime, r.record.startTime);
  EXPECT_GT(r.record.execTime(), 0.0);
  EXPECT_EQ(r.record.inputBytes, sem_.qinputsize(q));
}

/// Failure injection: an executor that throws for exactly the poisoned
/// query regions. Matching the whole region (not just an origin) matters:
/// a dependent that falls back recomputes its covered part from raw data,
/// and that part may share an edge with the poisoned region without being
/// it — failing it would make the dependent inherit the owner's failure.
class FailingExecutor final : public query::QueryExecutor {
 public:
  /// `beforeFailure`, if set, runs before each injected throw (a test uses
  /// it to hold the poisoned query until a dependent has joined its scan).
  FailingExecutor(const vm::VMExecutor* inner, std::vector<Rect> poisoned,
                  std::function<void()> beforeFailure = {})
      : inner_(inner),
        poisoned_(std::move(poisoned)),
        beforeFailure_(std::move(beforeFailure)) {}

  [[nodiscard]] std::vector<std::byte> execute(
      const query::Predicate& pred,
      pagespace::PageSpaceManager& ps) const override {
    if (std::ranges::find(poisoned_, vm::asVM(pred).region()) !=
        poisoned_.end()) {
      if (beforeFailure_) beforeFailure_();
      throw std::runtime_error("injected executor failure");
    }
    return inner_->execute(pred, ps);
  }
  void project(const query::Predicate& cached,
               std::span<const std::byte> payload,
               const query::Predicate& out,
               std::span<std::byte> buffer) const override {
    inner_->project(cached, payload, out, buffer);
  }

 private:
  const vm::VMExecutor* inner_;
  std::vector<Rect> poisoned_;
  std::function<void()> beforeFailure_;
};

/// Poll `done` every millisecond for up to two seconds; true once it holds.
/// Bounded so a broken interleaving fails the test's assertions instead of
/// hanging it.
template <typename Pred>
bool awaitBounded(Pred done) {
  for (int i = 0; i < 2000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

constexpr std::int64_t kPoisonX = 736;

TEST_F(QueryServerTest, ExecutorFailureDeliveredViaFuture) {
  const Rect poisoned = Rect::ofSize(kPoisonX, 0, 128, 128);
  FailingExecutor failing(&exec_, {poisoned});
  server::QueryServer server(&sem_, &failing, config(2));
  server.attach(dsid_, &slide_);

  auto bad = server.submit(pred(poisoned, 2), 0);
  EXPECT_THROW((void)bad.get(), std::runtime_error);

  // The server keeps working and the graph is consistent.
  const VMPredicate ok(dsid_, Rect::ofSize(0, 0, 256, 256), 2,
                       VMOp::Subsample);
  expectCorrect(ok, server.execute(ok.clone(), 0));
  EXPECT_EQ(server.scheduler().waitingCount(), 0u);
  EXPECT_EQ(server.scheduler().executingCount(), 0u);
}

TEST_F(QueryServerTest, FailureDoesNotPoisonDependents) {
  // `dependent` overlaps `poison` by [736,864)x[0,256). The test forces the
  // interleaving in which the dependent joins the poisoned query's shared
  // scan and the owner then fails:
  //   1. `poison` starts and registers its scan; its executor call holds
  //      until a subscriber has joined (foldHits >= 1);
  //   2. `dependent`, submitted only once that scan is active, plans a
  //      FoldIntoScan step for the overlap and blocks on the scan;
  //   3. `poison` throws, the scan fails, and the dependent recomputes its
  //      covered part [736,864)x[0,256) from raw data (DESIGN.md §14).
  // That part is not the poisoned region, so the dependent must succeed
  // with byte-exact output and no reused bytes.
  const Rect poisonRegion = Rect::ofSize(kPoisonX, 0, 256, 256);
  server::QueryServer* running = nullptr;  // set before the first submit
  FailingExecutor failing(&exec_, {poisonRegion}, [&running] {
    (void)awaitBounded([&running] {
      return running->pageSpace().scanRegistry().stats().foldHits >= 1;
    });
  });
  server::QueryServer server(&sem_, &failing, config(2));
  server.attach(dsid_, &slide_);
  running = &server;

  const VMPredicate poison(dsid_, poisonRegion, 2, VMOp::Subsample);
  const VMPredicate dependent(
      dsid_, Rect::ofSize(kPoisonX - 128, 0, 256, 256), 2, VMOp::Subsample);
  auto f1 = server.submit(poison.clone(), 0);
  ASSERT_TRUE(awaitBounded([&server] {
    return server.pageSpace().scanRegistry().activeScans() > 0;
  }));
  auto f2 = server.submit(dependent.clone(), 1);
  EXPECT_THROW((void)f1.get(), std::runtime_error);
  const QueryResult result = f2.get();
  expectCorrect(dependent, result);
  // It took the wait-then-fall-back path: it waited on the executing
  // owner, and nothing it delivered came from the failed scan.
  EXPECT_TRUE(result.record.reusedExecuting) << result.record.planShape;
  EXPECT_EQ(result.record.bytesReused, 0u) << result.record.planShape;
  // The record says the fold fell back: lower-case 'f', no executed 'F'.
  EXPECT_NE(result.record.planShape.find('f'), std::string::npos)
      << result.record.planShape;
  EXPECT_EQ(result.record.planShape.find('F'), std::string::npos)
      << result.record.planShape;
}

TEST_F(QueryServerTest, PyramidPrewarmServesAlignedQueriesFromCache) {
  auto cfg = config(2, "CF");
  cfg.dsBytes = 64ULL << 20;
  cfg.maxNestedReuseDepth = 8;
  auto server = makeServer(cfg);

  // Materialize the zoom-2 level as 128^2-output tiles (4x4 over 1024^2).
  for (const auto& tile : sem_.pyramidLevel(dsid_, 2, 128, VMOp::Average)) {
    (void)server->execute(tile.clone(), -1);
  }

  // Aligned queries at zoom 4 and 8 must be pure projections — and exact.
  for (const std::uint32_t zoom : {4u, 8u}) {
    const VMPredicate q(dsid_,
                        Rect::ofSize(128, 256, 64 * zoom, 64 * zoom), zoom,
                        VMOp::Average);
    const auto result = server->execute(q.clone(), 0);
    expectCorrect(q, result);
    EXPECT_EQ(result.record.bytesFromDisk, 0u) << q.describe();
    EXPECT_GT(result.record.overlapUsed, 0.0);
  }
}

TEST_F(QueryServerTest, StressManySmallQueriesWithEvictions) {
  auto cfg = config(/*threads=*/4, "CNBF");
  cfg.dsBytes = 200 * 1024;  // force continuous eviction churn
  auto server = makeServer(cfg);
  std::vector<std::future<QueryResult>> futures;
  std::vector<VMPredicate> queries;
  for (int i = 0; i < 60; ++i) {
    const std::int64_t x = (i * 64) % 768;
    const std::int64_t y = ((i / 7) * 96) % 768;
    queries.emplace_back(dsid_, Rect::ofSize(x, y, 128, 128), 2,
                         VMOp::Subsample);
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    futures.push_back(server->submit(queries[i].clone(), static_cast<int>(i)));
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expectCorrect(queries[i], futures[i].get());
  }
  EXPECT_GT(server->dataStore().stats().evictions, 0u);
}

TEST_F(QueryServerTest, CompletionRunsOnceForEveryFateWithNoLockHeld) {
  using Status = QueryOutcome::Status;
  constexpr std::size_t kTags = 10;
  std::array<std::atomic<int>, kTags> calls{};
  std::array<Status, kTags> status{};
  std::array<RejectReason, kTags> reason{};
  std::atomic<std::size_t> maxHeld{0};
  std::mutex seenMu;
  std::vector<std::jthread> probes;  // guarded by seenMu
  std::atomic<int> probesSettled{0};
  std::atomic<int> probesBlocked{0};
  // Each completion records its outcome and how many ranked locks its
  // thread holds (the debug lock-rank checker counts them; 0 expected),
  // then runs `then`, which may submit again.
  const auto completion = [&](std::size_t tag,
                              std::function<void()> then = {}) {
    return [&, tag, then](QueryOutcome outcome) {
      const std::size_t held = lockorder::heldCount();
      std::size_t prev = maxHeld.load();
      while (held > prev && !maxHeld.compare_exchange_weak(prev, held)) {
      }
      {
        std::lock_guard lock(seenMu);
        status[tag] = outcome.status;
        reason[tag] = outcome.rejectReason;
      }
      if (then) then();
      ++calls[tag];
    };
  };
  const auto ok = [this](std::int64_t x) {
    return pred(Rect::ofSize(x, 512, 64, 64), 1);
  };
  // Submits again from inside a completion. First another thread submits,
  // with a bounded wait: it cannot get through while the settling thread
  // holds a server lock, in any build type. Only then does this thread
  // re-enter submit, where a held lock would deadlock (or trip the debug
  // lock-rank checker).
  const auto resubmit = [&](QueryServer& server, std::size_t tag,
                            std::int64_t x) {
    auto returned = std::make_shared<std::promise<void>>();
    std::future<void> probeReturned = returned->get_future();
    {
      std::lock_guard lock(seenMu);
      probes.emplace_back([&ok, &probesSettled, srv = &server, returned, x] {
        srv->submit(ok(x), -1,
                    [&probesSettled](QueryOutcome) { ++probesSettled; });
        returned->set_value();
      });
    }
    if (probeReturned.wait_for(std::chrono::seconds(2)) !=
        std::future_status::ready) {
      ++probesBlocked;
      return;
    }
    server.submit(ok(x), -1, completion(tag));
  };

  // One worker, held inside a failing query until released, so the queue
  // and quota states below are exact.
  const Rect poisoned = Rect::ofSize(kPoisonX, 0, 128, 128);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  FailingExecutor failing(&exec_, {poisoned}, [&] {
    entered = true;
    (void)awaitBounded([&] { return release.load(); });
  });
  auto cfg = config(1);
  cfg.admissionQueueLimit = 2;
  cfg.maxQueuedPerClient = 1;
  QueryServer server(&sem_, &failing, cfg);
  server.attach(dsid_, &slide_);

  // Failed; settles on the worker while q1 and q3 fill the queue, so its
  // resubmission is refused (QueueFull) from the worker thread.
  server.submit(pred(poisoned, 2), 0,
                completion(0, [&] { resubmit(server, 9, 448); }));
  ASSERT_TRUE(awaitBounded([&] { return entered.load(); }));
  server.submit(ok(0), 1, completion(1));   // queued, 1 of 2
  server.submit(ok(64), 1, completion(2));  // client 1 over quota
  // Completes on the worker into an empty queue: its resubmission is
  // admitted and runs.
  server.submit(ok(128), 2,
                completion(3, [&] { resubmit(server, 7, 192); }));
  // Queue full; the inline completion's resubmission is refused again,
  // inline, on this thread.
  server.submit(ok(256), 3,
                completion(4, [&] { resubmit(server, 6, 320); }));
  EXPECT_EQ(calls[2].load(), 1);  // inline refusals settle before return
  EXPECT_EQ(calls[4].load(), 1);
  EXPECT_EQ(calls[6].load(), 1);
  release = true;
  ASSERT_TRUE(awaitBounded([&] { return calls[7].load() == 1; }));
  {
    std::lock_guard lock(seenMu);
    probes.clear();  // join
  }
  server.shutdown();
  server.submit(ok(384), 0, completion(8));  // after shutdown

  auto shedCfg = config(1);
  shedCfg.queryDeadlineSec = 1e-9;  // every dispatch is past its deadline
  shedCfg.shedDeadlineMisses = true;
  {
    QueryServer shedding(&sem_, &exec_, shedCfg);
    shedding.attach(dsid_, &slide_);
    shedding.submit(ok(0), 0, completion(5));
  }  // the destructor drains the queue

  const std::array<Status, kTags> want = {
      Status::Failed,   Status::Completed, Status::Rejected, Status::Completed,
      Status::Rejected, Status::Shed,      Status::Rejected, Status::Completed,
      Status::Error,    Status::Rejected};
  for (std::size_t tag = 0; tag < kTags; ++tag) {
    EXPECT_EQ(calls[tag].load(), 1) << "tag " << tag;
    EXPECT_EQ(status[tag], want[tag]) << "tag " << tag;
  }
  EXPECT_EQ(reason[2], RejectReason::ClientQuota);
  EXPECT_EQ(reason[4], RejectReason::QueueFull);
  EXPECT_EQ(reason[6], RejectReason::QueueFull);
  EXPECT_EQ(reason[9], RejectReason::QueueFull);
  EXPECT_EQ(maxHeld.load(), 0u);
  EXPECT_EQ(probesBlocked.load(), 0) << "a completion ran under a server lock";
  EXPECT_EQ(probesSettled.load(), 3);
}

}  // namespace
}  // namespace mqs::server
