// Wire protocol, predicate codecs, and the TCP client/server front-end
// (loopback integration with real queries).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "storage/synthetic_source.hpp"
#include "vm/image.hpp"
#include "vm/vm_executor.hpp"
#include "vol/vol_predicate.hpp"

namespace mqs::net {
namespace {

TEST(Wire, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.str("hello");
  const std::vector<std::byte> payload = {std::byte{1}, std::byte{2}};
  w.blob(payload);

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.blob(), payload);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, ReaderUnderrunThrows) {
  Writer w;
  w.u16(7);
  Reader r(w.bytes());
  (void)r.u8();
  EXPECT_THROW((void)r.u32(), CheckFailure);
}

TEST(Wire, FrameHeaderLayout) {
  const std::vector<std::byte> payload = {std::byte{9}};
  const auto frame = packFrame(FrameType::Result, payload);
  ASSERT_EQ(frame.size(), 5u + 1u);
  Reader r(frame);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(FrameType::Result));
}

TEST(Codecs, VmPredicateRoundTrip) {
  const auto reg = CodecRegistry::standard();
  const vm::VMPredicate p(3, Rect::ofSize(128, 256, 512, 1024), 4,
                          vm::VMOp::Average);
  Writer w;
  reg.encode(p, w);
  Reader r(w.bytes());
  const auto decoded = reg.decode(r);
  EXPECT_TRUE(vm::asVM(*decoded) == p);
}

TEST(Codecs, VolPredicateRoundTrip) {
  const auto reg = CodecRegistry::standard();
  const vol::VolPredicate p(1, Box3::ofSize(8, 16, 24, 64, 64, 32), 4,
                            vol::VolOp::Subvolume);
  Writer w;
  reg.encode(p, w);
  Reader r(w.bytes());
  const auto decoded = reg.decode(r);
  EXPECT_TRUE(vol::asVol(*decoded) == p);
}

TEST(Codecs, FuzzedBytesNeverCrashTheDecoder) {
  const auto reg = CodecRegistry::standard();
  Rng rng(0xF022);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> junk(
        static_cast<std::size_t>(rng.uniformInt(0, 64)));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.uniformInt(0, 255));
    }
    Reader r(junk);
    try {
      const auto decoded = reg.decode(r);
      // If it decoded, it must be a structurally valid predicate.
      ASSERT_NE(decoded, nullptr);
      (void)decoded->describe();
    } catch (const CheckFailure&) {
      // Expected for malformed input: rejected, not crashed.
    }
  }
}

TEST(Codecs, UnknownKindRejected) {
  CodecRegistry reg;  // empty
  const vm::VMPredicate p(0, Rect::ofSize(0, 0, 64, 64), 1,
                          vm::VMOp::Subsample);
  Writer w;
  EXPECT_THROW(reg.encode(p, w), CheckFailure);
}

// ---------------------------------------------------------------- loopback

class NetLoopbackTest : public ::testing::Test {
 protected:
  NetLoopbackTest()
      : layout_(1024, 1024, 96),
        slide_(layout_, kSeed),
        exec_(&sem_),
        codecs_(CodecRegistry::standard()) {
    dsid_ = sem_.addDataset(layout_);
    server::ServerConfig cfg;
    cfg.threads = 3;
    cfg.policy = "CF";
    queryServer_ = std::make_unique<server::QueryServer>(&sem_, &exec_, cfg);
    queryServer_->attach(dsid_, &slide_);
    netServer_ = std::make_unique<NetServer>(*queryServer_, &codecs_);
  }

  static constexpr std::uint64_t kSeed = 2002;

  void expectCorrect(const vm::VMPredicate& q,
                     std::span<const std::byte> bytes) {
    const auto got =
        vm::ImageRGB::fromBytes(bytes, q.outWidth(), q.outHeight());
    EXPECT_LE(maxAbsDiff(got, renderReference(q, kSeed)),
              q.op() == vm::VMOp::Average ? 2 : 0);
  }

  index::ChunkLayout layout_;
  storage::SyntheticSlideSource slide_;
  vm::VMSemantics sem_;
  vm::VMExecutor exec_;
  CodecRegistry codecs_;
  storage::DatasetId dsid_ = 0;
  std::unique_ptr<server::QueryServer> queryServer_;
  std::unique_ptr<NetServer> netServer_;
};

TEST_F(NetLoopbackTest, SingleQueryOverTcp) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  const vm::VMPredicate q(dsid_, Rect::ofSize(0, 0, 256, 256), 4,
                          vm::VMOp::Subsample);
  const auto bytes = client.execute(q);
  ASSERT_EQ(bytes.size(), q.outBytes());
  expectCorrect(q, bytes);
  EXPECT_EQ(netServer_->connectionsAccepted(), 1u);
}

TEST_F(NetLoopbackTest, PipelinedBatchAnswersEveryRequestOnce) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  // Responses come back in the order the queries settle, so each one is
  // matched to its query by request id.
  std::map<std::uint64_t, vm::VMPredicate> byId;
  for (int i = 0; i < 10; ++i) {
    const vm::VMPredicate q(
        dsid_, Rect::ofSize((i % 3) * 128, (i % 2) * 128, 128, 128), 2,
        vm::VMOp::Average);
    byId.emplace(client.send(q), q);
  }
  std::set<std::uint64_t> answered;
  for (std::size_t i = 0; i < byId.size(); ++i) {
    const auto resp = client.receive();
    const auto it = byId.find(resp.requestId);
    ASSERT_NE(it, byId.end()) << "unknown request id " << resp.requestId;
    EXPECT_TRUE(answered.insert(resp.requestId).second)
        << "request " << resp.requestId << " answered twice";
    expectCorrect(it->second, resp.bytes);
  }
  EXPECT_EQ(answered.size(), byId.size());
}

/// A one-shot flag with a bounded wait, so a broken interleaving fails the
/// test instead of hanging it.
class Flag {
 public:
  void set() {
    {
      std::lock_guard lock(mu_);
      set_ = true;
    }
    cv_.notify_all();
  }
  bool waitFor(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return set_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool set_ = false;
};

/// Holds execution of one region until `release` is set (bounded), after
/// raising `entered`; every other query runs straight through.
class GatedExecutor final : public query::QueryExecutor {
 public:
  GatedExecutor(const vm::VMExecutor* inner, Rect held)
      : inner_(inner), held_(held) {}

  [[nodiscard]] std::vector<std::byte> execute(
      const query::Predicate& pred,
      pagespace::PageSpaceManager& ps) const override {
    if (vm::asVM(pred).region() == held_) {
      entered.set();
      (void)release.waitFor(std::chrono::seconds(10));
    }
    return inner_->execute(pred, ps);
  }
  void project(const query::Predicate& cached,
               std::span<const std::byte> payload,
               const query::Predicate& out,
               std::span<std::byte> buffer) const override {
    inner_->project(cached, payload, out, buffer);
  }

  mutable Flag entered;
  mutable Flag release;

 private:
  const vm::VMExecutor* inner_;
  Rect held_;
};

TEST_F(NetLoopbackTest, FastQueryOvertakesSlowOne) {
  const Rect slowRegion = Rect::ofSize(0, 0, 256, 256);
  GatedExecutor gated(&exec_, slowRegion);
  server::ServerConfig cfg;
  cfg.threads = 2;
  cfg.policy = "CF";
  server::QueryServer qs(&sem_, &gated, cfg);
  qs.attach(dsid_, &slide_);
  NetServer net(qs, &codecs_);
  NetClient client("127.0.0.1", net.port(), &codecs_,
                   NetClientConfig{.connectTimeoutSec = 5.0,
                                   .ioTimeoutSec = 5.0});

  const vm::VMPredicate slow(dsid_, slowRegion, 2, vm::VMOp::Subsample);
  const vm::VMPredicate fast(dsid_, Rect::ofSize(512, 512, 128, 128), 2,
                             vm::VMOp::Subsample);
  const std::uint64_t slowId = client.send(slow);
  ASSERT_TRUE(gated.entered.waitFor(std::chrono::seconds(5)))
      << "the slow query never started";
  const std::uint64_t fastId = client.send(fast);

  // The slow query is still held, so the first frame on the connection
  // must be the fast one's.
  NetClient::Response first;
  EXPECT_NO_THROW(first = client.receive());
  gated.release.set();
  EXPECT_EQ(first.requestId, fastId);
  if (first.requestId == fastId) expectCorrect(fast, first.bytes);
  const auto second = client.receive();
  EXPECT_EQ(second.requestId, slowId);
  expectCorrect(slow, second.bytes);
}

TEST_F(NetLoopbackTest, QuerySettlingAfterStopIsDropped) {
  const Rect slowRegion = Rect::ofSize(0, 0, 256, 256);
  GatedExecutor gated(&exec_, slowRegion);
  server::ServerConfig cfg;
  cfg.threads = 1;
  server::QueryServer qs(&sem_, &gated, cfg);
  qs.attach(dsid_, &slide_);
  auto net = std::make_unique<NetServer>(qs, &codecs_);
  NetClient client("127.0.0.1", net->port(), &codecs_);
  (void)client.send(vm::VMPredicate(dsid_, slowRegion, 2,
                                    vm::VMOp::Subsample));
  ASSERT_TRUE(gated.entered.waitFor(std::chrono::seconds(5)));
  // Stop and destroy the front-end while the query is still running; its
  // completion then settles into a connection only it still holds. stop()
  // does not wait for the query.
  net->stop();
  net.reset();
  EXPECT_EQ(qs.collector().count(), 0u);
  gated.release.set();
  qs.shutdown();
  EXPECT_EQ(qs.collector().count(), 1u);
}

TEST_F(NetLoopbackTest, ClosedConnectionsAreReaped) {
  constexpr int kConnections = 50;
  const vm::VMPredicate q(dsid_, Rect::ofSize(0, 0, 128, 128), 2,
                          vm::VMOp::Subsample);
  for (int i = 0; i < kConnections; ++i) {
    NetClient client("127.0.0.1", netServer_->port(), &codecs_);
    if (i % 10 == 0) expectCorrect(q, client.execute(q));
  }
  // The kernel completes a handshake before the server accepts it, so wait
  // for every connection to have been accepted before counting.
  for (int i = 0; i < 2000 && netServer_->connectionsAccepted() <
                                  static_cast<std::uint64_t>(kConnections);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(netServer_->connectionsAccepted(),
            static_cast<std::uint64_t>(kConnections));
  const auto awaitOpen = [this](std::size_t want) {
    for (int i = 0; i < 2000 && netServer_->openConnections() != want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return netServer_->openConnections();
  };
  EXPECT_EQ(awaitOpen(0), 0u);

  // A live connection is counted until its client goes away.
  {
    NetClient client("127.0.0.1", netServer_->port(), &codecs_);
    expectCorrect(q, client.execute(q));
    EXPECT_EQ(netServer_->openConnections(), 1u);
  }
  EXPECT_EQ(awaitOpen(0), 0u);
}

TEST_F(NetLoopbackTest, ManyConcurrentClients) {
  constexpr int kClients = 6;
  std::vector<std::jthread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        NetClient client("127.0.0.1", netServer_->port(), &codecs_);
        for (int i = 0; i < 4; ++i) {
          const vm::VMPredicate q(dsid_,
                                  Rect::ofSize(((c + i) % 4) * 128, 0, 256,
                                               256),
                                  2, vm::VMOp::Subsample);
          const auto bytes = client.execute(q);
          const auto got = vm::ImageRGB::fromBytes(bytes, q.outWidth(),
                                                   q.outHeight());
          if (maxAbsDiff(got, renderReference(q, kSeed)) != 0) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  clients.clear();  // join
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(netServer_->connectionsAccepted(),
            static_cast<std::uint64_t>(kClients));
}

TEST_F(NetLoopbackTest, RemoteErrorsArriveAsExceptions) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  // Region outside the dataset extent: the executor throws server-side.
  const vm::VMPredicate bad(dsid_, Rect::ofSize(4096, 4096, 256, 256), 4,
                            vm::VMOp::Subsample);
  EXPECT_THROW((void)client.execute(bad), std::runtime_error);
  // The connection stays usable afterwards.
  const vm::VMPredicate ok(dsid_, Rect::ofSize(0, 0, 128, 128), 2,
                           vm::VMOp::Subsample);
  expectCorrect(ok, client.execute(ok));
}

TEST_F(NetLoopbackTest, MalformedQueryFrameGetsErrorNotCrash) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  // Hand-craft a Query frame whose predicate body is garbage.
  Writer w;
  w.u64(77);              // request id
  w.str("vm");            // valid kind...
  w.u32(0);               // ...then a truncated predicate body
  // (Use a second raw client socket so the helper API stays clean.)
  const vm::VMPredicate ok(dsid_, Rect::ofSize(0, 0, 128, 128), 2,
                           vm::VMOp::Subsample);
  (void)client.execute(ok);  // connection warmed up

  // Send the malformed frame directly, then a valid query behind it.
  // The server must answer the bad one with an Error frame and keep going.
  NetClient raw("127.0.0.1", netServer_->port(), &codecs_);
  {
    // Reach the socket through the public API: send() encodes correctly,
    // so emit the broken frame via a throwaway derived use of wire only.
    // NetClient has no raw-write hook; open a plain socket instead.
    struct RawSock {
      int fd;
      explicit RawSock(std::uint16_t port) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof addr),
                  0);
      }
      ~RawSock() { ::close(fd); }
    } sock(netServer_->port());
    ASSERT_TRUE(writeAll(sock.fd, packFrame(FrameType::Query, w.bytes())));
    Frame resp;
    ASSERT_TRUE(readFrame(sock.fd, resp));
    EXPECT_EQ(resp.type, FrameType::Error);
    Reader r(resp.payload);
    EXPECT_EQ(r.u64(), 77u);
  }
  // Server still healthy for other connections.
  expectCorrect(ok, client.execute(ok));
}

TEST_F(NetLoopbackTest, ServerStopUnblocksClients) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  const vm::VMPredicate q(dsid_, Rect::ofSize(0, 0, 128, 128), 2,
                          vm::VMOp::Subsample);
  (void)client.execute(q);  // connection established and working
  netServer_->stop();
  EXPECT_THROW(
      {
        // Either the send or the receive must fail promptly.
        (void)client.send(q);
        (void)client.receive();
        (void)client.receive();
      },
      std::runtime_error);
}

}  // namespace
}  // namespace mqs::net
