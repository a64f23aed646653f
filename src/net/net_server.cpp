#include "net/net_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <utility>

#include "common/blocking_queue.hpp"
#include "common/check.hpp"
#include "common/logging.hpp"

namespace mqs::net {

struct NetServer::Connection
    : std::enable_shared_from_this<NetServer::Connection> {
  int fd = -1;
  /// Accept ordinal; every query submitted on this connection carries it
  /// so per-client fairness quotas apply at the wire level.
  int client = -1;
  /// (requestId, outcome) pairs in the order their queries settled: pushed
  /// by whichever thread settles a query, popped by the writer.
  BlockingQueue<std::pair<std::uint64_t, server::QueryOutcome>> settled;
  /// Requests read but not yet answered, plus one while the reader is
  /// still reading. Whoever takes it to zero closes `settled`, so the
  /// writer exits once the reader is done and every request is answered.
  std::atomic<std::uint64_t> outstanding{1};
  /// Reader and writer threads still running; at zero the connection can
  /// be reaped (its threads joined, its fd closed).
  std::atomic<int> running{2};
  std::jthread reader;
  std::jthread writer;

  void release() {
    if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      settled.close();
    }
  }

  /// Both threads are joined before the last reference outside the query
  /// server drops, so this never joins; it may run on a query worker when
  /// a query settles after the connection was reaped or the server stopped.
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

namespace {

/// The response frame for one settled request.
std::vector<std::byte> responseFrame(std::uint64_t requestId,
                                     const server::QueryOutcome& outcome) {
  using Status = server::QueryOutcome::Status;
  Writer w;
  w.u64(requestId);
  switch (outcome.status) {
    case Status::Completed:
      w.blob(outcome.result.bytes);
      return packFrame(FrameType::Result, w.bytes());
    case Status::Rejected:
      // Turned away at admission (queue full / over quota): the overload
      // frame, so clients can back off instead of treating this as a query
      // bug.
      w.u8(static_cast<std::uint8_t>(outcome.rejectReason));
      w.str(outcome.message);
      return packFrame(FrameType::Rejected, w.bytes());
    case Status::Shed:
      // Admitted but dropped at dispatch (deadline shed); same overload
      // frame with the DeadlineShed discriminator.
      w.u8(static_cast<std::uint8_t>(server::RejectReason::DeadlineShed));
      w.str(outcome.message);
      return packFrame(FrameType::Rejected, w.bytes());
    case Status::Failed:
      // The query reached the terminal FAILED status; tell the client which
      // request died so it can distinguish this from a rejected (malformed)
      // request.
      w.str(outcome.message);
      return packFrame(FrameType::Failed, w.bytes());
    case Status::Error:
      break;
  }
  w.str(outcome.message);
  return packFrame(FrameType::Error, w.bytes());
}

}  // namespace

NetServer::NetServer(server::QueryServer& queryServer,
                     const CodecRegistry* codecs, std::uint16_t port)
    : queryServer_(queryServer), codecs_(codecs) {
  MQS_CHECK(codecs_ != nullptr);

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MQS_CHECK_MSG(listenFd_ >= 0, "cannot create listen socket");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  MQS_CHECK_MSG(::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "cannot bind query-server port");
  MQS_CHECK_MSG(::listen(listenFd_, 64) == 0, "cannot listen");

  socklen_t len = sizeof addr;
  MQS_CHECK(::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0);
  port_ = ntohs(addr.sin_port);

  acceptor_ = std::jthread([this] { acceptLoop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  if (stopping_.exchange(true)) return;
  // listenFd_ is atomic: the accept loop sees either the live fd (its
  // accept is then unblocked by the shutdown below) or -1 (EBADF, and
  // stopping_ is already set).
  const int lfd = listenFd_.exchange(-1);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  acceptor_ = {};  // join
  std::vector<std::shared_ptr<Connection>> conns;
  {
    MutexLock lock(mu_);
    conns.swap(connections_);
  }
  for (auto& c : conns) {
    ::shutdown(c->fd, SHUT_RDWR);  // unblock the reader
    // The writer sends what has settled and exits; answers to queries
    // still running are dropped when they settle.
    c->settled.close();
  }
  join(conns);
}

std::size_t NetServer::openConnections() {
  reapFinished();
  MutexLock lock(mu_);
  return connections_.size();
}

void NetServer::reapFinished() {
  std::vector<std::shared_ptr<Connection>> finished;
  {
    MutexLock lock(mu_);
    const auto done = std::ranges::partition(connections_, [](const auto& c) {
      return c->running.load(std::memory_order_acquire) > 0;
    });
    finished.assign(std::make_move_iterator(done.begin()),
                    std::make_move_iterator(done.end()));
    connections_.erase(done.begin(), done.end());
  }
  join(finished);
}

void NetServer::join(std::vector<std::shared_ptr<Connection>>& conns) {
  for (auto& c : conns) {
    c->reader.join();
    c->writer.join();
  }
  conns.clear();  // closes the fds no pending query still holds
}

void NetServer::acceptLoop() {
  for (;;) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    reapFinished();
    const auto clientId =
        static_cast<int>(accepted_.fetch_add(1, std::memory_order_relaxed));
    serveConnection(fd, clientId);
  }
}

void NetServer::serveConnection(int fd, int client) {
  auto conn = std::make_shared<Connection>();
  Connection* c = conn.get();
  c->fd = fd;
  c->client = client;

  // Each submitted query's completion holds the connection, so a query
  // that settles after a write failure or stop() pushes into a live (if
  // closed) queue. The threads hold a plain pointer: connections_ keeps
  // the connection alive until both are joined, so its last reference
  // never drops on one of its own threads.
  c->reader = std::jthread([this, c] {
    Frame frame;
    while (readFrame(c->fd, frame)) {
      if (frame.type != FrameType::Query) break;
      c->outstanding.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t id = 0;
      query::PredicatePtr pred;
      try {
        Reader r(frame.payload);
        id = r.u64();
        pred = codecs_->decode(r);
      } catch (const std::exception& e) {
        // Malformed predicate: report instead of dying.
        c->settled.push({id, server::QueryOutcome::noResult(
                                 server::QueryOutcome::Status::Error,
                                 e.what())});
        continue;
      }
      queryServer_.submit(
          std::move(pred), c->client,
          [self = c->shared_from_this(), id](server::QueryOutcome outcome) {
            self->settled.push({id, std::move(outcome)});
          });
    }
    c->release();  // the reader's own share of `outstanding`
    c->running.fetch_sub(1, std::memory_order_release);
  });

  c->writer = std::jthread([c] {
    // Frames go out in the order their queries settle, so a query the
    // scheduler finished early never waits behind an older one.
    while (auto item = c->settled.pop()) {
      if (!writeAll(c->fd, responseFrame(item->first, item->second))) {
        // The peer is gone: stop reading its requests and drop the
        // answers still to come.
        ::shutdown(c->fd, SHUT_RDWR);
        c->settled.close();
        break;
      }
      c->release();
    }
    ::shutdown(c->fd, SHUT_WR);
    c->running.fetch_sub(1, std::memory_order_release);
  });

  MutexLock lock(mu_);
  connections_.push_back(std::move(conn));
}

}  // namespace mqs::net
