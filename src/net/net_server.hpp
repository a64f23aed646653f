// TCP front-end for the query server.
//
// One listener thread accepts connections; each connection gets a reader
// thread (decode Query frames, submit to the QueryServer with a completion
// that queues the outcome on the connection) and a writer thread (emit one
// Result/Failed/Rejected/Error frame per outcome, in the order the queries
// settle). Pipelining therefore works: a client may pour a whole batch down
// the socket and read results back as they complete, matched by request
// id — the paper's batch scenario over a real transport, where a query
// the scheduler runs early is also answered early.
//
// The accept loop reaps connections whose reader and writer have both
// finished, so a long-running server holds threads and fds only for live
// connections.
//
// Each accepted connection is assigned a distinct client id (its accept
// ordinal) and every query it submits carries that id, so the server's
// per-client fairness quotas (DESIGN.md §11) apply at the wire level and
// per-client metrics stay attributable. Overload outcomes —
// QueryRejected at admission, QueryShed at dispatch — travel back as
// Rejected frames carrying the RejectReason discriminator.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "net/codecs.hpp"
#include "server/query_server.hpp"

namespace mqs::net {

class NetServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts accepting.
  NetServer(server::QueryServer& queryServer, const CodecRegistry* codecs,
            std::uint16_t port = 0);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (useful with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Stop accepting, close all connections, join all threads.
  void stop();

  [[nodiscard]] std::uint64_t connectionsAccepted() const {
    return accepted_.load();
  }

  /// Reaps the connections whose reader and writer have finished, then
  /// returns how many remain (each holds an fd and two threads).
  std::size_t openConnections() EXCLUDES(mu_);

 private:
  struct Connection;

  void acceptLoop() EXCLUDES(mu_);
  void serveConnection(int fd, int client) EXCLUDES(mu_);
  /// Takes finished connections out of connections_ and joins them.
  void reapFinished() EXCLUDES(mu_);
  /// Joins each connection's threads, then drops the references.
  static void join(std::vector<std::shared_ptr<Connection>>& conns);

  server::QueryServer& queryServer_;
  const CodecRegistry* codecs_;  ///< immutable after construction
  std::atomic<int> listenFd_{-1};
  /// Set once before the acceptor thread launches (start() binds, reads
  /// the port back, then spawns the acceptor).
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  /// Outermost rank: the front-end may never be entered while a deeper
  /// subsystem lock is held (connection bookkeeping itself nests nothing).
  Mutex mu_{lockorder::Rank::kNetServer, "NetServer::mu_"};
  std::vector<std::shared_ptr<Connection>> connections_ GUARDED_BY(mu_);
  std::jthread acceptor_;
};

}  // namespace mqs::net
