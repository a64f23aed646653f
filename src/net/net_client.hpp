// Blocking TCP client for the query server: the role the paper's emulated
// clients play from their PC cluster. Supports both interactive use
// (execute = send + receive) and pipelined batches (send everything, then
// drain the responses). The server answers a pipelined batch in the order
// its queries finish, not the order they were sent, so callers match each
// response to its request by `requestId`.
//
// Timeouts: a server that accepts the connection and then stalls (wedged
// worker pool, dead peer behind a live socket) must not hang the client
// forever. `connectTimeoutSec` bounds the TCP handshake and
// `ioTimeoutSec` bounds each blocking send/receive; expiry throws
// TimeoutError (distinct from disconnect, so callers can retry or count
// it). Both default to 0 = block indefinitely, the historical behaviour.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/codecs.hpp"

namespace mqs::net {

/// A blocking client operation exceeded its configured timeout. The
/// connection is in an indeterminate state (a late frame may still be in
/// flight); close it rather than resynchronize.
class TimeoutError : public std::runtime_error {
 public:
  explicit TimeoutError(const std::string& what) : std::runtime_error(what) {}
};

struct NetClientConfig {
  double connectTimeoutSec = 0.0;  ///< TCP connect bound (0 = none)
  double ioTimeoutSec = 0.0;       ///< per-send/per-receive bound (0 = none)
};

class NetClient {
 public:
  NetClient(const std::string& host, std::uint16_t port,
            const CodecRegistry* codecs, NetClientConfig cfg = {});
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Send a query frame; returns its request id.
  std::uint64_t send(const query::Predicate& pred);

  /// The id the next send() will use. Lets a sender thread register the
  /// request with its receiver thread *before* the frame is on the wire —
  /// otherwise a fast response can race the registration.
  [[nodiscard]] std::uint64_t nextRequestId() const { return nextId_; }

  struct Response {
    std::uint64_t requestId = 0;
    std::vector<std::byte> bytes;
  };
  /// Block for the next response — whichever request settled first on the
  /// server, identified by `requestId`. Throws server::QueryFailure for Failed
  /// frames, server::QueryRejected for Rejected frames (overload),
  /// std::runtime_error carrying the server's message for Error frames or
  /// on disconnect, TimeoutError past ioTimeoutSec.
  Response receive();

  /// Terminal fate of one request, as a value instead of an exception —
  /// the load generator classifies thousands of these per second and
  /// throwing would dominate the measurement.
  struct Outcome {
    enum class Status : std::uint8_t { Result, Failed, Rejected, Error };
    std::uint64_t requestId = 0;
    Status status = Status::Result;
    /// server::RejectReason discriminator (Rejected outcomes only).
    std::uint8_t rejectReason = 0;
    std::vector<std::byte> bytes;  ///< Result payload
    std::string message;           ///< Failed/Rejected/Error message
  };
  /// Block for the next response and classify it. Still throws
  /// TimeoutError / std::runtime_error for transport-level problems
  /// (timeout, disconnect) — those have no request to attribute to.
  Outcome receiveAny();

  /// Interactive convenience: send + receive. Requires that no pipelined
  /// request is outstanding on this connection: the next response must be
  /// this request's (checked).
  std::vector<std::byte> execute(const query::Predicate& pred);

  void close();

 private:
  int fd_ = -1;
  std::uint64_t nextId_ = 1;
  const CodecRegistry* codecs_;
  NetClientConfig cfg_;
};

}  // namespace mqs::net
