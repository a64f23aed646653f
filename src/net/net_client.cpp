#include "net/net_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "server/query_server.hpp"

namespace mqs::net {

namespace {

timeval toTimeval(double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  return tv;
}

/// connect() bounded by `timeoutSec`: flip the socket non-blocking for the
/// handshake, poll for writability, read back SO_ERROR. The socket is
/// returned to blocking mode afterwards (per-op timeouts then come from
/// SO_RCVTIMEO/SO_SNDTIMEO).
void connectWithTimeout(int fd, const sockaddr* addr, socklen_t len,
                        double timeoutSec) {
  if (timeoutSec <= 0.0) {
    MQS_CHECK_MSG(::connect(fd, addr, len) == 0,
                  "cannot connect to query server");
    return;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MQS_CHECK(flags >= 0);
  MQS_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
  const int rc = ::connect(fd, addr, len);
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      throw std::runtime_error("cannot connect to query server");
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int timeoutMs = static_cast<int>(timeoutSec * 1e3);
    const int ready = ::poll(&pfd, 1, timeoutMs > 0 ? timeoutMs : 1);
    if (ready == 0) {
      throw TimeoutError("connect timed out after " +
                         std::to_string(timeoutSec) + "s");
    }
    MQS_CHECK_MSG(ready > 0, "poll failed during connect");
    int soError = 0;
    socklen_t soLen = sizeof soError;
    MQS_CHECK(::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &soLen) == 0);
    if (soError != 0) {
      throw std::runtime_error("cannot connect to query server");
    }
  }
  MQS_CHECK(::fcntl(fd, F_SETFL, flags) == 0);
}

}  // namespace

NetClient::NetClient(const std::string& host, std::uint16_t port,
                     const CodecRegistry* codecs, NetClientConfig cfg)
    : codecs_(codecs), cfg_(cfg) {
  MQS_CHECK(codecs_ != nullptr);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MQS_CHECK_MSG(fd_ >= 0, "cannot create client socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  MQS_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                "bad host address: " + host);
  try {
    connectWithTimeout(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr,
                       cfg_.connectTimeoutSec);
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  if (cfg_.ioTimeoutSec > 0.0) {
    const timeval tv = toTimeval(cfg_.ioTimeoutSec);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
}

NetClient::~NetClient() { close(); }

void NetClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t NetClient::send(const query::Predicate& pred) {
  const std::uint64_t id = nextId_++;
  Writer w;
  w.u64(id);
  codecs_->encode(pred, w);
  if (!writeAll(fd_, packFrame(FrameType::Query, w.bytes()))) {
    // writeAll preserves errno from the failing send(): EAGAIN means the
    // SO_SNDTIMEO expired (peer stopped draining), not a lost connection.
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw TimeoutError("send timed out after " +
                         std::to_string(cfg_.ioTimeoutSec) + "s");
    }
    throw std::runtime_error("query server connection lost on send");
  }
  return id;
}

NetClient::Outcome NetClient::receiveAny() {
  Frame frame;
  if (!readFrame(fd_, frame)) {
    // readFrame preserves errno from the failing recv(): EAGAIN means the
    // SO_RCVTIMEO expired with the server silent, not a closed socket.
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw TimeoutError("receive timed out after " +
                         std::to_string(cfg_.ioTimeoutSec) + "s");
    }
    throw std::runtime_error("query server connection lost on receive");
  }
  Reader r(frame.payload);
  Outcome out;
  out.requestId = r.u64();
  switch (frame.type) {
    case FrameType::Result:
      out.status = Outcome::Status::Result;
      out.bytes = r.blob();
      return out;
    case FrameType::Failed:
      out.status = Outcome::Status::Failed;
      out.message = r.str();
      return out;
    case FrameType::Rejected:
      out.status = Outcome::Status::Rejected;
      out.rejectReason = r.u8();
      out.message = r.str();
      return out;
    case FrameType::Error:
      out.status = Outcome::Status::Error;
      out.message = r.str();
      return out;
    default:
      throw std::runtime_error("unexpected frame type from query server");
  }
}

NetClient::Response NetClient::receive() {
  Outcome out = receiveAny();
  switch (out.status) {
    case Outcome::Status::Result:
      return Response{out.requestId, std::move(out.bytes)};
    case Outcome::Status::Failed:
      // The server accepted the query but it reached the terminal FAILED
      // status (device fault, deadline); rethrow as the same type local
      // callers of QueryServer::execute would see.
      throw server::QueryFailure(out.message);
    case Outcome::Status::Rejected:
      throw server::QueryRejected(
          static_cast<server::RejectReason>(out.rejectReason), out.message);
    case Outcome::Status::Error:
      throw std::runtime_error("remote query failed: " + out.message);
  }
  throw std::runtime_error("unexpected frame type from query server");
}

std::vector<std::byte> NetClient::execute(const query::Predicate& pred) {
  const std::uint64_t id = send(pred);
  Response resp = receive();
  MQS_CHECK_MSG(resp.requestId == id,
                "execute() with a pipelined request outstanding");
  return std::move(resp.bytes);
}

}  // namespace mqs::net
