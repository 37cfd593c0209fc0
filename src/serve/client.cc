#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace leva::serve {

namespace {
Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// Frames a request, refusing one the server would take for stream
// corruption (and hang up on).
Result<std::string> FrameRequest(std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "request payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame limit");
  }
  return EncodeFrame(payload);
}
}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), next_id_(other.next_id_),
      inbuf_(std::move(other.inbuf_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    next_id_ = other.next_id_;
    inbuf_ = std::move(other.inbuf_);
    other.fd_ = -1;
  }
  return *this;
}

Status Client::Connect(const std::string& host, uint16_t port,
                       int timeout_ms) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");

  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("unparseable host '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const Status s = Errno("connect " + host + ":" + std::to_string(port));
    Close();
    return s;
  }
  inbuf_.clear();
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

Status Client::SendAll(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return Errno("send");
    }
  }
  return Status::OK();
}

Result<std::string> Client::RecvFrame() {
  char buf[65536];
  while (true) {
    LEVA_ASSIGN_OR_RETURN(const FrameDecode frame, DecodeFrame(inbuf_));
    if (frame.complete) {
      std::string payload(frame.payload);
      inbuf_.erase(0, frame.consumed);
      return payload;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      return Status::IOError("connection closed by server");
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IOError("timed out waiting for response");
    } else {
      return Errno("recv");
    }
  }
}

Result<DecodedResponse> Client::RoundTrip(std::string_view payload,
                                          uint64_t expect_id) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  LEVA_ASSIGN_OR_RETURN(const std::string frame, FrameRequest(payload));
  LEVA_RETURN_IF_ERROR(SendAll(frame));
  LEVA_ASSIGN_OR_RETURN(const std::string response_payload, RecvFrame());
  DecodedResponse response;
  LEVA_RETURN_IF_ERROR(DecodeResponse(response_payload, &response));
  // kInvalid carries a stream-level error (the server is about to hang up);
  // surface it regardless of the id it rode in on.
  if (response.opcode != Opcode::kInvalid &&
      response.request_id != expect_id) {
    return Status::Internal(
        "response id " + std::to_string(response.request_id) +
        " does not match request id " + std::to_string(expect_id));
  }
  return response;
}

Status Client::Send(std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  LEVA_ASSIGN_OR_RETURN(const std::string frame, FrameRequest(payload));
  return SendAll(frame);
}

Result<DecodedResponse> Client::ReadResponse() {
  LEVA_ASSIGN_OR_RETURN(const std::string payload, RecvFrame());
  DecodedResponse response;
  LEVA_RETURN_IF_ERROR(DecodeResponse(payload, &response));
  return response;
}

Status Client::Ping() {
  const uint64_t id = NextRequestId();
  LEVA_ASSIGN_OR_RETURN(const DecodedResponse r,
                        RoundTrip(EncodeBodylessRequest(Opcode::kPing, id),
                                  id));
  return r.status;
}

Result<DecodedResponse> Client::Featurize(const FeaturizeRequest& request) {
  FeaturizeRequest req = request;
  req.request_id = NextRequestId();
  LEVA_ASSIGN_OR_RETURN(DecodedResponse r,
                        RoundTrip(EncodeFeaturizeRequest(req),
                                  req.request_id));
  return r;
}

Result<std::vector<std::pair<std::string, double>>> Client::Stats() {
  const uint64_t id = NextRequestId();
  LEVA_ASSIGN_OR_RETURN(DecodedResponse r,
                        RoundTrip(EncodeBodylessRequest(Opcode::kStats, id),
                                  id));
  LEVA_RETURN_IF_ERROR(r.status);
  return std::move(r.stats);
}

Status Client::Reload(const ReloadRequest& request) {
  ReloadRequest req = request;
  req.request_id = NextRequestId();
  LEVA_ASSIGN_OR_RETURN(const DecodedResponse r,
                        RoundTrip(EncodeReloadRequest(req), req.request_id));
  return r.status;
}

Status Client::Drain() {
  const uint64_t id = NextRequestId();
  LEVA_ASSIGN_OR_RETURN(const DecodedResponse r,
                        RoundTrip(EncodeBodylessRequest(Opcode::kDrain, id),
                                  id));
  return r.status;
}

}  // namespace leva::serve
