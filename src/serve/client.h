#ifndef LEVA_SERVE_CLIENT_H_
#define LEVA_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "serve/protocol.h"

namespace leva::serve {

/// Minimal blocking client for the serving protocol: one TCP connection, one
/// outstanding request at a time (RoundTrip verifies the echoed request id).
/// Benches and tests that want pipelining or concurrency open one Client per
/// thread. Movable, not copyable; Close() (or destruction) drops the socket.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects and applies `timeout_ms` as both send and receive timeout;
  /// a server that stops responding surfaces as an IOError, not a hang.
  Status Connect(const std::string& host, uint16_t port,
                 int timeout_ms = 5000);
  void Close();

  Status Ping();
  /// Featurizes `request.rows`; the request id is assigned by the client.
  /// On success the response carries rows x width features (bit-exact).
  Result<DecodedResponse> Featurize(const FeaturizeRequest& request);
  Result<std::vector<std::pair<std::string, double>>> Stats();
  Status Reload(const ReloadRequest& request);
  /// Asks the server to drain and shut down (acknowledged before the drain).
  Status Drain();

  /// Sends one framed request payload and blocks for the matching response.
  Result<DecodedResponse> RoundTrip(std::string_view payload,
                                    uint64_t expect_id);

  /// Pipelining primitives: send without waiting, then collect responses in
  /// whatever order the server completes them (match by request_id — the
  /// batcher completes FEATURIZE requests when their batch executes).
  Status Send(std::string_view payload);
  Result<DecodedResponse> ReadResponse();

  uint64_t NextRequestId() { return next_id_++; }

 private:
  Status SendAll(std::string_view bytes);
  /// Blocks until one complete frame arrives; hands back its payload.
  Result<std::string> RecvFrame();

  int fd_ = -1;
  uint64_t next_id_ = 1;
  std::string inbuf_;
};

}  // namespace leva::serve

#endif  // LEVA_SERVE_CLIENT_H_
