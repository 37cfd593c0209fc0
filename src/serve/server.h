#ifndef LEVA_SERVE_SERVER_H_
#define LEVA_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serve/batcher.h"
#include "serve/stats.h"

namespace leva {
class LevaPipeline;
}  // namespace leva

namespace leva::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; port() reports the one actually bound.
  uint16_t port = 0;
  int backlog = 128;
  BatcherOptions batcher;
  /// How long a graceful drain waits for response buffers to flush before
  /// force-closing lingering connections.
  size_t drain_timeout_ms = 5000;
};

/// The serving daemon's network front end: a single epoll I/O thread speaking
/// the length-prefixed CRC32C-framed protocol of serve/protocol.h over TCP.
/// PING/STATS/RELOAD/DRAIN are answered inline on the I/O thread (RELOAD is
/// the pipeline's atomic hot swap — safe against the Featurize calls the
/// dispatcher thread runs concurrently); FEATURIZE requests are admitted
/// into the RequestBatcher, coalesced, and completed asynchronously, with
/// OVERLOADED rejections once the admission queue is full. The dispatcher
/// hands back finished frames, so the I/O thread does no per-byte work on a
/// FEATURIZE response: each wake it queues them and flushes every connection
/// it touched once, with vectored sends.
///
/// Shutdown is a graceful drain — triggered by Shutdown(), a DRAIN request,
/// or RequestShutdown() from a signal handler: the listener closes, admitted
/// featurize work executes to completion, every response buffer flushes
/// (bounded by drain_timeout_ms), then connections close and the I/O thread
/// exits.
class Server {
 public:
  Server(LevaPipeline* pipeline, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens, then spawns the I/O thread and the batch dispatcher.
  /// On return port() is valid and the server accepts connections.
  Status Start();

  /// Async-signal-safe shutdown request (an atomic flag plus an eventfd
  /// write): safe to call from a SIGTERM handler. The drain happens on the
  /// I/O thread; use Join() to wait for it.
  void RequestShutdown();

  /// RequestShutdown() + Join(). Idempotent.
  void Shutdown();

  /// Blocks until the I/O thread has exited (drain complete).
  void Join();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  const ServerStats& stats() const { return stats_; }

 private:
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    std::string inbuf;
    std::deque<std::string> outq;  ///< framed responses awaiting send
    size_t out_off = 0;            ///< bytes of outq.front() already sent
    bool close_after_flush = false;
    uint32_t epoll_mask = 0;
  };

  void EventLoop();
  void HandleAccept();
  void HandleReadable(uint64_t conn_id);
  void HandleWritable(uint64_t conn_id);
  /// Parses one request payload and queues its response(s).
  void HandlePayload(Conn* conn, std::string_view payload);
  /// Frames a response the I/O thread made itself and queues it.
  void QueueResponse(Conn* conn, std::string_view payload);
  /// Queues a finished frame, or marks a slow reader for closing once
  /// kMaxQueuedResponses frames are waiting.
  void QueueFrame(Conn* conn, std::string frame);
  /// Sends as much queued output as the socket accepts, up to kMaxSendIov
  /// frames per sendmsg; closes on error. Returns false when the connection
  /// was closed.
  bool FlushConn(Conn* conn);
  void UpdateEpollMask(Conn* conn, uint32_t mask);
  void CloseConn(uint64_t conn_id);
  void DrainCompletions();
  void BeginDrain();

  LevaPipeline* const pipeline_;
  const ServerOptions options_;
  ServerStats stats_;
  std::unique_ptr<RequestBatcher> batcher_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t next_conn_id_ = 2;  ///< 0/1 are the listen/wake sentinels
  std::unordered_map<uint64_t, Conn> conns_;
  std::chrono::steady_clock::time_point started_at_{};
  std::chrono::steady_clock::time_point drain_deadline_{};
  bool draining_ = false;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> running_{false};
  std::thread io_thread_;
  bool started_ = false;
  bool joined_ = false;
  std::mutex lifecycle_mu_;
};

}  // namespace leva::serve

#endif  // LEVA_SERVE_SERVER_H_
