#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "core/pipeline.h"

namespace leva::serve {

namespace {
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;
/// Slow-reader guard: a client that stops reading while pipelining requests
/// accumulates framed responses; past this many queued frames the connection
/// is dropped instead of buffering without bound.
constexpr size_t kMaxQueuedResponses = 4096;
/// Frames one sendmsg call gathers (well under IOV_MAX); a longer queue takes
/// more calls.
constexpr size_t kMaxSendIov = 64;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}
}  // namespace

Server::Server(LevaPipeline* pipeline, ServerOptions options)
    : pipeline_(pipeline), options_(std::move(options)) {}

Server::~Server() {
  Shutdown();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status Server::Start() {
  batcher_ = std::make_unique<RequestBatcher>(
      options_.batcher,
      [this](Table rows, std::string target, bool rows_in_graph) {
        return ExecuteFeaturize(*pipeline_, rows, target, rows_in_graph);
      },
      [this](std::vector<Completion> completions) {
        bool wake = false;
        {
          std::lock_guard<std::mutex> lock(completions_mu_);
          // The I/O thread reads the eventfd before it takes the queue, so
          // a non-empty queue already has a wake pending that covers these.
          wake = completions_.empty();
          for (Completion& c : completions) {
            completions_.push_back(std::move(c));
          }
        }
        if (wake) {
          const uint64_t one = 1;
          [[maybe_unused]] const ssize_t n =
              ::write(wake_fd_, &one, sizeof one);
        }
      },
      &stats_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, options_.backlog) < 0) return Errno("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Errno("epoll_ctl(wake)");
  }

  started_at_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  batcher_->Start();
  io_thread_ = std::thread([this] { EventLoop(); });
  started_ = true;
  LEVA_LOG(kInfo, "leva_served listening on %s:%u (max_batch_rows=%zu, "
           "max_pending_rows=%zu)",
           options_.host.c_str(), unsigned{port_},
           options_.batcher.max_batch_rows, options_.batcher.max_pending_rows);
  return Status::OK();
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
}

void Server::Shutdown() {
  RequestShutdown();
  Join();
}

void Server::Join() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (io_thread_.joinable()) io_thread_.join();
  if (started_ && !joined_) {
    batcher_->Stop();  // already stopped by the drain; idempotent
    joined_ = true;
  }
}

void Server::EventLoop() {
  std::vector<epoll_event> events(64);
  while (true) {
    int timeout_ms = -1;
    if (draining_) {
      if (conns_.empty()) break;
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(drain_deadline_ -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        LEVA_LOG(kWarning, "drain deadline reached with %zu connection(s) "
                 "unflushed; force-closing",
                 conns_.size());
        break;
      }
      timeout_ms = static_cast<int>(remaining.count());
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      LEVA_LOG(kError, "epoll_wait: %s", std::strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        HandleAccept();
      } else if (id == kWakeId) {
        uint64_t counter;  // one read returns and resets the whole count
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &counter, sizeof counter);
        DrainCompletions();
      } else {
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          // Flush whatever the peer can still receive, then drop.
          auto it = conns_.find(id);
          if (it != conns_.end() && (events[i].events & EPOLLERR) != 0) {
            CloseConn(id);
            continue;
          }
        }
        if ((events[i].events & EPOLLIN) != 0) HandleReadable(id);
        if ((events[i].events & EPOLLOUT) != 0) HandleWritable(id);
      }
    }
    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain();
    }
    if (draining_) {
      std::vector<uint64_t> flushed;
      for (const auto& [id, conn] : conns_) {
        if (conn.outq.empty()) flushed.push_back(id);
      }
      for (const uint64_t id : flushed) CloseConn(id);
      if (conns_.empty()) break;
    }
  }
  // Force-close anything left (drain deadline or loop error).
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const uint64_t id : ids) CloseConn(id);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
  LEVA_LOG(kInfo, "leva_served event loop exited");
}

void Server::HandleAccept() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      LEVA_LOG(kWarning, "accept: %s", std::strerror(errno));
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const uint64_t id = next_conn_id_++;
    Conn conn;
    conn.id = id;
    conn.fd = fd;
    conn.epoll_mask = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::HandleReadable(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* conn = &it->second;
  if (conn->close_after_flush) return;

  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof buf) break;
    } else if (n == 0) {
      CloseConn(conn_id);
      return;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      CloseConn(conn_id);
      return;
    }
  }

  size_t consumed = 0;
  while (true) {
    const Result<FrameDecode> frame =
        DecodeFrame(std::string_view(conn->inbuf).substr(consumed));
    if (!frame.ok()) {
      // The frame boundary itself is untrustworthy (oversized length or
      // checksum mismatch): answer once with a stream-level error and close
      // after the response flushes. Nothing past this point is parsed.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      LEVA_LOG(kWarning, "conn %llu: %s — closing",
               static_cast<unsigned long long>(conn_id),
               frame.status().ToString().c_str());
      QueueResponse(conn, EncodeErrorResponse(Opcode::kInvalid, 0,
                                              frame.status()));
      conn->close_after_flush = true;
      conn->inbuf.clear();
      consumed = 0;
      ::shutdown(conn->fd, SHUT_RD);
      break;
    }
    if (!frame->complete) break;
    HandlePayload(conn, frame->payload);
    consumed += frame->consumed;
    if (conn->close_after_flush) break;
  }
  if (consumed > 0) conn->inbuf.erase(0, consumed);
  FlushConn(conn);
}

void Server::HandleWritable(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  FlushConn(&it->second);
}

void Server::HandlePayload(Conn* conn, std::string_view payload) {
  BufferReader reader(payload);
  RequestHeader header;
  if (Status s = DecodeRequestHeader(&reader, &header); !s.ok()) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(conn, EncodeErrorResponse(Opcode::kInvalid, 0, s));
    return;
  }
  switch (header.opcode) {
    case Opcode::kPing:
      stats_.requests_ping.fetch_add(1, std::memory_order_relaxed);
      QueueResponse(conn, EncodeOkResponse(Opcode::kPing, header.request_id));
      return;
    case Opcode::kStats: {
      stats_.requests_stats.fetch_add(1, std::memory_order_relaxed);
      const double uptime = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - started_at_)
                                .count();
      QueueResponse(conn, EncodeStatsResponse(header.request_id,
                                              stats_.Render(uptime)));
      return;
    }
    case Opcode::kReload: {
      stats_.requests_reload.fetch_add(1, std::memory_order_relaxed);
      ReloadRequest request;
      if (Status s = DecodeReloadBody(&reader, &request); !s.ok()) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        QueueResponse(conn, EncodeErrorResponse(Opcode::kReload,
                                                header.request_id, s));
        return;
      }
      SnapshotLoadOptions load;
      load.use_mmap = request.use_mmap;
      load.verify_pages = request.verify_pages;
      load.require_same_tier = request.require_same_tier;
      // Runs on the I/O thread while the dispatcher keeps featurizing: the
      // pipeline's hot swap is documented safe against concurrent Featurize,
      // and in-flight batches finish on the model they pinned.
      const Status s = pipeline_->ReloadSnapshot(request.path, nullptr, load);
      if (s.ok()) {
        stats_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
        stats_.model_generation.fetch_add(1, std::memory_order_relaxed);
        LEVA_LOG(kInfo, "hot-swapped model to %s (generation %llu)",
                 request.path.c_str(),
                 static_cast<unsigned long long>(
                     stats_.model_generation.load()));
        QueueResponse(conn,
                      EncodeOkResponse(Opcode::kReload, header.request_id));
      } else {
        stats_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
        LEVA_LOG(kWarning, "reload %s failed: %s — incumbent keeps serving",
                 request.path.c_str(), s.ToString().c_str());
        QueueResponse(conn, EncodeErrorResponse(Opcode::kReload,
                                                header.request_id, s));
      }
      return;
    }
    case Opcode::kDrain:
      stats_.requests_drain.fetch_add(1, std::memory_order_relaxed);
      QueueResponse(conn, EncodeOkResponse(Opcode::kDrain, header.request_id));
      shutdown_requested_.store(true, std::memory_order_release);
      return;
    case Opcode::kFeaturize: {
      stats_.requests_featurize.fetch_add(1, std::memory_order_relaxed);
      FeaturizeJob job;
      job.conn_id = conn->id;
      job.request.request_id = header.request_id;
      if (Status s = DecodeFeaturizeBody(&reader, &job.request); !s.ok()) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        QueueResponse(conn, EncodeErrorResponse(Opcode::kFeaturize,
                                                header.request_id, s));
        return;
      }
      if (job.request.rows.NumRows() == 0) {
        QueueResponse(conn, EncodeErrorResponse(
                                Opcode::kFeaturize, header.request_id,
                                Status::InvalidArgument(
                                    "FEATURIZE request with zero rows")));
        return;
      }
      if (!batcher_->TryEnqueue(std::move(job))) {
        stats_.overload_rejections.fetch_add(1, std::memory_order_relaxed);
        QueueResponse(
            conn,
            EncodeErrorResponse(
                Opcode::kFeaturize, header.request_id,
                Status::ResourceExhausted(
                    "server overloaded: admission queue full "
                    "(max_pending_rows=" +
                    std::to_string(options_.batcher.max_pending_rows) + ")")));
      }
      return;
    }
    case Opcode::kInvalid:
      break;
  }
  stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  QueueResponse(conn,
                EncodeErrorResponse(
                    header.opcode, header.request_id,
                    Status::InvalidArgument(
                        "unknown opcode " +
                        std::to_string(static_cast<unsigned>(
                            static_cast<uint8_t>(header.opcode))))));
}

void Server::QueueResponse(Conn* conn, std::string_view payload) {
  QueueFrame(conn, EncodeFrame(payload));
}

void Server::QueueFrame(Conn* conn, std::string frame) {
  if (conn->outq.size() >= kMaxQueuedResponses) {
    LEVA_LOG(kWarning, "conn %llu: %zu unread responses queued — dropping "
             "slow reader",
             static_cast<unsigned long long>(conn->id), conn->outq.size());
    conn->close_after_flush = true;
    return;
  }
  conn->outq.push_back(std::move(frame));
}

bool Server::FlushConn(Conn* conn) {
  while (!conn->outq.empty()) {
    iovec iov[kMaxSendIov];
    size_t iov_count = 0;
    size_t offered = 0;
    for (const std::string& frame : conn->outq) {
      if (iov_count == kMaxSendIov) break;
      const size_t skip = iov_count == 0 ? conn->out_off : 0;
      iov[iov_count].iov_base = const_cast<char*>(frame.data()) + skip;
      iov[iov_count].iov_len = frame.size() - skip;
      offered += iov[iov_count].iov_len;
      ++iov_count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Retire every frame the send finished; a send that ends inside a
      // frame leaves out_off at the first unsent byte.
      size_t sent = static_cast<size_t>(n);
      while (sent > 0) {
        const size_t left = conn->outq.front().size() - conn->out_off;
        if (sent < left) {
          conn->out_off += sent;
          break;
        }
        sent -= left;
        conn->outq.pop_front();
        conn->out_off = 0;
      }
      // A short send means the socket buffer is full: wait for EPOLLOUT.
      if (static_cast<size_t>(n) < offered) break;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      CloseConn(conn->id);
      return false;
    }
  }
  if (conn->outq.empty() && conn->close_after_flush) {
    CloseConn(conn->id);
    return false;
  }
  const uint32_t mask = (conn->close_after_flush ? 0u : EPOLLIN) |
                        (conn->outq.empty() ? 0u : EPOLLOUT);
  UpdateEpollMask(conn, mask);
  return true;
}

void Server::UpdateEpollMask(Conn* conn, uint32_t mask) {
  if (mask == conn->epoll_mask) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->epoll_mask = mask;
  }
}

void Server::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
  stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  // Queue every frame first, then flush each touched connection once, so a
  // connection's responses from this wake leave in as few sends as the
  // socket allows. A queue that was not empty is already waiting for
  // EPOLLOUT and needs no flush here.
  std::vector<uint64_t> touched;
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // client vanished mid-flight
    if (it->second.outq.empty()) touched.push_back(c.conn_id);
    QueueFrame(&it->second, std::move(c.frame));
  }
  for (const uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it != conns_.end()) FlushConn(&it->second);
  }
}

void Server::BeginDrain() {
  draining_ = true;
  drain_deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.drain_timeout_ms);
  LEVA_LOG(kInfo, "drain: closing listener, finishing %zu pending row(s)",
           batcher_->PendingRows());
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Blocks until every admitted FEATURIZE executed; their completions land
  // in the queue below. New arrivals are rejected OVERLOADED from here on.
  batcher_->Stop();
  DrainCompletions();
  for (auto& [id, conn] : conns_) conn.close_after_flush = true;
}

}  // namespace leva::serve
