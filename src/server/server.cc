// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/timer.h"

namespace octopus::server {
namespace {

constexpr size_t kReadChunkBytes = 64 * 1024;
/// iovec budget per sendmsg: plenty for one large zero-copy RESULT
/// (2 segments per query) plus a run of small inline frames.
constexpr int kMaxIov = 64;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

/// Per-connection state. A session lives its whole life on the one I/O
/// thread its fd hashed to, so none of this needs locking — the only
/// cross-thread references are the id-keyed `owner_` map and frames
/// arriving through the owning thread's inbox.
struct QueryServer::Session {
  uint64_t id = 0;
  int fd = -1;
  bool handshaken = false;
  /// Last instant the session demonstrably made progress — the peer
  /// delivered bytes (accept time initially), a pipelined request of
  /// its completed, or an inline verb (STEP, PIN) finished executing;
  /// drives the idle/handshake timeout. Advancing it at completion,
  /// not only at receipt, keeps a session that waited out a slow
  /// coalescing window from being condemned the moment its result is
  /// delivered.
  int64_t last_activity_nanos = 0;
  /// Epochs this session pinned (id -> pin count); every remaining pin
  /// is released when the session closes, however it dies.
  std::map<uint64_t, uint32_t> pinned_epochs;
  /// Set after a fatal protocol error: pending output (the error frame)
  /// is flushed, further input is ignored, then the socket closes.
  bool close_after_flush = false;
  /// Peer sent EOF (or the read side failed). Frames already buffered
  /// are still parsed and their responses delivered; the session closes
  /// once nothing is pending for it.
  bool read_closed = false;
  /// Requests of this session in flight through the scheduler /
  /// serializer pipeline: exempts the session from the idle deadline
  /// and keeps a half-closed session alive until it has been answered.
  uint32_t inflight = 0;
  Buffer in;                ///< received, not yet parsed
  std::deque<OutFrame> out; ///< encoded frames, not yet fully sent
  size_t out_offset = 0;    ///< bytes of `out.front()` already sent
  size_t out_bytes = 0;     ///< unsent wire bytes across `out`
  /// Interest set currently armed in epoll (EPOLL_CTL_MOD only on
  /// change — interest churns far slower than wakeups).
  uint32_t epoll_events = 0;

  bool WantsWrite() const { return out_bytes > 0; }
  void Push(OutFrame frame) {
    out_bytes += frame.WireBytes();
    out.push_back(std::move(frame));
  }
};

/// One I/O thread's world: an epoll instance, the sessions sharded to
/// it, and an eventfd-signalled inbox through which the main thread
/// hands it new connections and the serializer hands it finished
/// frames.
struct QueryServer::IoThread {
  struct Msg {
    enum class Kind : uint8_t { kNewSession, kFrame, kDrain };
    Kind kind = Kind::kNewSession;
    int fd = -1;              ///< kNewSession: the accepted socket
    uint64_t session_id = 0;  ///< kNewSession / kFrame
    OutFrame frame;           ///< kFrame: pre-framed outbound bytes
    /// kFrame: this frame answers a pipelined request — decrement
    /// `inflight` and refresh the idle clock on arrival.
    bool completes_request = false;
  };

  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  common::Mutex inbox_mu;
  std::deque<Msg> inbox GUARDED_BY(inbox_mu);
  /// This thread's loop-stall shard; merged into snapshots/scrapes on
  /// demand (never into the live `ServerMetrics` — that would double
  /// count across scrapes).
  LatencyHistogram stall;
  std::map<uint64_t, std::unique_ptr<Session>> sessions;
  std::unordered_map<int, Session*> by_fd;
  /// Sessions condemned while iterating; closed in a second phase so
  /// nothing erases from `sessions` mid-walk.
  std::vector<uint64_t> closed_scratch;

  void Post(Msg msg) {
    {
      common::MutexLock lock(inbox_mu);
      inbox.push_back(std::move(msg));
    }
    Signal();
  }
  void Signal() {
    const uint64_t one = 1;
    // Best effort: a saturated eventfd counter is already a wakeup.
    [[maybe_unused]] const ssize_t n =
        write(event_fd, &one, sizeof(one));
  }
};

QueryServer::QueryServer(std::unique_ptr<VersionedBackend> backend,
                         ServerOptions options)
    : backend_(std::move(backend)),
      options_(std::move(options)),
      scheduler_(options_.scheduler),
      recorder_(options_.trace_ring_slots) {
  // Step/epoch lifecycle events come from the backend and its epoch
  // store; point them at the same journal the server emits into.
  if (options_.journal != nullptr) {
    backend_->AttachJournal(options_.journal);
  }
}

QueryServer::~QueryServer() {
  for (auto& io : io_) {
    for (auto& [id, session] : io->sessions) {
      if (session->fd >= 0) close(session->fd);
    }
    if (io->epoll_fd >= 0) close(io->epoll_fd);
    if (io->event_fd >= 0) close(io->event_fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fd_read_ >= 0) close(wake_fd_read_);
  if (wake_fd_write_ >= 0) close(wake_fd_write_);
}

int64_t QueryServer::NowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t QueryServer::ResolvedIoThreads() const {
  return static_cast<size_t>(std::clamp(options_.io_threads, 1, 64));
}

Status QueryServer::Start() {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return Errno("pipe");
  wake_fd_read_ = pipe_fds[0];
  wake_fd_write_ = pipe_fds[1];
  if (!SetNonBlocking(wake_fd_read_) || !SetNonBlocking(wake_fd_write_)) {
    return Errno("fcntl(wake pipe)");
  }
  const Status listened = Listen();
  if (!listened.ok()) return listened;
  if (options_.metrics_port >= 0) {
    return metrics_http_.Listen(options_.bind_address,
                                static_cast<uint16_t>(options_.metrics_port));
  }
  return Status::OK();
}

Status QueryServer::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind " + options_.bind_address + ":" +
                 std::to_string(options_.port));
  }
  if (listen(listen_fd_, options_.backlog) != 0) return Errno("listen");
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl(listener)");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void QueryServer::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  WakeMain();
}

void QueryServer::WakeMain() {
  if (wake_fd_write_ >= 0) {
    const char byte = 1;
    // Best effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n = write(wake_fd_write_, &byte, 1);
  }
}

Status QueryServer::Run() {
  // Build every I/O thread's epoll/eventfd before anything starts, so
  // a resource failure aborts cleanly with no threads to unwind.
  const size_t n_io = ResolvedIoThreads();
  for (size_t i = 0; i < n_io; ++i) {
    auto io = std::make_unique<IoThread>();
    io->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    if (io->epoll_fd < 0) return Errno("epoll_create1");
    io->event_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (io->event_fd < 0) {
      io_.push_back(std::move(io));  // dtor closes the epoll fd
      return Errno("eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = io->event_fd;
    if (epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->event_fd, &ev) != 0) {
      io_.push_back(std::move(io));
      return Errno("epoll_ctl(eventfd)");
    }
    io_.push_back(std::move(io));
  }
  sched_thread_ = std::thread([this] { SchedulerLoop(); });
  ser_thread_ = std::thread([this] { SerializerLoop(); });
  for (size_t i = 0; i < io_.size(); ++i) {
    io_[i]->thread = std::thread([this, i] { IoLoop(i); });
  }

  // The main thread's remaining job: accept, introspection HTTP, and
  // the wake pipe. Sessions and batches belong to the other stages.
  const obs::HttpTextEndpoint::Handler metrics_handler =
      [this](const std::string& path) { return RouteHttp(path); };
  std::vector<pollfd> fds;
  Status status = Status::OK();
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int64_t now = NowNanos();
    fds.clear();
    fds.push_back({wake_fd_read_, POLLIN, 0});
    const bool accepting =
        active_sessions_.load(std::memory_order_relaxed) <
            options_.max_connections &&
        now >= accept_retry_at_nanos_;
    if (accepting) fds.push_back({listen_fd_, POLLIN, 0});
    if (metrics_http_.listening()) metrics_http_.CollectPollFds(&fds);

    int timeout_ms = -1;
    if (!accepting && accept_retry_at_nanos_ > now) {
      // Wake in time to resume accepting even if nothing else happens.
      // (At the connection cap there is no deadline: the I/O thread
      // that closes a session wakes us through the pipe.)
      timeout_ms = static_cast<int>(
          (accept_retry_at_nanos_ - now + 999'999) / 1'000'000);
    }
    const int ready = poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      status = Errno("poll");
      break;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fds[i].fd == wake_fd_read_) {
        char buf[64];
        while (read(wake_fd_read_, buf, sizeof(buf)) > 0) {
        }
      } else if (fds[i].fd == listen_fd_ && accepting) {
        AcceptNew();
      } else if (metrics_http_.OwnsFd(fds[i].fd)) {
        metrics_http_.OnReady(fds[i].fd, fds[i].revents, metrics_handler);
      }
    }
  }

  DrainAndClose();
  return status;
}

void QueryServer::AcceptNew() {
  while (active_sessions_.load(std::memory_order_relaxed) <
         options_.max_connections) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Per-connection failures (peer aborted before we accepted):
      // skip that connection and keep accepting.
      if (errno == ECONNABORTED || errno == ECONNRESET ||
          errno == EPROTO) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // Persistent failure (EMFILE/ENFILE/...): the pending
        // connection stays in the backlog and the listener stays
        // readable, so back off briefly instead of busy-spinning.
        accept_retry_at_nanos_ = NowNanos() + 100'000'000;
      }
      return;
    }
    if (!SetNonBlocking(fd)) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_session_id_++;
    const auto owner =
        static_cast<uint32_t>(static_cast<size_t>(fd) % io_.size());
    metrics_.connections_accepted += 1;
    const uint64_t count =
        active_sessions_.fetch_add(1, std::memory_order_relaxed) + 1;
    {
      // Registered before the handoff: the serializer must be able to
      // route to this session the moment the I/O thread knows it.
      common::MutexLock lock(owner_mu_);
      owner_[id] = owner;
    }
    IoThread::Msg msg;
    msg.kind = IoThread::Msg::Kind::kNewSession;
    msg.fd = fd;
    msg.session_id = id;
    io_[owner]->Post(std::move(msg));
    Journal(obs::EventKind::kSessionOpened, 0, id, count);
  }
}

void QueryServer::IoLoop(size_t index) {
  IoThread& io = *io_[index];
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // Instant the last epoll_wait returned; -1 before the first wakeup.
  int64_t last_wake_nanos = -1;
  bool draining = false;

  while (!draining) {
    const int64_t now = NowNanos();
    // Condemn idle sessions BEFORE the flush pass, so their TIMEOUT
    // error frames go out in this very round.
    const int64_t idle_in = EnforceIdleDeadlines(io, now);
    // Opportunistic flush of everything with pending output; EPOLLOUT
    // interest is only needed when the socket buffer pushes back.
    for (auto& [id, session] : io.sessions) {
      if (session->WantsWrite() || session->close_after_flush) {
        FlushSession(io, session.get());
      }
    }
    ProcessClosures(io);
    for (auto& [id, session] : io.sessions) {
      UpdateInterest(io, session.get());
    }

    int timeout_ms = -1;
    if (idle_in >= 0) {
      // Round up so we never spin on a sub-millisecond remainder.
      timeout_ms = static_cast<int>((idle_in + 999'999) / 1'000'000);
    }
    // Loop-stall sample: how long the previous wakeup kept this thread
    // away from epoll. Recorded only while it owns sessions — with no
    // one connected a slow iteration stalls nobody.
    if (last_wake_nanos >= 0 && !io.sessions.empty()) {
      io.stall.Record(static_cast<uint64_t>(NowNanos() - last_wake_nanos));
    }
    const int ready = epoll_wait(io.epoll_fd, events, kMaxEvents,
                                 timeout_ms);
    last_wake_nanos = NowNanos();
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; fall through to the drain
    }

    // Drain the wakeup counter BEFORE swapping the inbox. A message
    // posted after the drain re-arms the eventfd; draining after the
    // swap would swallow the wakeup of a message posted in between,
    // leaving it stranded until the next socket event.
    for (int i = 0; i < ready; ++i) {
      if (events[i].data.fd != io.event_fd) continue;
      uint64_t counter = 0;
      while (read(io.event_fd, &counter, sizeof(counter)) > 0) {
      }
    }
    ProcessInbox(io, &draining);
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == io.event_fd) continue;
      auto it = io.by_fd.find(fd);
      if (it == io.by_fd.end()) continue;
      Session* session = it->second;
      const uint32_t revents = events[i].events;
      if ((revents & (EPOLLERR | EPOLLHUP)) != 0 &&
          (revents & EPOLLIN) == 0) {
        io.closed_scratch.push_back(session->id);
        continue;
      }
      if ((revents & EPOLLIN) != 0) ReadSession(io, session);
      // EPOLLOUT needs no handler: the next iteration's flush pass
      // runs before this thread can sleep again.
    }
    ProcessClosures(io);
  }

  DrainIoThread(io);
}

void QueryServer::ProcessInbox(IoThread& io, bool* draining) {
  std::deque<IoThread::Msg> msgs;
  {
    common::MutexLock lock(io.inbox_mu);
    msgs.swap(io.inbox);
  }
  for (IoThread::Msg& msg : msgs) {
    switch (msg.kind) {
      case IoThread::Msg::Kind::kNewSession: {
        auto session = std::make_unique<Session>();
        session->id = msg.session_id;
        session->fd = msg.fd;
        session->last_activity_nanos = NowNanos();
        session->epoll_events = EPOLLIN;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = msg.fd;
        epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, msg.fd, &ev);
        io.by_fd[msg.fd] = session.get();
        io.sessions.emplace(msg.session_id, std::move(session));
        break;
      }
      case IoThread::Msg::Kind::kFrame: {
        auto it = io.sessions.find(msg.session_id);
        if (it == io.sessions.end()) break;  // session died mid-flight
        Session* session = it->second.get();
        if (msg.completes_request) {
          if (session->inflight > 0) session->inflight -= 1;
          // Completion counts as activity: a request that waited out a
          // slow coalescing window must not leave its session
          // condemnable the instant the in-flight exemption lapses.
          session->last_activity_nanos = NowNanos();
        }
        session->Push(std::move(msg.frame));
        break;
      }
      case IoThread::Msg::Kind::kDrain:
        // Process everything already in this swap (frames ahead of the
        // token must still be delivered), then leave the event loop.
        *draining = true;
        break;
    }
  }
}

void QueryServer::ReadSession(IoThread& io, Session* session) {
  session->last_activity_nanos = NowNanos();
  while (true) {
    const size_t old_size = session->in.size();
    session->in.resize(old_size + kReadChunkBytes);
    const ssize_t n =
        recv(session->fd, session->in.data() + old_size, kReadChunkBytes, 0);
    if (n > 0) {
      session->in.resize(old_size + static_cast<size_t>(n));
      if (static_cast<size_t>(n) < kReadChunkBytes) break;
      continue;
    }
    session->in.resize(old_size);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF (or read error): no more input, but frames already buffered
    // in this burst must still be parsed and answered — a peer may
    // legitimately write its requests and half-close while reading.
    session->read_closed = true;
    break;
  }

  // Parse every complete frame accumulated so far.
  size_t consumed = 0;
  while (!session->close_after_flush &&
         session->in.size() - consumed >= kFrameHeaderBytes) {
    const std::span<const uint8_t> rest(session->in.data() + consumed,
                                        session->in.size() - consumed);
    auto header = ParseFrameHeader(rest);
    if (!header.ok()) {
      metrics_.malformed_frames += 1;
      const ErrorCode code =
          header.status().code() == Status::Code::kResourceExhausted
              ? ErrorCode::kFrameTooLarge
              : ErrorCode::kMalformedFrame;
      SendError(session, code, 0, header.status().message(),
                /*close_connection=*/true);
      break;
    }
    const size_t frame_bytes =
        kFrameHeaderBytes + header.Value().payload_bytes;
    if (rest.size() < frame_bytes) break;  // incomplete frame
    metrics_.frames_received += 1;
    HandleFrame(session, header.Value().type,
                rest.subspan(kFrameHeaderBytes,
                             header.Value().payload_bytes));
    consumed += frame_bytes;
  }
  if (consumed > 0) {
    session->in.erase(session->in.begin(),
                      session->in.begin() + static_cast<ptrdiff_t>(consumed));
  }
  // After EOF the session lives only to deliver what it is still owed;
  // with nothing pending anywhere, close now (FlushSession handles the
  // pending cases when they drain).
  if (session->read_closed && !session->close_after_flush &&
      !session->WantsWrite() && session->inflight == 0) {
    io.closed_scratch.push_back(session->id);
  }
}

void QueryServer::HandleFrame(Session* session, FrameType type,
                              std::span<const uint8_t> payload) {
  if (!session->handshaken) {
    if (type != FrameType::kHello) {
      SendError(session, ErrorCode::kUnexpectedFrame, 0,
                "first frame must be HELLO", true);
      return;
    }
    HelloFrame hello;
    const Status st = ParseHello(payload, &hello);
    if (!st.ok()) {
      metrics_.malformed_frames += 1;
      SendError(session, ErrorCode::kMalformedFrame, 0, st.message(), true);
      return;
    }
    if (hello.magic != kProtocolMagic) {
      SendError(session, ErrorCode::kBadMagic, 0,
                "not an OCTP client", true);
      return;
    }
    if (hello.flags != 0) {
      // Reject now so the reserved field stays usable for future
      // capability negotiation.
      SendError(session, ErrorCode::kMalformedFrame, 0,
                "HELLO reserved flags must be zero", true);
      return;
    }
    if (hello.version != kProtocolVersion) {
      SendError(session, ErrorCode::kVersionMismatch, 0,
                "server speaks protocol version " +
                    std::to_string(kProtocolVersion),
                true);
      return;
    }
    WelcomeFrame welcome;
    welcome.paged = backend_->paged() ? 1 : 0;
    welcome.dynamic = backend_->dynamic() ? 1 : 0;
    welcome.num_vertices = backend_->num_vertices();
    welcome.page_bytes = backend_->page_bytes();
    // Read the server's own immutable copy, not scheduler_.options():
    // the scheduler is sched_mu_-guarded and this runs on an I/O
    // thread without the lock (found by the thread-safety audit — the
    // read was benign, the discipline violation was not).
    welcome.max_batch_queries = static_cast<uint32_t>(
        options_.scheduler.max_batch_queries);
    OutFrame frame;
    AppendWelcome(&frame.bytes, welcome);
    session->Push(std::move(frame));
    session->handshaken = true;
    return;
  }

  switch (type) {
    case FrameType::kQueryBatch: {
      PendingRequest request;
      request.session_id = session->id;
      const Status st =
          ParseQueryBatch(payload, &request.request_id, &request.boxes,
                          &request.epoch, &request.client_span_id);
      if (!st.ok()) {
        metrics_.malformed_frames += 1;
        SendError(session, ErrorCode::kMalformedFrame, 0, st.message(),
                  true);
        return;
      }
      metrics_.queries_received += request.boxes.size();
      request.arrival_nanos = NowNanos();
      const size_t num_queries = request.boxes.size();
      const uint64_t request_id = request.request_id;

      // Admission happens under the scheduler lock — which the
      // scheduler thread holds for the whole of a batch execution, so
      // (exactly like the old single loop, where execution blocked the
      // loop) the pending queue cannot grow past its window while a
      // batch runs.
      enum class Verdict : uint8_t {
        kAdmitted,
        kEmptyInline,
        kOverloaded,
        kShuttingDown,
      };
      Verdict verdict;
      {
        common::MutexLock lock(sched_mu_);
        if (sched_closed_) {
          // The scheduler already drained and exited; nothing would
          // ever execute this request.
          verdict = Verdict::kShuttingDown;
        } else if (request.epoch == 0 && request.boxes.empty()) {
          // Every other request queues, whatever its epoch, under the
          // one backlog bound; an empty historical one still has its
          // epoch checked at execution.
          verdict = Verdict::kEmptyInline;
        } else if (scheduler_.Enqueue(std::move(request))) {
          session->inflight += 1;
          verdict = Verdict::kAdmitted;
        } else {
          verdict = Verdict::kOverloaded;
        }
      }
      switch (verdict) {
        case Verdict::kAdmitted:
          sched_cv_.NotifyOne();
          return;
        case Verdict::kEmptyInline: {
          // Nothing to coalesce: answer an empty batch immediately —
          // still epoch-stamped (every RESULT carries the epoch, even
          // a trivially consistent one).
          BatchStatsWire empty;
          empty.epoch = backend_->CurrentEpoch();
          OutFrame frame;
          AppendResult(&frame.bytes, request_id, empty, {});
          session->Push(std::move(frame));
          metrics_.results_sent += 1;
          metrics_.request_latency.Record(0);
          return;
        }
        case Verdict::kOverloaded: {
          metrics_.queries_rejected += num_queries;
          Journal(obs::EventKind::kOverloadRejected, 0, session->id,
                  request_id, num_queries);
          // options_.scheduler, not scheduler_.options(): this runs
          // after the locked block released sched_mu_.
          SendError(session, ErrorCode::kOverloaded, request_id,
                    "pending-query limit of " +
                        std::to_string(
                            options_.scheduler.max_pending_queries) +
                        " reached; retry later",
                    /*close_connection=*/false);
          return;
        }
        case Verdict::kShuttingDown:
          SendError(session, ErrorCode::kShuttingDown, request_id,
                    "server is shutting down",
                    /*close_connection=*/false);
          return;
      }
      return;
    }
    case FrameType::kStatsRequest: {
      if (!payload.empty()) {
        metrics_.malformed_frames += 1;
        SendError(session, ErrorCode::kMalformedFrame, 0,
                  "STATS_REQUEST payload must be empty", true);
        return;
      }
      StatsWire stats;
      EmitMetrics(ReadMetricsSource(), nullptr, &stats);
      OutFrame frame;
      AppendStats(&frame.bytes, stats);
      session->Push(std::move(frame));
      return;
    }
    case FrameType::kStep: {
      StepFrame step;
      const Status st = ParseStep(payload, &step);
      if (!st.ok()) {
        metrics_.malformed_frames += 1;
        SendError(session, ErrorCode::kMalformedFrame, 0, st.message(),
                  true);
        return;
      }
      if (step.steps > 0 && !backend_->dynamic()) {
        SendError(session, ErrorCode::kUnexpectedFrame, 0,
                  "STEP with steps > 0 requires a bound deformer "
                  "(serve --deform)",
                  true);
        return;
      }
      // Applied inline on the I/O thread: a control-plane verb, cheap
      // relative to the batches it interleaves with (steps normally
      // come from the --step-every stepper thread instead; the
      // backend's step path is internally synchronized).
      for (uint32_t i = 0; i < step.steps; ++i) backend_->AdvanceStep();
      // The steps themselves were this session's activity: a large
      // STEP must not eat into its own idle budget.
      session->last_activity_nanos = NowNanos();
      AppendCurrentEpochInfo(session, backend_->CurrentEpoch());
      return;
    }
    case FrameType::kPinEpoch:
    case FrameType::kUnpinEpoch: {
      PinEpochFrame pin;
      const Status st = ParsePinEpoch(payload, &pin);
      if (!st.ok()) {
        metrics_.malformed_frames += 1;
        SendError(session, ErrorCode::kMalformedFrame, 0, st.message(),
                  true);
        return;
      }
      if (type == FrameType::kPinEpoch) {
        auto pinned = backend_->PinEpoch(pin.epoch);
        if (!pinned.ok()) {
          SendError(session, ErrorCode::kEpochGone, 0,
                    pinned.status().message(),
                    /*close_connection=*/false);
          return;
        }
        const uint32_t count =
            (session->pinned_epochs[pinned.Value().epoch] += 1);
        session_pins_.fetch_add(1, std::memory_order_relaxed);
        Journal(obs::EventKind::kEpochPinned, pinned.Value().epoch,
                session->id, count);
        AppendCurrentEpochInfo(session, pinned.Value());
        return;
      }
      // UNPIN: only pins this session actually holds may be released —
      // one session must not be able to strip another's exemptions.
      auto it = session->pinned_epochs.find(pin.epoch);
      if (it == session->pinned_epochs.end()) {
        SendError(session, ErrorCode::kEpochGone, 0,
                  "epoch " + std::to_string(pin.epoch) +
                      " is not pinned by this session",
                  /*close_connection=*/false);
        return;
      }
      const Status unpinned = backend_->UnpinEpoch(pin.epoch);
      const uint32_t left = --it->second;
      session_pins_.fetch_sub(1, std::memory_order_relaxed);
      Journal(obs::EventKind::kEpochUnpinned, pin.epoch, session->id, left);
      if (left == 0) session->pinned_epochs.erase(it);
      if (!unpinned.ok()) {
        SendError(session, ErrorCode::kEpochGone, 0,
                  unpinned.message(), /*close_connection=*/false);
        return;
      }
      // Answered with the *current* epoch (the released one may have
      // been evicted by the release itself).
      AppendCurrentEpochInfo(session, backend_->CurrentEpoch());
      return;
    }
    case FrameType::kTraceDumpRequest: {
      if (!payload.empty()) {
        metrics_.malformed_frames += 1;
        SendError(session, ErrorCode::kMalformedFrame, 0,
                  "TRACE_DUMP_REQUEST payload must be empty", true);
        return;
      }
      TraceDumpWire dump;
      dump.total_recorded = recorder_.total_recorded();
      recorder_.Snapshot(&dump.records);
      // An absurdly large ring must not produce an unsendable frame:
      // keep the newest records that fit under the payload cap
      // (`total_recorded` still reports the lifetime count).
      const size_t max_records =
          (kMaxFramePayloadBytes - 16) / kTraceRecordBytes;
      if (dump.records.size() > max_records) {
        dump.records.erase(
            dump.records.begin(),
            dump.records.end() - static_cast<ptrdiff_t>(max_records));
      }
      OutFrame frame;
      AppendTraceDump(&frame.bytes, dump);
      session->Push(std::move(frame));
      return;
    }
    default:
      SendError(session, ErrorCode::kUnexpectedFrame, 0,
                "frame type not valid from a client in this state", true);
      return;
  }
}

void QueryServer::AppendCurrentEpochInfo(Session* session,
                                         engine::EpochInfo epoch) {
  EpochInfoWire info;
  info.epoch = epoch.epoch;
  info.step = epoch.step;
  info.dynamic = backend_->dynamic() ? 1 : 0;
  info.deformer_kind = static_cast<uint8_t>(backend_->deformer_kind());
  info.last_step_pages_rewritten = backend_->last_step_pages_rewritten();
  OutFrame frame;
  AppendEpochInfo(&frame.bytes, info);
  session->Push(std::move(frame));
}

void QueryServer::SendError(Session* session, ErrorCode code,
                            uint64_t request_id, const std::string& message,
                            bool close_connection) {
  ErrorFrame error;
  error.code = code;
  error.request_id = request_id;
  error.message = message;
  OutFrame frame;
  AppendError(&frame.bytes, error);
  session->Push(std::move(frame));
  metrics_.errors_sent += 1;
  if (close_connection) session->close_after_flush = true;
}

int64_t QueryServer::EnforceIdleDeadlines(IoThread& io, int64_t now_nanos) {
  if (options_.idle_timeout_nanos <= 0) return -1;
  int64_t next_in = -1;
  for (auto& [id, session] : io.sessions) {
    // A session already condemned, half-closed, or waiting on a result
    // we owe it is not idling at our expense.
    if (session->close_after_flush || session->read_closed ||
        session->inflight > 0) {
      continue;
    }
    const int64_t deadline =
        session->last_activity_nanos + options_.idle_timeout_nanos;
    if (deadline <= now_nanos) {
      SendError(session.get(), ErrorCode::kTimeout, 0,
                session->handshaken
                    ? "idle timeout: no frames received"
                    : "handshake timeout: no HELLO received",
                /*close_connection=*/true);
    } else if (next_in < 0 || deadline - now_nanos < next_in) {
      next_in = deadline - now_nanos;
    }
  }
  return next_in;
}

void QueryServer::FlushSession(IoThread& io, Session* session) {
  while (session->WantsWrite()) {
    struct iovec iov[kMaxIov];
    int iov_count = 0;
    size_t offset = session->out_offset;
    for (const OutFrame& frame : session->out) {
      iov_count += BuildFrameIov(frame, offset, iov + iov_count,
                                 kMaxIov - iov_count);
      offset = 0;  // only the front frame is partially sent
      if (iov_count >= kMaxIov) break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iov_count);
    const ssize_t n = sendmsg(session->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      session->out_bytes -= static_cast<size_t>(n);
      session->out_offset += static_cast<size_t>(n);
      // Retire fully sent frames (this is where zero-copy result
      // vectors finally free).
      while (!session->out.empty() &&
             session->out_offset >= session->out.front().WireBytes()) {
        session->out_offset -= session->out.front().WireBytes();
        session->out.pop_front();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    io.closed_scratch.push_back(session->id);
    return;
  }
  session->out_offset = 0;
  if (session->close_after_flush ||
      (session->read_closed && session->inflight == 0)) {
    io.closed_scratch.push_back(session->id);
  }
}

void QueryServer::UpdateInterest(IoThread& io, Session* session) {
  uint32_t want = 0;
  // Backpressure: stop reading (and thus admitting) from a session
  // whose responses it is not consuming.
  if (!session->close_after_flush && !session->read_closed &&
      session->out_bytes < options_.max_session_out_bytes) {
    want |= EPOLLIN;
  }
  if (session->WantsWrite()) want |= EPOLLOUT;
  if (want == session->epoll_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = session->fd;
  if (epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, session->fd, &ev) == 0) {
    session->epoll_events = want;
  }
}

void QueryServer::CloseSession(IoThread& io, uint64_t session_id) {
  auto it = io.sessions.find(session_id);
  if (it == io.sessions.end()) return;
  {
    common::MutexLock lock(sched_mu_);
    scheduler_.DropSession(session_id);
  }
  // A dead session's pins die with it: release every count so the
  // epochs it was holding become evictable again.
  uint64_t pins_released = 0;
  for (const auto& [epoch, count] : it->second->pinned_epochs) {
    for (uint32_t i = 0; i < count; ++i) {
      // Best effort — the epoch may already be gone for other reasons.
      (void)backend_->UnpinEpoch(epoch);
      ++pins_released;
    }
  }
  if (pins_released > 0) {
    session_pins_.fetch_sub(pins_released, std::memory_order_relaxed);
  }
  epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, it->second->fd, nullptr);
  close(it->second->fd);
  io.by_fd.erase(it->second->fd);
  io.sessions.erase(it);
  {
    common::MutexLock lock(owner_mu_);
    owner_.erase(session_id);
  }
  metrics_.connections_closed += 1;
  const uint64_t left =
      active_sessions_.fetch_sub(1, std::memory_order_relaxed) - 1;
  Journal(obs::EventKind::kSessionClosed, 0, session_id, left,
          pins_released);
  // The main thread may be parked at the connection cap waiting for a
  // free slot.
  WakeMain();
}

void QueryServer::ProcessClosures(IoThread& io) {
  for (const uint64_t id : io.closed_scratch) CloseSession(io, id);
  io.closed_scratch.clear();
}

void QueryServer::DrainIoThread(IoThread& io) {
  // Typed goodbye: every surviving session learns WHY the connection
  // is about to close (after any results it is owed, which are already
  // in its buffer) instead of observing a silent EOF. Frames a peer
  // sends from here on are never read, exactly as before.
  for (auto& [id, session] : io.sessions) {
    if (session->close_after_flush) continue;  // already condemned, typed
    ErrorFrame error;
    error.code = ErrorCode::kShuttingDown;
    error.message = "server is shutting down";
    OutFrame frame;
    AppendError(&frame.bytes, error);
    session->Push(std::move(frame));
    metrics_.errors_sent += 1;
  }

  // Bounded flush of buffered responses. Condemned and half-closed
  // sessions close as they drain; healthy ones stay open for the main
  // thread to close after kDrainEnded (matching the old loop's journal
  // order).
  const int64_t deadline = NowNanos() + options_.drain_timeout_nanos;
  std::vector<pollfd> fds;
  while (NowNanos() < deadline) {
    for (auto& [id, session] : io.sessions) {
      FlushSession(io, session.get());
    }
    ProcessClosures(io);
    fds.clear();
    for (auto& [id, session] : io.sessions) {
      if (session->WantsWrite()) fds.push_back({session->fd, POLLOUT, 0});
    }
    if (fds.empty()) break;
    const int64_t left_ms = (deadline - NowNanos()) / 1'000'000;
    if (poll(fds.data(), fds.size(), static_cast<int>(left_ms) + 1) < 0 &&
        errno != EINTR) {
      break;
    }
  }
}

void QueryServer::SchedulerLoop() {
  common::MutexLock lock(sched_mu_);
  std::vector<CompletedRequest> completed;
  for (;;) {
    const int64_t now = NowNanos();
    if (scheduler_.HasPending() &&
        (drain_requested_ || scheduler_.ShouldExecute(now))) {
      // Coalescing point. The lock is held across execution on
      // purpose: admission blocks while a batch runs (the old loop's
      // behavior), so the backlog cannot grow past its window
      // mid-batch. During a drain the window is ignored — accepted
      // requests get answers even across a shutdown.
      completed.clear();
      scheduler_.ExecuteReady(backend_.get(), &completed, &metrics_,
                              NowNanos());
      for (CompletedRequest& done : completed) {
        SerTask task;
        task.kind = SerTask::Kind::kResult;
        task.done = std::move(done);
        EnqueueSerTask(std::move(task));
      }
      continue;
    }
    if (drain_requested_) {
      // Everything executed. Tell admission we are gone, then send the
      // drain token down the serializer so it reaches the I/O threads
      // strictly after every result above.
      sched_closed_ = true;
      SerTask token;
      token.kind = SerTask::Kind::kDrain;
      EnqueueSerTask(std::move(token));
      return;
    }
    const int64_t due = scheduler_.NanosUntilDue(now);
    if (due < 0) {
      sched_cv_.Wait(sched_mu_);
    } else {
      sched_cv_.WaitFor(sched_mu_, std::chrono::nanoseconds(due));
    }
  }
}

void QueryServer::EnqueueSerTask(SerTask task) {
  {
    common::MutexLock lock(ser_mu_);
    ser_tasks_.push_back(std::move(task));
  }
  ser_cv_.NotifyOne();
}

void QueryServer::SerializerLoop() {
  for (;;) {
    SerTask task;
    {
      common::MutexLock lock(ser_mu_);
      // Explicit predicate loop: a lambda predicate would hide the
      // guarded read from the thread-safety analysis.
      while (ser_tasks_.empty()) ser_cv_.Wait(ser_mu_);
      task = std::move(ser_tasks_.front());
      ser_tasks_.pop_front();
    }
    switch (task.kind) {
      case SerTask::Kind::kResult:
        DeliverCompleted(std::move(task.done));
        break;
      case SerTask::Kind::kDrain: {
        // FIFO all the way down: every frame enqueued before this
        // token has already been posted to its I/O thread's inbox, so
        // forwarding the token now guarantees each thread sees its
        // results before it begins its goodbye flush.
        for (auto& io : io_) {
          IoThread::Msg msg;
          msg.kind = IoThread::Msg::Kind::kDrain;
          io->Post(std::move(msg));
        }
        return;
      }
    }
  }
}

void QueryServer::DeliverCompleted(CompletedRequest done) {
  {
    // Client left mid-flight: skip the delivery counters entirely,
    // exactly like the old loop's sessions_ lookup.
    common::MutexLock lock(owner_mu_);
    if (owner_.find(done.session_id) == owner_.end()) return;
  }
  if (!done.status.ok()) {
    // The batch's epoch is gone: a request-scoped error, not a RESULT.
    ErrorFrame error;
    error.code = ErrorCode::kEpochGone;
    error.request_id = done.request_id;
    error.message = done.status.message();
    OutFrame frame;
    AppendError(&frame.bytes, error);
    metrics_.errors_sent += 1;
    DispatchOutbound(done.session_id, std::move(frame), true);
    return;
  }
  const int64_t done_at = NowNanos();
  // The trace id this delivery WILL record under (0 = tracing off),
  // reserved up front so the RESULT frame can carry it while the
  // record itself still prices the serialization it is part of.
  // Nothing else records in between — this serialization thread is the
  // recorder's only writer.
  BatchStatsWire stats = done.stats;
  stats.trace_id = recorder_.ReserveId();
  const auto num_queries = static_cast<uint32_t>(done.per_query.size());
  uint64_t vertices = 0;
  for (const auto& q : done.per_query) vertices += q.size();

  OutFrame frame;
  int64_t serialize_nanos = 0;
  if (ResultPayloadBytes(done.per_query) > kMaxFramePayloadBytes) {
    // The result set cannot travel in one frame: answer with a typed,
    // request-scoped error instead of desynchronizing the stream.
    ErrorFrame error;
    error.code = ErrorCode::kInternal;
    error.request_id = done.request_id;
    error.message = "result set exceeds the " +
                    std::to_string(kMaxFramePayloadBytes) +
                    "-byte frame cap; split the query batch";
    AppendError(&frame.bytes, error);
    metrics_.errors_sent += 1;
  } else {
    Timer timer;
    // Encode only header + stats + count words; the id vectors ride the
    // frame by move and hit the socket as iovec segments. Raw
    // `std::vector<VertexId>` bytes are the wire format (little-endian
    // u32 ids) only on a matching host.
    static_assert(std::endian::native == std::endian::little &&
                      sizeof(VertexId) == 4,
                  "zero-copy RESULT ids need a little-endian host and "
                  "32-bit vertex ids");
    AppendResultMeta(&frame.bytes, done.request_id, stats, done.per_query);
    frame.vecs = std::move(done.per_query);
    // Clamped ≥ 1: the meta-only encode can beat the clock tick, and a
    // recorded serialization took nonzero time by definition.
    serialize_nanos = std::max<int64_t>(timer.ElapsedNanos(), 1);
    metrics_.results_sent += 1;
  }
  metrics_.serialize_nanos_total += serialize_nanos;
  metrics_.request_latency.Record(
      static_cast<uint64_t>(done_at - done.arrival_nanos));

  // Flight recorder + slow-query promotion. The record is built only
  // when someone will consume it; with tracing off and no threshold
  // this is one predictable branch per delivery.
  const int64_t total_nanos =
      done_at - done.arrival_nanos + serialize_nanos;
  const bool slow = options_.slow_query_nanos > 0 &&
                    total_nanos >= options_.slow_query_nanos;
  if (recorder_.enabled() || slow) {
    obs::QueryTraceRecord rec;
    rec.session_id = done.session_id;
    rec.request_id = done.request_id;
    rec.epoch = done.stats.epoch.epoch;
    rec.epoch_step = done.stats.epoch.step;
    rec.queries = num_queries;
    rec.batch_queries = done.stats.batch_queries;
    rec.batch_requests = done.stats.batch_requests;
    rec.arrival_nanos = done.arrival_nanos;
    rec.queue_wait_nanos =
        done.dispatch_nanos > done.arrival_nanos
            ? done.dispatch_nanos - done.arrival_nanos
            : 0;
    rec.probe_nanos = done.stats.probe_nanos;
    rec.walk_nanos = done.stats.walk_nanos;
    rec.crawl_nanos = done.stats.crawl_nanos;
    rec.merge_nanos = done.stats.merge_nanos;
    rec.serialize_nanos = serialize_nanos;
    rec.total_nanos = total_nanos;
    rec.page_accesses = done.stats.page_hits + done.stats.page_misses;
    rec.lease_hits = done.stats.lease_hits;
    rec.result_vertices = vertices;
    rec.trace_id = recorder_.Record(rec);
    if (slow) {
      metrics_.slow_queries += 1;
      // One structured line per slow request (key=value, greppable;
      // format documented in docs/OBSERVABILITY.md).
      std::fprintf(
          stderr,
          "slow_query trace_id=%llu client_span=%llu session=%llu "
          "request=%llu epoch=%llu step=%u queries=%u batch_queries=%u "
          "batch_requests=%u queue_wait_ms=%.3f probe_ms=%.3f "
          "walk_ms=%.3f crawl_ms=%.3f merge_ms=%.3f serialize_ms=%.3f "
          "total_ms=%.3f page_accesses=%llu lease_hits=%llu "
          "result_vertices=%llu\n",
          static_cast<unsigned long long>(rec.trace_id),
          static_cast<unsigned long long>(done.client_span_id),
          static_cast<unsigned long long>(rec.session_id),
          static_cast<unsigned long long>(rec.request_id),
          static_cast<unsigned long long>(rec.epoch), rec.epoch_step,
          rec.queries, rec.batch_queries, rec.batch_requests,
          rec.queue_wait_nanos / 1e6, rec.probe_nanos / 1e6,
          rec.walk_nanos / 1e6, rec.crawl_nanos / 1e6,
          rec.merge_nanos / 1e6, rec.serialize_nanos / 1e6,
          rec.total_nanos / 1e6,
          static_cast<unsigned long long>(rec.page_accesses),
          static_cast<unsigned long long>(rec.lease_hits),
          static_cast<unsigned long long>(rec.result_vertices));
    }
  }
  DispatchOutbound(done.session_id, std::move(frame), true);
}

void QueryServer::DispatchOutbound(uint64_t session_id, OutFrame frame,
                                   bool completes_request) {
  uint32_t owner = 0;
  {
    common::MutexLock lock(owner_mu_);
    auto it = owner_.find(session_id);
    if (it == owner_.end()) return;  // session closed; drop the frame
    owner = it->second;
  }
  IoThread::Msg msg;
  msg.kind = IoThread::Msg::Kind::kFrame;
  msg.session_id = session_id;
  msg.frame = std::move(frame);
  msg.completes_request = completes_request;
  io_[owner]->Post(std::move(msg));
}

void QueryServer::DrainAndClose() {
  close(listen_fd_);
  listen_fd_ = -1;
  Journal(obs::EventKind::kDrainBegan, 0, 0,
          active_sessions_.load(std::memory_order_relaxed));

  // Stage the shutdown down the pipeline, in data order: the scheduler
  // executes everything still pending (window ignored) and emits a
  // drain token; the serializer forwards it behind the last result;
  // each I/O thread then says its typed goodbyes and flushes.
  {
    common::MutexLock lock(sched_mu_);
    drain_requested_ = true;
  }
  sched_cv_.NotifyAll();
  if (sched_thread_.joinable()) sched_thread_.join();
  if (ser_thread_.joinable()) ser_thread_.join();
  for (auto& io : io_) {
    if (io->thread.joinable()) io->thread.join();
  }

  // Whatever is left did not drain in time: count the sessions whose
  // buffered output we are about to drop as force-closed.
  uint64_t forced = 0;
  for (const auto& io : io_) {
    for (const auto& [id, session] : io->sessions) {
      if (session->WantsWrite()) ++forced;
    }
  }
  Journal(obs::EventKind::kDrainEnded, 0, 0,
          active_sessions_.load(std::memory_order_relaxed), forced);
  for (auto& io : io_) {
    std::vector<uint64_t> ids;
    ids.reserve(io->sessions.size());
    for (const auto& [id, session] : io->sessions) ids.push_back(id);
    for (const uint64_t id : ids) CloseSession(*io, id);
  }
}

ServerMetrics QueryServer::MetricsSnapshot() const {
  ServerMetrics snapshot = metrics_;
  for (const auto& io : io_) snapshot.loop_stall.Merge(io->stall);
  return snapshot;
}

}  // namespace octopus::server
