// Copyright 2026 The OCTOPUS Reproduction Authors
#include "client/remote_client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace octopus::client {
namespace {

using server::Buffer;
using server::ErrorCode;
using server::FrameType;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<std::unique_ptr<RemoteClient>> RemoteClient::Connect(
    const std::string& host, uint16_t port, const Options& options) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                             &resolved);
  if (rc != 0) {
    return Status::IOError("resolve " + host + ": " + gai_strerror(rc));
  }

  int fd = -1;
  Status last = Status::IOError("no addresses for " + host);
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Errno("connect " + host + ":" + port_str);
    close(fd);
    fd = -1;
  }
  freeaddrinfo(resolved);
  if (fd < 0) return last;

  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options.io_timeout_nanos > 0) {
    timeval tv{};
    tv.tv_sec = options.io_timeout_nanos / 1'000'000'000;
    tv.tv_usec = (options.io_timeout_nanos % 1'000'000'000) / 1'000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }

  std::unique_ptr<RemoteClient> client(new RemoteClient(fd));
  Buffer hello;
  server::AppendHello(&hello, server::HelloFrame{});
  OCTOPUS_RETURN_NOT_OK(client->SendAll(hello));

  FrameType type;
  Buffer payload;
  OCTOPUS_RETURN_NOT_OK(client->ReadFrame(&type, &payload));
  if (type == FrameType::kError) {
    server::ErrorFrame error;
    OCTOPUS_RETURN_NOT_OK(server::ParseError(payload, &error));
    return client->StatusFromError(error);
  }
  if (type != FrameType::kWelcome) {
    return Status::IOError("handshake: expected WELCOME frame");
  }
  OCTOPUS_RETURN_NOT_OK(server::ParseWelcome(payload, &client->welcome_));
  if (client->welcome_.version != server::kProtocolVersion) {
    return Status::IOError("server protocol version " +
                           std::to_string(client->welcome_.version) +
                           " unsupported");
  }
  return client;
}

RemoteClient::~RemoteClient() { Close(); }

void RemoteClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status RemoteClient::SendAll(const Buffer& data) {
  if (fd_ < 0) return Status::IOError("connection closed");
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Close();
    return Errno("send");
  }
  return Status::OK();
}

Status RemoteClient::ReadFrame(FrameType* type, Buffer* payload,
                               int64_t* first_byte_nanos) {
  if (fd_ < 0) return Status::IOError("connection closed");
  uint8_t header[server::kFrameHeaderBytes];
  size_t have = 0;
  while (have < sizeof(header)) {
    const ssize_t n = recv(fd_, header + have, sizeof(header) - have, 0);
    if (n > 0) {
      if (have == 0 && first_byte_nanos != nullptr) {
        *first_byte_nanos = SteadyNanos();
      }
      have += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Close();
    return n == 0 ? Status::IOError("connection closed by server")
                  : Errno("recv");
  }
  auto parsed = server::ParseFrameHeader(header);
  if (!parsed.ok()) {
    Close();
    return parsed.status();
  }
  *type = parsed.Value().type;
  payload->resize(parsed.Value().payload_bytes);
  have = 0;
  while (have < payload->size()) {
    const ssize_t n =
        recv(fd_, payload->data() + have, payload->size() - have, 0);
    if (n > 0) {
      have += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Close();
    return n == 0 ? Status::IOError("connection closed mid-frame")
                  : Errno("recv");
  }
  return Status::OK();
}

Status RemoteClient::StatusFromError(const server::ErrorFrame& error) {
  const std::string text = std::string("server error ") +
                           server::ErrorCodeName(error.code) + ": " +
                           error.message;
  if (error.code == ErrorCode::kOverloaded) {
    // Request-scoped rejection: the connection remains usable.
    return Status::ResourceExhausted(text);
  }
  if (error.code == ErrorCode::kInternal) {
    // Also request-scoped (e.g. a result set over the frame cap): the
    // stream stays framed, so keep the connection.
    return Status::IOError(text);
  }
  if (error.code == ErrorCode::kEpochGone) {
    // Request-scoped: the epoch fell out of the bounded history (or was
    // never pinned); current-epoch queries on this connection still
    // work.
    return Status::NotFound(text);
  }
  Close();
  switch (error.code) {
    case ErrorCode::kBadMagic:
    case ErrorCode::kVersionMismatch:
    case ErrorCode::kMalformedFrame:
    case ErrorCode::kFrameTooLarge:
    case ErrorCode::kUnexpectedFrame:
      return Status::InvalidArgument(text);
    case ErrorCode::kShuttingDown:
    case ErrorCode::kTimeout:
      return Status::ResourceExhausted(text);
    default:
      return Status::IOError(text);
  }
}

Result<RemoteBatchResult> RemoteClient::ExecuteBatch(
    std::span<const AABB> boxes, uint64_t epoch) {
  const uint64_t request_id = next_request_id_++;
  const uint64_t span_id = record_spans_ ? next_span_id_++ : 0;
  const int64_t start_wall = record_spans_ ? WallNanos() : 0;
  const int64_t call_start = record_spans_ ? SteadyNanos() : 0;
  Buffer out;
  server::AppendQueryBatch(&out, request_id, boxes, epoch, span_id);
  OCTOPUS_RETURN_NOT_OK(SendAll(out));
  const int64_t sent_at = record_spans_ ? SteadyNanos() : 0;

  // Responses to a blocking client arrive in request order; skip
  // nothing, but verify the id actually matches.
  FrameType type;
  Buffer payload;
  int64_t first_byte_at = 0;
  OCTOPUS_RETURN_NOT_OK(
      ReadFrame(&type, &payload,
                record_spans_ ? &first_byte_at : nullptr));
  if (type == FrameType::kError) {
    server::ErrorFrame error;
    OCTOPUS_RETURN_NOT_OK(server::ParseError(payload, &error));
    return StatusFromError(error);
  }
  if (type != FrameType::kResult) {
    Close();
    return Status::IOError("expected RESULT frame");
  }
  uint64_t got_id = 0;
  RemoteBatchResult result;
  std::vector<std::vector<VertexId>> per_query;
  OCTOPUS_RETURN_NOT_OK(
      server::ParseResult(payload, &got_id, &result.stats, &per_query));
  if (got_id != request_id) {
    Close();
    return Status::IOError("RESULT for request " + std::to_string(got_id) +
                           ", expected " + std::to_string(request_id));
  }
  if (per_query.size() != boxes.size()) {
    Close();
    return Status::IOError("RESULT query count mismatch");
  }
  result.results.per_query = std::move(per_query);
  result.results.epoch = result.stats.epoch;
  if (record_spans_) {
    const int64_t done_at = SteadyNanos();
    // A response so small the kernel delivered it whole can make the
    // first-byte stamp and the completion stamp collapse; the split is
    // then simply zero receive time, never negative.
    if (first_byte_at < sent_at) first_byte_at = sent_at;
    obs::ClientCallSpan span;
    span.span_id = span_id;
    span.request_id = request_id;
    span.server_trace_id = result.stats.trace_id;
    span.start_unix_nanos = start_wall;
    span.send_nanos = sent_at - call_start;
    span.wait_nanos = first_byte_at - sent_at;
    span.recv_nanos = done_at - first_byte_at;
    span.queries = boxes.size();
    span.epoch = epoch;
    spans_.push_back(span);
  }
  return result;
}

Result<server::EpochInfoWire> RemoteClient::RoundTripEpochInfo(
    const Buffer& request) {
  OCTOPUS_RETURN_NOT_OK(SendAll(request));
  FrameType type;
  Buffer payload;
  OCTOPUS_RETURN_NOT_OK(ReadFrame(&type, &payload));
  if (type == FrameType::kError) {
    server::ErrorFrame error;
    OCTOPUS_RETURN_NOT_OK(server::ParseError(payload, &error));
    return StatusFromError(error);
  }
  if (type != FrameType::kEpochInfo) {
    Close();
    return Status::IOError("expected EPOCH_INFO frame");
  }
  server::EpochInfoWire info;
  OCTOPUS_RETURN_NOT_OK(server::ParseEpochInfo(payload, &info));
  return info;
}

Result<server::EpochInfoWire> RemoteClient::Step(uint32_t steps) {
  if (steps > server::kMaxStepsPerFrame) {
    // Statically detectable: fail locally instead of letting the
    // server reject the frame as malformed and close the connection.
    return Status::InvalidArgument(
        "steps exceeds the per-frame cap of " +
        std::to_string(server::kMaxStepsPerFrame) +
        "; send multiple STEP frames");
  }
  Buffer out;
  server::AppendStep(&out, server::StepFrame{steps});
  return RoundTripEpochInfo(out);
}

Result<server::EpochInfoWire> RemoteClient::PinEpoch(uint64_t epoch) {
  Buffer out;
  server::AppendPinEpoch(&out, server::PinEpochFrame{epoch});
  return RoundTripEpochInfo(out);
}

Result<server::EpochInfoWire> RemoteClient::UnpinEpoch(uint64_t epoch) {
  Buffer out;
  server::AppendUnpinEpoch(&out, server::PinEpochFrame{epoch});
  return RoundTripEpochInfo(out);
}

Result<server::StatsWire> RemoteClient::FetchStats() {
  Buffer out;
  server::AppendStatsRequest(&out);
  OCTOPUS_RETURN_NOT_OK(SendAll(out));
  FrameType type;
  Buffer payload;
  OCTOPUS_RETURN_NOT_OK(ReadFrame(&type, &payload));
  if (type == FrameType::kError) {
    server::ErrorFrame error;
    OCTOPUS_RETURN_NOT_OK(server::ParseError(payload, &error));
    return StatusFromError(error);
  }
  if (type != FrameType::kStats) {
    Close();
    return Status::IOError("expected STATS frame");
  }
  server::StatsWire stats;
  OCTOPUS_RETURN_NOT_OK(server::ParseStats(payload, &stats));
  return stats;
}

Result<server::TraceDumpWire> RemoteClient::FetchTraceDump() {
  Buffer out;
  server::AppendTraceDumpRequest(&out);
  OCTOPUS_RETURN_NOT_OK(SendAll(out));
  FrameType type;
  Buffer payload;
  OCTOPUS_RETURN_NOT_OK(ReadFrame(&type, &payload));
  if (type == FrameType::kError) {
    server::ErrorFrame error;
    OCTOPUS_RETURN_NOT_OK(server::ParseError(payload, &error));
    return StatusFromError(error);
  }
  if (type != FrameType::kTraceDump) {
    Close();
    return Status::IOError("expected TRACE_DUMP frame");
  }
  server::TraceDumpWire dump;
  OCTOPUS_RETURN_NOT_OK(server::ParseTraceDump(payload, &dump));
  return dump;
}

}  // namespace octopus::client
