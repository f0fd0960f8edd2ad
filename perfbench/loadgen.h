// Loopback load generator speaking the tsunami frame codec directly
// (AppendFrame / ParseFrameHeader / Decode*Payload): TsunamiClient::Await
// blocks, which an open-loop sender cannot afford.
//
// A Generator runs on one thread and owns a few Streams, one connection each.
// A paced stream sends each request at its due time whatever the replies
// do (open loop); a closed stream keeps `depth` requests outstanding until
// its end time (closed loop, pipelined). Every request becomes a Sample
// indexed by its request_id, holding the due/send/receive times and the
// decoded answer; answers are checked after the run.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/trace.h"
#include "src/net/wire.h"

namespace perfbench {

enum class Kind : uint8_t { kQuery, kInsert };

enum class Status : uint8_t {
  kPending = 0,  // No reply (yet).
  kOk,           // kResult with kCompleted, or kInsertAck.
  kErrorFrame,   // Typed kError reply (refused or failed).
  kBadOutcome,   // kResult whose outcome is not kCompleted.
  kBadReply,     // Undecodable reply, or the wrong frame type.
};

struct Sample {
  int64_t due_ns = 0;   // Paced: schedule time. Closed: = send_ns.
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  uint32_t item = 0;    // Query-pool index or insert-batch index.
  Status status = Status::kPending;
  tsunami::net::WireError error = tsunami::net::WireError::kNone;
  double server_s = 0;  // kResult: the server's admission->completion time.
  int64_t agg = 0;      // Query: the COUNT. Insert: rows accepted.
  int64_t matched = 0;
  /// Query only: insert replies received before it was sent, and insert
  /// frames sent before its reply arrived. Insert batches are consumed in
  /// one global order on one connection at a time, so these are prefixes
  /// of that order and bound which batches the answer may include.
  int64_t inserts_done_at_send = 0;
  int64_t inserts_sent_at_recv = 0;
};

/// State shared by every Generator of a run.
struct Shared {
  const std::vector<std::string>* query_payloads = nullptr;
  const std::vector<uint64_t>* query_fingerprints = nullptr;
  const std::vector<std::string>* insert_payloads = nullptr;
  std::atomic<int64_t> inserts_sent{0};
  std::atomic<int64_t> inserts_done{0};
  Tracer* tracer = nullptr;  // Spans recorded only while tracer->on().
};

struct Stream {
  Kind kind = Kind::kQuery;
  /// Distinguishes this stream's requests in span ids (request_id alone
  /// repeats across connections).
  uint32_t tag = 0;
  bool paced = true;
  // Paced: send items[i] at due[i] (absolute NowNs() times).
  std::vector<int64_t> due;
  std::vector<uint32_t> items;
  // Closed: keep `depth` outstanding until end_ns; `next` yields items and
  // returns false once the source is exhausted.
  int depth = 0;
  int64_t end_ns = 0;
  std::function<bool(uint32_t*)> next;

  std::vector<Sample> samples;  // Indexed by request_id.
  bool exhausted = false;
  bool broken = false;  // Connection lost or stream desynchronized.

  // Connection state (owned by the Generator thread).
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  size_t next_paced = 0;
  int outstanding = 0;

  uint64_t RequestKey(size_t index) const {
    return (uint64_t{tag} << 32) | static_cast<uint64_t>(index);
  }
  bool DoneSending(int64_t now) const {
    if (broken) return true;
    if (paced) return next_paced >= items.size();
    return exhausted || now >= end_ns;
  }
};

/// Opens a blocking-connect, then non-blocking, TCP_NODELAY loopback
/// connection. Returns -1 on failure.
inline int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

class Generator {
 public:
  static constexpr int64_t kSpinNs = 1'000'000;

  Generator(Shared* shared, std::vector<Stream*> streams)
      : shared_(shared), streams_(std::move(streams)) {}

  /// Runs until every stream has sent everything and received every reply,
  /// or until `hard_deadline_ns` (outstanding requests then stay kPending
  /// and count as failed).
  void Run(int64_t hard_deadline_ns) {
    // 1us timer slack: the default 50us would show up as generator lateness.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    std::vector<pollfd> fds(streams_.size());
    while (true) {
      int64_t now = NowNs();
      bool done = true;
      bool paced_pending = false;
      int64_t wake = now + 2'000'000;  // Re-check at least every 2 ms.
      for (Stream* s : streams_) {
        Fill(s, now);
        Flush(s);
        if (!s->DoneSending(now)) {
          done = false;
          if (s->paced) {
            paced_pending = true;
            wake = std::min(wake, s->due[s->next_paced]);
          } else {
            wake = std::min(wake, s->end_ns);
          }
        }
        if (s->outstanding > 0 && !s->broken) done = false;
      }
      if (done || now >= hard_deadline_ns) break;
      for (size_t i = 0; i < streams_.size(); ++i) {
        Stream* s = streams_[i];
        fds[i].fd = s->broken ? -1 : s->fd;
        fds[i].events = POLLIN;
        if (s->out_off < s->out.size()) fds[i].events |= POLLOUT;
        fds[i].revents = 0;
      }
      // A paced send due within kSpinNs is waited for by polling without
      // sleeping: a sleeping thread's wake-up on a shared host is late by a
      // variable amount, which would be counted as the server's latency.
      int64_t wait_ns = std::max<int64_t>(0, wake - NowNs());
      if (wait_ns < kSpinNs && paced_pending) wait_ns = 0;
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (n <= 0) continue;
      for (size_t i = 0; i < streams_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
          Read(streams_[i]);
        }
      }
    }
  }

 private:
  void Fill(Stream* s, int64_t now) {
    if (s->broken) return;
    if (s->paced) {
      while (s->next_paced < s->items.size() &&
             s->due[s->next_paced] <= now) {
        Send(s, s->items[s->next_paced], s->due[s->next_paced]);
        ++s->next_paced;
      }
      return;
    }
    while (!s->exhausted && now < s->end_ns && s->outstanding < s->depth) {
      uint32_t item = 0;
      if (!s->next(&item)) {
        s->exhausted = true;
        break;
      }
      Send(s, item, 0);
    }
  }

  void Send(Stream* s, uint32_t item, int64_t due_ns) {
    const size_t index = s->samples.size();
    Sample& sample = s->samples.emplace_back();
    sample.item = item;
    tsunami::net::FrameHeader header;
    header.request_id = index;
    std::string_view payload;
    Tracer* tracer = shared_->tracer;
    const bool traced = tracer != nullptr && tracer->on();
    if (s->kind == Kind::kQuery) {
      header.type = tsunami::net::FrameType::kQuery;
      payload = (*shared_->query_payloads)[item];
      sample.inserts_done_at_send =
          shared_->inserts_done.load(std::memory_order_seq_cst);
      if (traced) {
        tracer->NoteQuerySent((*shared_->query_fingerprints)[item],
                              s->RequestKey(index));
      }
    } else {
      header.type = tsunami::net::FrameType::kInsert;
      payload = (*shared_->insert_payloads)[item];
      // Counted before the bytes leave: an upper bound must never miss a
      // batch the server could already have applied.
      shared_->inserts_sent.fetch_add(1, std::memory_order_seq_cst);
      if (traced) tracer->NoteInsertSent(s->RequestKey(index));
    }
    tsunami::net::AppendFrame(header, payload, &s->out);
    sample.send_ns = NowNs();
    sample.due_ns = due_ns != 0 ? due_ns : sample.send_ns;
    ++s->outstanding;
  }

  void Flush(Stream* s) {
    while (!s->broken && s->out_off < s->out.size()) {
      const ssize_t n = ::send(s->fd, s->out.data() + s->out_off,
                               s->out.size() - s->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        s->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      s->broken = true;
    }
    if (s->out_off == s->out.size()) {
      s->out.clear();
      s->out_off = 0;
    }
  }

  void Read(Stream* s) {
    char buf[64 * 1024];
    while (!s->broken) {
      const ssize_t n = ::recv(s->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        s->in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      s->broken = true;  // EOF or error: nothing more will arrive.
    }
    Parse(s, NowNs());
  }

  void Parse(Stream* s, int64_t now) {
    using tsunami::net::FrameHeader;
    using tsunami::net::FrameType;
    while (s->in.size() - s->in_off >= tsunami::net::kFrameHeaderSize) {
      const std::string_view rest =
          std::string_view(s->in).substr(s->in_off);
      FrameHeader header;
      if (tsunami::net::ParseFrameHeader(rest, &header) !=
              tsunami::net::HeaderParse::kOk ||
          header.request_id >= s->samples.size()) {
        s->broken = true;  // Stream sync lost: stop trusting this socket.
        return;
      }
      const size_t frame_len =
          tsunami::net::kFrameHeaderSize + header.payload_len;
      if (rest.size() < frame_len) break;
      const std::string_view payload =
          rest.substr(tsunami::net::kFrameHeaderSize, header.payload_len);
      Sample& sample = s->samples[header.request_id];
      sample.recv_ns = now;
      sample.status = Status::kBadReply;
      if (header.type == FrameType::kResult && s->kind == Kind::kQuery) {
        tsunami::net::ResultPayload result;
        if (tsunami::net::DecodeResultPayload(payload, &result)) {
          sample.status = result.outcome == tsunami::QueryOutcome::kCompleted
                              ? Status::kOk
                              : Status::kBadOutcome;
          sample.server_s = result.server_latency_seconds;
          sample.agg = result.result.agg;
          sample.matched = result.result.matched;
          sample.inserts_sent_at_recv =
              shared_->inserts_sent.load(std::memory_order_seq_cst);
        }
      } else if (header.type == FrameType::kInsertAck &&
                 s->kind == Kind::kInsert) {
        tsunami::net::InsertAckPayload ack;
        if (tsunami::net::DecodeInsertAckPayload(payload, &ack)) {
          sample.status = Status::kOk;
          sample.agg = ack.accepted;
        }
      } else if (header.type == FrameType::kError) {
        std::string message;
        sample.status = Status::kErrorFrame;
        if (!tsunami::net::DecodeErrorPayload(payload, &sample.error,
                                              &message)) {
          sample.status = Status::kBadReply;
        }
      }
      if (s->kind == Kind::kInsert) {
        shared_->inserts_done.fetch_add(1, std::memory_order_seq_cst);
      }
      Tracer* tracer = shared_->tracer;
      if (tracer != nullptr && tracer->on()) {
        const uint64_t request = s->RequestKey(header.request_id);
        tracer->Add(s->kind == Kind::kQuery ? "client.query" : "client.insert",
                    Tracer::ClientSpanId(request), request, 0, sample.send_ns,
                    now);
      }
      --s->outstanding;
      s->in_off += frame_len;
    }
    if (s->in_off == s->in.size()) {
      s->in.clear();
      s->in_off = 0;
    } else if (s->in_off > (1u << 20)) {
      s->in.erase(0, s->in_off);
      s->in_off = 0;
    }
  }

  Shared* shared_;
  std::vector<Stream*> streams_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
