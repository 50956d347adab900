#include "net/server.hpp"

#include <poll.h>

#include <array>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/thread_name.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/metrics.hpp"

namespace obx::net {

namespace {

using serve::Clock;

std::uint64_t us_of(Clock::duration d) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(d);
  return us.count() < 0 ? 0 : static_cast<std::uint64_t>(us.count());
}

struct Completion {
  std::uint64_t conn_id = 0;
  std::uint32_t request_id = 0;
  serve::JobResult result;
};

/// Shared between the loop thread and the service's executor threads.  Held
/// by shared_ptr from every in-flight completion callback, so completions
/// that land after the loop exits still have somewhere safe to go: they are
/// tallied as dropped instead of touching freed state.
struct Inbox {
  std::mutex mutex;
  std::vector<Completion> pending;
  bool open = true;                  ///< loop still draining?
  WakePipe* wake = nullptr;          ///< guarded by mutex; null once closed
  std::atomic<std::uint64_t> dropped_after_close{0};
  std::atomic<std::uint64_t> wakeups{0};

  /// Wakes the loop only when `pending` fills from empty: the loop swaps it
  /// out under this mutex, so a post that finds it non-empty is already
  /// owed a turn by the post that filled it.
  void post(Completion&& c) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!open) {
      dropped_after_close.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    pending.push_back(std::move(c));
    if (pending.size() == 1 && wake) {
      wake->notify();
      wakeups.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

struct Stats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_refused{0};
  std::atomic<std::uint64_t> connections_closed{0};
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> submits_received{0};
  std::atomic<std::uint64_t> submits_admitted{0};
  std::atomic<std::uint64_t> responses_sent{0};
  std::atomic<std::uint64_t> responses_dropped{0};
  std::atomic<std::uint64_t> error_responses{0};
  std::atomic<std::uint64_t> stats_requests{0};
  std::atomic<std::uint64_t> would_block{0};
  std::atomic<std::uint64_t> idle_timeouts{0};
  std::atomic<std::uint64_t> stall_timeouts{0};
  std::atomic<std::uint64_t> socket_writes{0};
};

struct Connection {
  Socket socket;
  FrameReader reader;
  std::vector<std::uint8_t> write_buf;
  std::size_t write_pos = 0;
  /// Admitted submissions not yet answered on this connection.
  std::size_t in_flight = 0;
  /// A submission the service would have blocked on; retried after
  /// completions free queue space.  While set, the connection is not read.
  std::optional<SubmitFrame> parked;
  /// Last time a complete frame was decoded (idle/slow-loris clock).
  Clock::time_point last_frame;
  /// Set while write_buf is nonempty: last time a byte reached the kernel.
  Clock::time_point last_write_progress;
  /// No further reads; close once output is flushed and in_flight is 0.
  bool closing = false;

  bool want_read() const { return !closing && !parked && !reader.failed(); }
  bool want_write() const { return write_pos < write_buf.size(); }
};

}  // namespace

class Server::Loop {
 public:
  Loop(serve::BulkService& service, const ServerOptions& options,
       ListenSocket listener)
      : service_(service),
        options_(options),
        listener_(std::move(listener)),
        inbox_(std::make_shared<Inbox>()) {
    inbox_->wake = &wake_;
  }

  void run() {
    set_thread_name("obx-poll");
    const auto poll_granularity = std::chrono::milliseconds(20);
    std::optional<Clock::time_point> drain_deadline;
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> polled;

    for (;;) {
      if (stopping_.load(std::memory_order_acquire) && !drain_deadline) {
        drain_deadline = Clock::now() + options_.drain_timeout;
        // Close, not just stop polling: the kernel would keep completing
        // handshakes into the backlog, and a client connecting now would
        // wait forever for an accept.
        listener_ = ListenSocket{};
      }
      if (drain_deadline) {
        if (drained() || Clock::now() >= *drain_deadline) break;
      }

      fds.clear();
      fds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
      const bool accepting = listener_.valid();
      if (accepting) fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
      polled.clear();
      for (auto& [id, conn] : connections_) {
        short events = 0;
        if (conn.want_read()) events = static_cast<short>(events | POLLIN);
        if (conn.want_write()) events = static_cast<short>(events | POLLOUT);
        // A parked connection is not read, but its peer can still vanish.
        // Register it anyway (POLLERR/POLLHUP are reported regardless of
        // `events`; POLLRDHUP additionally catches an orderly FIN) so a
        // disconnected parker is noticed instead of squatting a slot.
        const bool watch_hangup = conn.parked && !conn.closing;
#ifdef POLLRDHUP
        if (watch_hangup) events = static_cast<short>(events | POLLRDHUP);
#endif
        if (events == 0 && !watch_hangup) continue;
        fds.push_back(pollfd{conn.socket.fd(), events, 0});
        polled.push_back(id);
      }

      const int timeout_ms = static_cast<int>(poll_granularity.count());
      const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
      if (ready < 0 && errno != EINTR) break;  // poll itself failed: give up

      const Clock::time_point now = Clock::now();
      std::size_t cursor = 0;
      if (fds[cursor].revents & POLLIN) wake_.drain();
      ++cursor;
      if (accepting) {
        if (fds[cursor].revents & POLLIN) accept_pending(now);
        ++cursor;
      }
      for (std::uint64_t id : polled) {
        auto it = connections_.find(id);
        if (it == connections_.end()) {
          ++cursor;
          continue;
        }
        const short revents = fds[cursor++].revents;
        short gone = POLLERR | POLLHUP | POLLNVAL;
#ifdef POLLRDHUP
        gone = static_cast<short>(gone | POLLRDHUP);
#endif
        if (revents & gone) {
          // Peer is gone; pending output is undeliverable.
          close_connection(it);
          continue;
        }
        if (revents & POLLIN) handle_readable(it, now);
      }

      deliver_completions(now);
      retry_parked(now);
      // One send per connection per turn: everything this turn encoded for a
      // connection leaves together.  POLLOUT just wakes the loop for this
      // pass when a full socket drains.
      for (auto& [id, conn] : connections_) flush_writes(conn, now);
      enforce_timeouts(now);
      reap_closed();
    }
    shutdown_inbox();
    teardown_connections();
  }

  void request_stop() {
    stopping_.store(true, std::memory_order_release);
    wake_.notify();
  }

  ServerStatsSnapshot stats() const {
    ServerStatsSnapshot s;
    s.connections_accepted = stats_.connections_accepted.load();
    s.connections_refused = stats_.connections_refused.load();
    s.connections_closed = stats_.connections_closed.load();
    s.connections_active = stats_.connections_active.load();
    s.frames_received = stats_.frames_received.load();
    s.protocol_errors = stats_.protocol_errors.load();
    s.submits_received = stats_.submits_received.load();
    s.submits_admitted = stats_.submits_admitted.load();
    s.responses_sent = stats_.responses_sent.load();
    s.responses_dropped = stats_.responses_dropped.load() +
                          inbox_->dropped_after_close.load();
    s.error_responses = stats_.error_responses.load();
    s.stats_requests = stats_.stats_requests.load();
    s.would_block = stats_.would_block.load();
    s.idle_timeouts = stats_.idle_timeouts.load();
    s.stall_timeouts = stats_.stall_timeouts.load();
    s.wakeups = inbox_->wakeups.load();
    s.socket_writes = stats_.socket_writes.load();
    return s;
  }

 private:
  bool drained() const {
    if (!parked_count_ && connections_.empty()) return true;
    for (const auto& [id, conn] : connections_) {
      if (conn.in_flight > 0 || conn.want_write() || conn.parked) return false;
    }
    return true;
  }

  void accept_pending(Clock::time_point now) {
    for (;;) {
      Socket s = listener_.accept();
      if (!s.valid()) return;
      if (connections_.size() >= options_.max_connections) {
        stats_.connections_refused.fetch_add(1, std::memory_order_relaxed);
        continue;  // RAII closes it: an explicit refusal, not a queue
      }
      s.set_nonblocking(true);
      Connection conn;
      conn.socket = std::move(s);
      conn.last_frame = now;
      connections_.emplace(next_conn_id_++, std::move(conn));
      stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      stats_.connections_active.store(connections_.size(),
                                      std::memory_order_relaxed);
    }
  }

  void handle_readable(std::map<std::uint64_t, Connection>::iterator it,
                       Clock::time_point now) {
    Connection& conn = it->second;
    bool saw_eof = false;
    for (;;) {
      const IoResult r = conn.socket.read_some(read_buf_.data(), read_buf_.size());
      if (r.kind == IoResult::Kind::kOk) {
        conn.reader.feed(read_buf_.data(), r.bytes);
        // A short read drained the socket; poll reports anything later.
        if (r.bytes < read_buf_.size()) break;
        continue;
      }
      if (r.kind == IoResult::Kind::kWouldBlock) break;
      // kClosed / kError: no more input after what is already buffered.
      saw_eof = true;
      break;
    }
    // Half-close semantics: frames that arrived before EOF still count —
    // process them first, then mark closing so in-flight responses can
    // flush before the reaper takes the connection.
    process_frames(it->first, conn, now);
    if (saw_eof) conn.closing = true;
  }

  void process_frames(std::uint64_t conn_id, Connection& conn,
                      Clock::time_point now) {
    Frame frame;
    while (!conn.parked && !conn.closing) {
      const FrameReader::Status status = conn.reader.next(frame);
      if (status == FrameReader::Status::kNeedMore) break;
      if (status == FrameReader::Status::kError) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, 0, ErrorCode::kBadFrame, conn.reader.error(), now);
        conn.closing = true;
        break;
      }
      stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
      conn.last_frame = now;
      handle_frame(conn_id, conn, std::move(frame), now);
    }
  }

  void handle_frame(std::uint64_t conn_id, Connection& conn, Frame&& frame,
                    Clock::time_point now) {
    if (auto* submit = std::get_if<SubmitFrame>(&frame)) {
      stats_.submits_received.fetch_add(1, std::memory_order_relaxed);
      handle_submit(conn_id, conn, std::move(*submit), now);
      return;
    }
    if (std::holds_alternative<StatsRequestFrame>(frame)) {
      stats_.stats_requests.fetch_add(1, std::memory_order_relaxed);
      StatsResponseFrame response;
      response.request_id = request_id_of(frame);
      response.text = scrape();
      send_frame(conn, Frame{std::move(response)}, now);
      return;
    }
    // Clients have no business sending server-to-client frame types.
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, request_id_of(frame), ErrorCode::kBadFrame,
               "unexpected frame type from client", now);
    conn.closing = true;
  }

  void handle_submit(std::uint64_t conn_id, Connection& conn,
                     SubmitFrame&& submit, Clock::time_point now) {
    if (stopping_.load(std::memory_order_acquire)) {
      send_error(conn, submit.request_id, ErrorCode::kShuttingDown,
                 "server is draining", now);
      return;
    }
    if (!service_.programs().contains(submit.program_id)) {
      send_error(conn, submit.request_id, ErrorCode::kUnknownProgram,
                 "program '" + submit.program_id + "' is not registered", now);
      return;
    }
    const std::size_t want = service_.programs().get(submit.program_id).input_words();
    if (submit.input.size() != want) {
      send_error(conn, submit.request_id, ErrorCode::kBadInput,
                 "program '" + submit.program_id + "' takes " +
                     std::to_string(want) + " input words, got " +
                     std::to_string(submit.input.size()),
                 now);
      return;
    }

    serve::SubmitOptions options;
    options.tenant = submit.tenant;
    options.priority = submit.priority;
    if (submit.deadline_us >= 0) {
      options.deadline = std::chrono::microseconds(submit.deadline_us);
    }
    const std::uint32_t request_id = submit.request_id;
    auto inbox = inbox_;
    // The callback is the only owner of the routing info; it runs exactly
    // once (service contract), so each admitted submit yields exactly one
    // inbox completion.
    auto done = [inbox, conn_id, request_id](serve::JobResult&& result) {
      inbox->post(Completion{conn_id, request_id, std::move(result)});
    };
    std::vector<Word> input = submit.input;  // keep a copy for retry-on-park
    const serve::BulkService::TrySubmit outcome = service_.try_submit(
        submit.program_id, std::move(input), options, std::move(done));
    if (outcome == serve::BulkService::TrySubmit::kWouldBlock) {
      stats_.would_block.fetch_add(1, std::memory_order_relaxed);
      conn.parked = std::move(submit);
      ++parked_count_;
      return;
    }
    stats_.submits_admitted.fetch_add(1, std::memory_order_relaxed);
    ++conn.in_flight;
  }

  void retry_parked(Clock::time_point now) {
    if (parked_count_ == 0) return;
    for (auto& [id, conn] : connections_) {
      if (!conn.parked || conn.closing) continue;
      SubmitFrame submit = std::move(*conn.parked);
      conn.parked.reset();
      --parked_count_;
      handle_submit(id, conn, std::move(submit), now);
      // Admitted (or terminally refused): drain any frames that piled up in
      // the reader while the connection was parked.
      if (!conn.parked) process_frames(id, conn, now);
    }
  }

  void deliver_completions(Clock::time_point now) {
    {
      std::lock_guard<std::mutex> lock(inbox_->mutex);
      delivered_.swap(inbox_->pending);
    }
    for (Completion& c : delivered_) route_completion(std::move(c), now);
    delivered_.clear();  // empty, so the next swap hands the inbox its storage
  }

  void route_completion(Completion&& c, Clock::time_point now) {
    auto it = connections_.find(c.conn_id);
    if (it == connections_.end()) {
      stats_.responses_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Connection& conn = it->second;
    if (conn.in_flight > 0) --conn.in_flight;
    // Count before writing: once the peer can observe the response, the
    // ledger must already balance (stats() races with fast clients).
    stats_.responses_sent.fetch_add(1, std::memory_order_relaxed);
    if (c.result.status == serve::JobStatus::kFailed) {
      // Execution failures become explicit error frames so the peer can tell
      // "the engine threw" apart from "your job was shed".
      ErrorFrame error;
      error.request_id = c.request_id;
      error.code = ErrorCode::kInternal;
      error.message = c.result.error.empty() ? "execution failed"
                                             : c.result.error;
      stats_.error_responses.fetch_add(1, std::memory_order_relaxed);
      send_frame(conn, Frame{std::move(error)}, now);
    } else {
      ResponseFrame response;
      response.request_id = c.request_id;
      response.status = c.result.status;
      response.deadline_missed = c.result.deadline_missed;
      response.batch_lanes = static_cast<std::uint32_t>(c.result.batch_lanes);
      response.queue_delay_us = us_of(c.result.queue_delay);
      response.latency_us = us_of(c.result.latency);
      response.output = std::move(c.result.output);
      send_frame(conn, Frame{std::move(response)}, now);
    }
  }

  void send_error(Connection& conn, std::uint32_t request_id, ErrorCode code,
                  const std::string& message, Clock::time_point now) {
    ErrorFrame error;
    error.request_id = request_id;
    error.code = code;
    error.message = message;
    stats_.error_responses.fetch_add(1, std::memory_order_relaxed);
    send_frame(conn, Frame{std::move(error)}, now);
  }

  void send_frame(Connection& conn, const Frame& frame, Clock::time_point now) {
    if (!conn.want_write()) {
      conn.write_buf.clear();
      conn.write_pos = 0;
      conn.last_write_progress = now;
    }
    encode_frame(frame, conn.write_buf);  // sent by the end-of-turn flush
  }

  void flush_writes(Connection& conn, Clock::time_point now) {
    while (conn.want_write()) {
      const IoResult r = conn.socket.write_some(
          conn.write_buf.data() + conn.write_pos,
          conn.write_buf.size() - conn.write_pos);
      if (r.kind == IoResult::Kind::kOk) {
        if (r.bytes > 0) stats_.socket_writes.fetch_add(1, std::memory_order_relaxed);
        conn.write_pos += r.bytes;
        conn.last_write_progress = now;
        continue;
      }
      if (r.kind == IoResult::Kind::kWouldBlock) return;
      conn.closing = true;  // peer gone; reap_closed drops the rest
      conn.write_buf.clear();
      conn.write_pos = 0;
      return;
    }
    conn.write_buf.clear();
    conn.write_pos = 0;
  }

  void enforce_timeouts(Clock::time_point now) {
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& conn = it->second;
      auto cur = it++;
      if (conn.want_write() &&
          now - conn.last_write_progress > options_.write_stall_timeout) {
        stats_.stall_timeouts.fetch_add(1, std::memory_order_relaxed);
        close_connection(cur);
        continue;
      }
      const bool idle_eligible =
          !conn.closing && conn.in_flight == 0 && !conn.parked &&
          !conn.want_write();
      if (idle_eligible && now - conn.last_frame > options_.idle_timeout) {
        stats_.idle_timeouts.fetch_add(1, std::memory_order_relaxed);
        close_connection(cur);
      }
    }
  }

  void reap_closed() {
    for (auto it = connections_.begin(); it != connections_.end();) {
      auto cur = it++;
      Connection& conn = cur->second;
      if (conn.closing && conn.parked) {
        // A closing connection never retries its parked submit (retry_parked
        // skips it), so the frame is dead weight: drop it here or the
        // connection becomes an unreapable zombie that holds a
        // max_connections slot forever.
        conn.parked.reset();
        --parked_count_;
      }
      if (conn.closing && !conn.want_write() && conn.in_flight == 0 &&
          !conn.parked) {
        close_connection(cur);
      }
    }
  }

  void close_connection(std::map<std::uint64_t, Connection>::iterator it) {
    if (it->second.parked) --parked_count_;
    connections_.erase(it);
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_active.store(connections_.size(),
                                    std::memory_order_relaxed);
  }

  void shutdown_inbox() {
    // Anything still queued (or arriving later) can no longer reach a
    // connection: count it as dropped so the exactly-once ledger stays
    // balanced.
    std::vector<Completion> leftovers;
    {
      std::lock_guard<std::mutex> lock(inbox_->mutex);
      inbox_->open = false;
      inbox_->wake = nullptr;
      leftovers.swap(inbox_->pending);
    }
    stats_.responses_dropped.fetch_add(leftovers.size(),
                                       std::memory_order_relaxed);
  }

  void teardown_connections() {
    while (!connections_.empty()) close_connection(connections_.begin());
  }

  std::string scrape() const {
    return serve::render_prometheus(service_.snapshot()) +
           render_server_stats(stats());
  }

  serve::BulkService& service_;
  ServerOptions options_;
  ListenSocket listener_;
  WakePipe wake_;
  std::shared_ptr<Inbox> inbox_;
  std::vector<Completion> delivered_;            ///< swapped with the inbox each turn
  std::array<std::uint8_t, 64 * 1024> read_buf_{};  ///< every connection reads into it
  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t next_conn_id_ = 1;
  std::size_t parked_count_ = 0;
  std::atomic<bool> stopping_{false};
  mutable Stats stats_;
};

Server::Server(serve::BulkService& service, ServerOptions options)
    : service_(service), options_(options) {
  std::string error;
  ListenSocket listener =
      ListenSocket::listen(options_.host, options_.port, /*backlog=*/128,
                           &error);
  if (!listener.valid()) {
    throw std::runtime_error("net::Server: " + error);
  }
  host_ = listener.host();
  port_ = listener.port();
  loop_ = std::make_unique<Loop>(service_, options_, std::move(listener));
  thread_ = std::thread([this] { loop_->run(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stopped_.exchange(true)) return;
  loop_->request_stop();
  if (thread_.joinable()) thread_.join();
}

ServerStatsSnapshot Server::stats() const { return loop_->stats(); }

std::string Server::scrape_metrics() const {
  return serve::render_prometheus(service_.snapshot()) +
         render_server_stats(stats());
}

std::string render_server_stats(const ServerStatsSnapshot& s) {
  std::ostringstream os;
  const auto counter = [&os](const char* name, std::uint64_t value) {
    os << "# TYPE " << name << " counter\n" << name << ' ' << value << '\n';
  };
  counter("obx_net_connections_accepted_total", s.connections_accepted);
  counter("obx_net_connections_refused_total", s.connections_refused);
  counter("obx_net_connections_closed_total", s.connections_closed);
  os << "# TYPE obx_net_connections_active gauge\n"
     << "obx_net_connections_active " << s.connections_active << '\n';
  counter("obx_net_frames_received_total", s.frames_received);
  counter("obx_net_protocol_errors_total", s.protocol_errors);
  counter("obx_net_submits_received_total", s.submits_received);
  counter("obx_net_submits_admitted_total", s.submits_admitted);
  counter("obx_net_responses_sent_total", s.responses_sent);
  counter("obx_net_responses_dropped_total", s.responses_dropped);
  counter("obx_net_error_responses_total", s.error_responses);
  counter("obx_net_stats_requests_total", s.stats_requests);
  counter("obx_net_would_block_total", s.would_block);
  counter("obx_net_idle_timeouts_total", s.idle_timeouts);
  counter("obx_net_stall_timeouts_total", s.stall_timeouts);
  counter("obx_net_wakeups_total", s.wakeups);
  counter("obx_net_socket_writes_total", s.socket_writes);
  return os.str();
}

}  // namespace obx::net
