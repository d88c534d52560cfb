#include "gendt/serve/stream/server.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <exception>

#include "gendt/net/socket.h"
#include "gendt/serve/error.h"

namespace gendt::serve::stream {

StreamServer::StreamServer(StreamServerConfig cfg, SourceFactory factory)
    : cfg_(std::move(cfg)), factory_(std::move(factory)) {
  if (cfg_.clock == nullptr) cfg_.clock = &runtime::steady_clock();
  cfg_.chunk_windows = std::max(1, cfg_.chunk_windows);
  cfg_.max_chunk_windows = std::max(cfg_.chunk_windows, cfg_.max_chunk_windows);
}

StreamServer::~StreamServer() = default;

int64_t StreamServer::now_ms() const { return cfg_.clock->now_ms(); }

bool StreamServer::listen_unix(const std::string& path, std::string* error) {
  listen_fd_ = net::unix_listen(path, /*backlog=*/16, error);
  if (!listen_fd_.valid()) return false;
  net::set_nonblocking(listen_fd_.get(), true);
  return true;
}

void StreamServer::adopt(net::FdGuard fd) {
  runtime::MutexLock lock(adopt_mu_);
  adopted_.push_back(std::move(fd));
}

void StreamServer::request_drain() { drain_requested_.store(true, std::memory_order_release); }

StreamStats StreamServer::stats() const {
  runtime::MutexLock lock(stats_mu_);
  return stats_;
}

void StreamServer::enqueue(Conn& conn, FrameType type, uint8_t flags,
                           const std::vector<uint8_t>& body) {
  const std::vector<uint8_t> frame = encode_frame(type, flags, body);
  conn.outbox.insert(conn.outbox.end(), frame.begin(), frame.end());
}

void StreamServer::send_error(Conn& conn, StreamErrorCode code, const std::string& message) {
  ErrorMsg msg;
  msg.code = code;
  msg.message = message;
  enqueue(conn, FrameType::kError, 0, encode_error(msg));
  conn.close_after_flush = true;
}

void StreamServer::resolve(Session& s, Outcome outcome, StreamErrorCode code,
                           const std::string& message) {
  if (s.resolved) return;
  s.resolved = true;
  {
    runtime::MutexLock lock(stats_mu_);
    switch (outcome) {
      case Outcome::kOk: ++stats_.sessions_ok; break;
      case Outcome::kDegraded: ++stats_.sessions_degraded; break;
      case Outcome::kFailed: ++stats_.sessions_failed; break;
    }
  }
  if (s.conn >= 0) {
    const auto it = conns_.find(s.conn);
    if (it != conns_.end()) {
      if (code != StreamErrorCode::kNone) {
        send_error(it->second, code, message);
      } else if (outcome != Outcome::kOk) {
        it->second.close_after_flush = true;
      }
    }
  }
}

void StreamServer::detach_session(Session& s) {
  if (s.conn >= 0) {
    const auto it = conns_.find(s.conn);
    if (it != conns_.end()) it->second.session_id.clear();
  }
  s.conn = -1;
  s.detached_at_ms = now_ms();
}

void StreamServer::drop_conn(int conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  if (!it->second.session_id.empty()) {
    const auto sit = sessions_.find(it->second.session_id);
    if (sit != sessions_.end()) {
      if (sit->second.resolved) {
        sessions_.erase(sit);
      } else {
        detach_session(sit->second);  // stays resumable for the retention window
      }
    }
  }
  conns_.erase(it);
}

void StreamServer::drain_adopted() {
  std::vector<net::FdGuard> pending;
  {
    runtime::MutexLock lock(adopt_mu_);
    pending.swap(adopted_);
  }
  for (net::FdGuard& fd : pending) {
    net::set_nonblocking(fd.get(), true);
    const int id = next_conn_id_++;
    conns_.emplace(id, Conn(std::move(fd), cfg_.max_frame_bytes, now_ms()));
  }
}

void StreamServer::accept_ready() {
  if (!listen_fd_.valid()) return;
  for (;;) {
    net::FdGuard fd = net::accept_connection(listen_fd_.get());
    if (!fd.valid()) break;
    net::set_nonblocking(fd.get(), true);
    const int id = next_conn_id_++;
    conns_.emplace(id, Conn(std::move(fd), cfg_.max_frame_bytes, now_ms()));
  }
}

void StreamServer::read_conn(int conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  Conn& conn = it->second;

  // Drain to EAGAIN/EOF (the fd is non-blocking): a short read must not end
  // the pass, or an EOF queued behind the peer's final bytes goes unseen for
  // a tick — and a client that reconnects and RESUMEs immediately after a
  // kill would race the server's view of the old connection.
  uint8_t buf[4096];
  for (;;) {
    const long n = net::read_some(conn.fd.get(), buf, sizeof(buf));
    if (n > 0) {
      conn.last_activity_ms = now_ms();
      conn.decoder.feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;  // orderly EOF or hard error: either way the peer is gone
    break;
  }

  Frame frame;
  std::string error;
  for (;;) {
    // Re-find every iteration: a handler may have scheduled teardown.
    const auto cur = conns_.find(conn_id);
    if (cur == conns_.end() || cur->second.dead || cur->second.close_after_flush) return;
    const FrameDecoder::Status st = cur->second.decoder.next(frame, &error);
    if (st == FrameDecoder::Status::kNeedMore) return;
    if (st == FrameDecoder::Status::kError) {
      {
        runtime::MutexLock lock(stats_mu_);
        ++stats_.bad_frames;
      }
      if (!cur->second.session_id.empty()) {
        const auto sit = sessions_.find(cur->second.session_id);
        if (sit != sessions_.end())
          resolve(sit->second, Outcome::kFailed, StreamErrorCode::kBadFrame, error);
      }
      send_error(cur->second, StreamErrorCode::kBadFrame, error);
      return;
    }
    handle_frame(conn_id, frame);
  }
}

void StreamServer::handle_frame(int conn_id, const Frame& frame) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;

  if (frame.is(FrameType::kOpen)) {
    handle_open(conn_id, frame);
  } else if (frame.is(FrameType::kResume)) {
    handle_resume(conn_id, frame);
  } else if (frame.is(FrameType::kAck)) {
    handle_ack(conn_id, frame);
  } else if (frame.is(FrameType::kHeartbeat)) {
    {
      runtime::MutexLock lock(stats_mu_);
      ++stats_.heartbeats;
    }
    enqueue(conn, FrameType::kHeartbeat, kFlagReply, {});
  } else if (frame.is(FrameType::kClose)) {
    handle_close(conn_id);
  } else {
    // CHUNK/ERROR (and reply-flagged traffic) only flow server -> client.
    {
      runtime::MutexLock lock(stats_mu_);
      ++stats_.bad_frames;
    }
    if (!conn.session_id.empty()) {
      const auto sit = sessions_.find(conn.session_id);
      if (sit != sessions_.end())
        resolve(sit->second, Outcome::kFailed, StreamErrorCode::kBadFrame,
                "unexpected frame type from client");
    }
    send_error(conn, StreamErrorCode::kBadFrame, "unexpected frame type from client");
  }
}

void StreamServer::handle_open(int conn_id, const Frame& frame) {
  Conn& conn = conns_.at(conn_id);
  if (!conn.session_id.empty()) {
    const auto sit = sessions_.find(conn.session_id);
    if (sit != sessions_.end())
      resolve(sit->second, Outcome::kFailed, StreamErrorCode::kInvalidRequest,
              "OPEN on a connection that already holds a session");
    send_error(conn, StreamErrorCode::kInvalidRequest, "connection already holds a session");
    return;
  }

  OpenRequest open;
  if (!decode_open(frame.body, open, cfg_.max_trajectory_points)) {
    {
      runtime::MutexLock lock(stats_mu_);
      ++stats_.bad_frames;
    }
    send_error(conn, StreamErrorCode::kBadFrame, "malformed OPEN body");
    return;
  }

  // Admission control: every OPEN is a session for accounting purposes, even
  // the ones shed before a source exists — total counts admissions + sheds.
  if (draining() || drain_started_) {
    {
      runtime::MutexLock lock(stats_mu_);
      ++stats_.sessions_total;
      ++stats_.sessions_shed;
    }
    send_error(conn, StreamErrorCode::kServerDraining, "server is draining");
    return;
  }
  if (static_cast<int>(sessions_.size()) >= cfg_.max_sessions) {
    {
      runtime::MutexLock lock(stats_mu_);
      ++stats_.sessions_total;
      ++stats_.sessions_shed;
    }
    send_error(conn, StreamErrorCode::kOverloaded, "session table full");
    return;
  }

  OpenRequest negotiated = open;
  const int want = negotiated.chunk_windows == 0 ? cfg_.chunk_windows
                                                 : static_cast<int>(negotiated.chunk_windows);
  negotiated.chunk_windows =
      static_cast<uint32_t>(std::clamp(want, 1, cfg_.max_chunk_windows));

  StreamErrorCode code = StreamErrorCode::kInvalidRequest;
  std::string error = "source factory failed";
  std::unique_ptr<ChunkSource> source = factory_(negotiated, &code, &error);
  if (source == nullptr || source->meta().total_windows == 0) {
    if (source != nullptr) {
      code = StreamErrorCode::kInvalidRequest;
      error = "request yields no generation windows";
    }
    {
      runtime::MutexLock lock(stats_mu_);
      ++stats_.sessions_total;
      ++stats_.sessions_failed;
    }
    send_error(conn, code, error);
    return;
  }

  const uint64_t n = next_session_++;
  Session s;
  // Same "s<n>" id as `"s" + std::to_string(n)`, which GCC 12 flags with a
  // false -Werror=restrict once operator+ is inlined here.
  s.id = std::to_string(n);
  s.id.insert(s.id.begin(), 's');
  s.token = runtime::derive_stream_seed(cfg_.token_seed, n);
  s.source = std::move(source);
  s.snap_acked = s.source->snapshot();
  s.conn = conn_id;
  conn.session_id = s.id;

  OpenAck ack;
  ack.session_id = s.id;
  ack.resume_token = s.token;
  ack.chunk_windows = s.source->meta().chunk_windows;
  ack.total_windows = s.source->meta().total_windows;
  ack.channel_names = s.source->meta().channel_names;
  ack.t0 = s.source->meta().t0;
  ack.period_s = s.source->meta().period_s;
  enqueue(conn, FrameType::kOpen, kFlagReply, encode_open_ack(ack));

  {
    runtime::MutexLock lock(stats_mu_);
    ++stats_.sessions_total;
  }
  sessions_.emplace(s.id, std::move(s));
}

void StreamServer::handle_resume(int conn_id, const Frame& frame) {
  Conn& conn = conns_.at(conn_id);
  if (!conn.session_id.empty()) {
    send_error(conn, StreamErrorCode::kInvalidRequest,
               "RESUME on a connection that already holds a session");
    return;
  }
  ResumeRequest req;
  if (!decode_resume(frame.body, req)) {
    {
      runtime::MutexLock lock(stats_mu_);
      ++stats_.bad_frames;
    }
    send_error(conn, StreamErrorCode::kBadFrame, "malformed RESUME body");
    return;
  }
  if (drain_started_) {
    send_error(conn, StreamErrorCode::kServerDraining, "server is draining");
    return;
  }
  const auto sit = sessions_.find(req.session_id);
  if (sit == sessions_.end()) {
    send_error(conn, StreamErrorCode::kUnknownSession,
               "no such session (expired or never existed)");
    return;
  }
  Session& s = sit->second;
  if (s.conn >= 0) {
    // A client that reconnects immediately after a kill can race the
    // server's EOF read of the old connection within one tick: if the
    // owning connection is already dead (or gone), the session is detached
    // in everything but bookkeeping — detach it now so the RESUME lands.
    const auto owner = conns_.find(s.conn);
    if (owner == conns_.end() || owner->second.dead) detach_session(s);
  }
  if (s.conn >= 0 || s.resolved) {
    send_error(conn, StreamErrorCode::kInvalidRequest, "session is not resumable");
    return;
  }
  if (req.resume_token != s.token) {
    send_error(conn, StreamErrorCode::kBadResumeToken, "resume token mismatch");
    return;
  }

  if (req.chunks_have == s.acked) {
    // Client is at the last ACKed boundary; rewind to the matching snapshot
    // (drops any generated-but-unACKed chunk, which will be regenerated
    // bit-for-bit from the same source state).
    s.source->restore(*s.snap_acked);
    s.has_inflight = false;
    s.attempts = 0;
    s.last_sent = false;
  } else if (req.chunks_have == s.acked + 1 && s.has_inflight &&
             s.inflight.index == s.acked) {
    // Client received the in-flight chunk but its ACK was lost: count it.
    s.acked += 1;
    s.snap_acked = s.source->snapshot();
    s.has_inflight = false;
    s.attempts = 0;
  } else {
    send_error(conn, StreamErrorCode::kBadResumeToken,
               "client chunk cursor does not match session state");
    return;
  }

  s.conn = conn_id;
  s.detached_at_ms = 0;
  conn.session_id = s.id;
  {
    runtime::MutexLock lock(stats_mu_);
    ++stats_.resumes;
  }

  ResumeAck ack;
  ack.next_chunk_index = s.source->next_chunk_index();
  ack.total_windows = s.source->meta().total_windows;
  enqueue(conn, FrameType::kResume, kFlagReply, encode_resume_ack(ack));
}

void StreamServer::handle_ack(int conn_id, const Frame& frame) {
  Conn& conn = conns_.at(conn_id);
  if (conn.session_id.empty()) {
    send_error(conn, StreamErrorCode::kInvalidRequest, "ACK without a session");
    return;
  }
  const auto sit = sessions_.find(conn.session_id);
  if (sit == sessions_.end()) return;
  Session& s = sit->second;
  if (s.resolved) return;

  AckMsg ack;
  if (!decode_ack(frame.body, ack)) {
    {
      runtime::MutexLock lock(stats_mu_);
      ++stats_.bad_frames;
    }
    resolve(s, Outcome::kFailed, StreamErrorCode::kBadFrame, "malformed ACK body");
    return;
  }
  if (!s.has_inflight || ack.chunk_index != s.inflight.index) {
    resolve(s, Outcome::kFailed, StreamErrorCode::kInvalidRequest,
            "ACK does not match the in-flight chunk");
    return;
  }

  s.acked += 1;
  s.snap_acked = s.source->snapshot();
  s.has_inflight = false;
  s.attempts = 0;
  if (s.last_sent && s.source->done()) {
    resolve(s, Outcome::kOk, StreamErrorCode::kNone, "");
  }
}

void StreamServer::handle_close(int conn_id) {
  Conn& conn = conns_.at(conn_id);
  CloseStats out;
  if (!conn.session_id.empty()) {
    const auto sit = sessions_.find(conn.session_id);
    if (sit != sessions_.end()) {
      Session& s = sit->second;
      out.chunks_sent = s.chunks_sent;
      out.points_sent = s.points_sent;
      if (!s.resolved) {
        // Client-initiated abort before completion.
        resolve(s, Outcome::kFailed, StreamErrorCode::kNone, "");
      }
    }
  }
  enqueue(conn, FrameType::kClose, kFlagReply, encode_close_stats(out));
  conn.close_after_flush = true;
}

void StreamServer::apply_timeouts() {
  const int64_t now = now_ms();
  for (auto& [id, conn] : conns_) {
    if (conn.dead) continue;
    if (now - conn.last_activity_ms > cfg_.idle_timeout_ms) {
      conn.dead = true;  // drop_conn() in reap() detaches any session
    }
  }
  for (auto& [id, s] : sessions_) {
    if (s.resolved || s.conn >= 0) continue;
    if (now - s.detached_at_ms > cfg_.resume_retention_ms) {
      resolve(s, Outcome::kFailed, StreamErrorCode::kNone, "");  // abandoned
    }
  }
}

void StreamServer::apply_drain() {
  if (!drain_started_) return;
  const int64_t now = now_ms();
  const bool past_deadline = now - drain_start_ms_ >= cfg_.drain_deadline_ms;
  if (past_deadline) gen_cancel_.cancel();

  for (auto& [id, s] : sessions_) {
    if (s.resolved) continue;
    // A sent-but-unACKed chunk gets until the drain deadline to be ACKed;
    // everything else closes immediately with a clean draining error.
    if (s.conn >= 0 && s.has_inflight && !past_deadline) continue;
    resolve(s, Outcome::kDegraded, StreamErrorCode::kServerDraining, "server draining");
  }
  if (past_deadline) {
    for (auto& [id, conn] : conns_) conn.close_after_flush = true;
  }
}

void StreamServer::generate_ready() {
  if (drain_started_) return;

  std::vector<Session*> ready;
  for (auto& [id, s] : sessions_) {
    if (s.resolved || s.conn < 0 || s.has_inflight || s.source->done()) continue;
    const auto cit = conns_.find(s.conn);
    if (cit == conns_.end() || cit->second.dead || cit->second.close_after_flush) continue;
    ready.push_back(&s);
  }
  if (ready.empty()) return;

  struct Result {
    ChunkMsg msg;
    std::exception_ptr error;
  };
  std::vector<Result> results(ready.size());

  // Fan out in session order; each task touches only its own session's
  // source, and commits below happen sequentially in the same order — so
  // the transcript is identical at every worker count.
  runtime::parallel_tasks(cfg_.parallelism, static_cast<int>(ready.size()), [&](int i) {
    try {
      results[static_cast<size_t>(i)].msg = ready[static_cast<size_t>(i)]->source->next_chunk(&gen_cancel_);
    } catch (...) {
      results[static_cast<size_t>(i)].error = std::current_exception();
    }
  });

  for (size_t i = 0; i < ready.size(); ++i) {
    Session& s = *ready[i];
    Result& r = results[i];
    bool poisoned = false;
    if (r.error == nullptr) {
      for (const double v : r.msg.values) {
        if (!std::isfinite(v)) {
          poisoned = true;
          break;
        }
      }
    }

    if (r.error == nullptr && !poisoned) {
      s.inflight = std::move(r.msg);
      s.has_inflight = true;
      s.last_sent = s.source->done();
      const uint8_t flags = s.last_sent ? kFlagLast : 0;
      const auto cit = conns_.find(s.conn);
      if (cit != conns_.end()) {
        enqueue(cit->second, FrameType::kChunk, flags, encode_chunk(s.inflight));
      }
      s.chunks_sent += 1;
      s.points_sent += s.inflight.num_points;
      runtime::MutexLock lock(stats_mu_);
      ++stats_.chunks_sent;
      stats_.points_sent += s.inflight.num_points;
      continue;
    }

    // Rewind to the ACKed boundary (a poisoned chunk *committed*; a thrown
    // one did not, but the restore is idempotent either way).
    s.source->restore(*s.snap_acked);
    if (r.error != nullptr) {
      try {
        std::rethrow_exception(r.error);
      } catch (const runtime::CancelledError&) {
        resolve(s, Outcome::kDegraded, StreamErrorCode::kServerDraining,
                "chunk cancelled by drain");
        continue;
      } catch (const TransientError&) {
        // retryable; fall through to the attempt counter
      } catch (const std::exception& e) {
        resolve(s, Outcome::kFailed, StreamErrorCode::kModelFailure, e.what());
        continue;
      }
    }
    s.attempts += 1;
    if (s.attempts > cfg_.max_chunk_retries) {
      resolve(s, Outcome::kFailed, StreamErrorCode::kModelFailure,
              poisoned ? "model produced non-finite values" : "model failure persisted");
    }
  }
}

void StreamServer::flush_conn(int conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.dead) return;
  while (conn.out_pos < conn.outbox.size()) {
    const long n = net::write_some(conn.fd.get(), conn.outbox.data() + conn.out_pos,
                                   conn.outbox.size() - conn.out_pos);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn.dead = true;
    return;
  }
  conn.outbox.clear();
  conn.out_pos = 0;
  if (conn.close_after_flush) conn.dead = true;
}

void StreamServer::reap() {
  std::vector<int> dead;
  for (const auto& [id, conn] : conns_) {
    if (conn.dead) dead.push_back(id);
  }
  for (const int id : dead) drop_conn(id);

  std::vector<std::string> done;
  for (const auto& [id, s] : sessions_) {
    if (s.resolved && s.conn < 0) done.push_back(id);
  }
  for (const std::string& id : done) sessions_.erase(id);
}

bool StreamServer::finished() {
  // A connection adopted but not yet drained into conns_ counts as live:
  // exiting while one sits in the queue would strand its client without
  // even a draining error (adopt() can race the drain flag by one tick).
  bool adopted_pending = false;
  {
    runtime::MutexLock lock(adopt_mu_);
    adopted_pending = !adopted_.empty();
  }
  const bool idle = sessions_.empty() && conns_.empty() && !adopted_pending;
  if (drain_started_ && idle) return true;
  uint64_t resolved = 0;
  {
    runtime::MutexLock lock(stats_mu_);
    resolved = stats_.resolved();
  }
  if (cfg_.exit_after_sessions > 0 && resolved >= cfg_.exit_after_sessions && idle) {
    return true;
  }
  if (cfg_.idle_exit_ms > 0) {
    if (!idle) {
      idle_since_ms_ = -1;
    } else if (idle_since_ms_ < 0) {
      idle_since_ms_ = now_ms();
    } else if (now_ms() - idle_since_ms_ >= cfg_.idle_exit_ms) {
      return true;
    }
  }
  return false;
}

bool StreamServer::poll_once(int timeout_ms) {
  drain_adopted();

  if ((draining() || (cfg_.drain != nullptr && cfg_.drain->cancelled())) && !drain_started_) {
    drain_requested_.store(true, std::memory_order_release);
    drain_started_ = true;
    drain_start_ms_ = now_ms();
    gen_cancel_.arm_deadline(*cfg_.clock, drain_start_ms_ + cfg_.drain_deadline_ms);
    listen_fd_.reset();  // stop accepting; queued connects fail fast
  }

  // Anything already actionable makes the poll a non-blocking peek.
  bool work_pending = drain_started_;
  for (const auto& [id, conn] : conns_) {
    if (conn.dead || conn.out_pos < conn.outbox.size()) {
      work_pending = true;
      break;
    }
  }
  if (!work_pending) {
    for (const auto& [id, s] : sessions_) {
      if (!s.resolved && s.conn >= 0 && !s.has_inflight && !s.source->done()) {
        work_pending = true;
        break;
      }
    }
  }

  std::vector<net::PollItem> items;
  std::vector<int> item_conn;  // conn id per item; -1 = listener
  if (listen_fd_.valid()) {
    net::PollItem li;
    li.fd = listen_fd_.get();
    li.want_read = true;
    items.push_back(li);
    item_conn.push_back(-1);
  }
  for (const auto& [id, conn] : conns_) {
    if (conn.dead) continue;
    net::PollItem it;
    it.fd = conn.fd.get();
    it.want_read = true;
    it.want_write = conn.out_pos < conn.outbox.size();
    items.push_back(it);
    item_conn.push_back(id);
  }

  if (!items.empty()) {
    net::poll_fds(items.data(), items.size(), work_pending ? 0 : timeout_ms);
  }

  for (size_t i = 0; i < items.size(); ++i) {
    if (item_conn[i] < 0) {
      if (items[i].readable) accept_ready();
      continue;
    }
    if (items[i].readable || items[i].hangup) read_conn(item_conn[i]);
  }

  apply_timeouts();
  apply_drain();
  generate_ready();

  std::vector<int> ids;
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const int id : ids) flush_conn(id);

  reap();
  return !finished();
}

void StreamServer::run() {
  while (poll_once(50)) {
  }
}

}  // namespace gendt::serve::stream
