#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace adriatic::service {

using campaign::JobStats;

namespace {
/// How long stop() waits for RESULT frames still being written before it
/// shuts the connections down anyway.
constexpr std::chrono::seconds kDeliveryGrace{5};
}  // namespace

CampaignServer::CampaignServer(ServerOptions opt)
    : opt_(std::move(opt)), session_(opt_) {}

CampaignServer::~CampaignServer() {
  if (running_.load() || !stopped_.load()) stop();
}

void CampaignServer::register_kind(const std::string& name,
                                   JobBuilder builder) {
  session_.register_kind(name, std::move(builder));
}

bool CampaignServer::start() {
  if (running_.load()) return true;
  if (opt_.socket_path.empty()) {
    log::error() << "campaignd: no socket path configured";
    return false;
  }
  if (const std::string error = session_.start(); !error.empty()) {
    log::error() << "campaignd: " << error;
    return false;
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    log::error() << "campaignd: socket path too long: " << opt_.socket_path;
    return false;
  }
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    log::error() << "campaignd: socket(): " << std::strerror(errno);
    return false;
  }
  ::unlink(opt_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    log::error() << "campaignd: cannot listen on '" << opt_.socket_path
                 << "': " << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  stopped_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void CampaignServer::accept_loop() {
  while (running_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    ++connections_;
    {
      std::lock_guard<std::mutex> lk(cmu_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void CampaignServer::reader_loop(const std::shared_ptr<Connection>& conn) {
  LineParser parser;
  char buf[4096];
  bool fatal = false;
  while (!fatal) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // peer closed
    parser.feed(buf, static_cast<usize>(n));
    while (auto ev = parser.next()) {
      if (ev->error.has_value()) {
        // One structured ERROR frame per violation; framing violations
        // additionally end the connection (the stream past them is
        // untrustworthy — see protocol.hpp).
        send_error(conn, 0, ev->error->code, ev->error->detail);
        if (is_fatal(ev->error->code)) {
          fatal = true;
          break;
        }
        continue;
      }
      const RequestEvent rev = to_request(*ev->line);
      if (rev.error.has_value()) {
        // Best-effort id echo so the client can correlate the error.
        u64 id = 0;
        if (const auto raw = ev->line->get("id"); raw.has_value())
          id = std::strtoull(raw->c_str(), nullptr, 10);
        send_error(conn, id, rev.error->code, rev.error->detail);
        continue;
      }
      handle_request(conn, *rev.request);
    }
  }
  // Closing under the write lock keeps the completion hook from racing a
  // push onto a recycled fd number.
  std::lock_guard<std::mutex> lk(conn->write_mu);
  conn->open.store(false);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
}

void CampaignServer::handle_request(const std::shared_ptr<Connection>& conn,
                                    const Request& req) {
  // Request ids are the client's correlation handles; reusing one would
  // make its response stream ambiguous, so the reuse itself is the error.
  if (!conn->seen_ids.insert(req.id).second) {
    send_error(conn, req.id, ErrorCode::kDuplicateId,
               strfmt("request id %llu already used on this connection",
                      static_cast<unsigned long long>(req.id)));
    return;
  }
  switch (req.verb) {
    case Verb::kSubmit:
      handle_submit(conn, req);
      return;
    case Verb::kWatch:
      conn->watching.store(true);
      send_frame(conn, encode_ok(req.id, 0, false));
      return;
    case Verb::kStats: {
      const ServerCounters c = counters();
      std::vector<std::pair<std::string, std::string>> fields;
      fields.emplace_back("campaign", opt_.campaign_name);
      fields.emplace_back("threads", std::to_string(session_.thread_count()));
      fields.emplace_back("mode",
                          session_.processes() ? "processes" : "threads");
      fields.emplace_back("connections", std::to_string(c.connections));
      fields.emplace_back("requests", std::to_string(c.requests));
      fields.emplace_back("dedup_hits", std::to_string(c.dedup_hits));
      fields.emplace_back("jobs_done", std::to_string(c.jobs_done));
      fields.emplace_back("jobs_failed", std::to_string(c.jobs_failed));
      fields.emplace_back("errors", std::to_string(c.errors));
      send_frame(conn, encode_stats_reply(req.id, fields));
      return;
    }
    case Verb::kDrain:
      session_.drain();
      send_frame(conn, encode_drained(req.id));
      return;
  }
}

void CampaignServer::handle_submit(const std::shared_ptr<Connection>& conn,
                                   const Request& req) {
  SessionJob job;
  job.job = {0, req.spec, req.kind, req.label, decode_params(req.params)};
  job.opt.max_attempts = opt_.max_attempts;
  job.opt.wall_timeout_seconds = opt_.wall_timeout_seconds;
  job.opt.heartbeat_timeout_seconds = opt_.heartbeat_timeout_seconds;

  // OK must reach the client before any RESULT for the same request. The
  // completion hook pushes RESULTs under this connection's write lock, so
  // holding it from the dedup decision until OK is written keeps an attached
  // job that finishes meanwhile from overtaking the OK; a fresh job is
  // handed to the runner only once its OK is out. (Lock order: write_mu
  // before the session lock; nothing takes write_mu while holding it.)
  std::unique_lock<std::mutex> wlk(conn->write_mu);
  auto adm = session_.admit(
      job, [this, conn, id = req.id](u64 spec, const JobStats& stats) {
        send_frame(conn, encode_result(id, spec, stats));
        broadcast_result(spec, stats, conn.get());
      });
  if (adm.error.has_value()) {
    wlk.unlock();
    send_error(conn, req.id, *adm.error, adm.detail);
    return;
  }
  write_frame_locked(
      *conn, encode_ok(req.id, static_cast<u64>(adm.index), !adm.fresh));
  if (adm.served.has_value()) {
    // Finished or cached: RESULT right behind the OK, no worker involved.
    write_frame_locked(*conn, encode_result(req.id, req.spec, *adm.served));
    wlk.unlock();
    broadcast_result(req.spec, *adm.served, conn.get());
    return;
  }
  wlk.unlock();
  if (adm.fresh) session_.launch(adm);
}

void CampaignServer::send_frame(const std::shared_ptr<Connection>& conn,
                                const std::string& frame) {
  std::lock_guard<std::mutex> lk(conn->write_mu);
  write_frame_locked(*conn, frame);
}

void CampaignServer::write_frame_locked(Connection& conn,
                                        const std::string& frame) {
  if (!conn.open.load() || conn.fd < 0) return;
  if (!campaign::write_all(conn.fd, frame)) conn.open.store(false);
}

void CampaignServer::send_error(const std::shared_ptr<Connection>& conn,
                                u64 id, ErrorCode code,
                                const std::string& detail) {
  ++errors_;
  send_frame(conn, encode_error(id, code, detail));
}

void CampaignServer::broadcast_result(u64 spec, const JobStats& stats,
                                      const Connection* except) {
  std::vector<std::shared_ptr<Connection>> watchers;
  {
    std::lock_guard<std::mutex> lk(cmu_);
    for (const auto& conn : conns_)
      if (conn->watching.load() && conn->open.load() && conn.get() != except)
        watchers.push_back(conn);
  }
  // Watcher frames reuse id=0: a watcher subscribed to everything, so per-
  // request correlation does not apply.
  for (const auto& conn : watchers)
    send_frame(conn, encode_result(0, spec, stats));
}

void CampaignServer::stop() {
  if (stopped_.exchange(true)) return;
  // Once close() returns, any SUBMIT still in admit() is refused and every
  // admitted one is in the session's books.
  session_.close();
  running_.store(false);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain while connections are still up, so in-flight results (including
  // signal-stop "interrupted" quarantines) stream out to their clients.
  session_.drain_for(kDeliveryGrace);
  {
    std::lock_guard<std::mutex> lk(cmu_);
    for (const auto& conn : conns_) {
      std::lock_guard<std::mutex> wlk(conn->write_mu);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lk(cmu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns)
    if (conn->reader.joinable()) conn->reader.join();
  // A reader may have launched one last admitted job past the drain; with
  // all readers joined the session's own stop is definitive.
  session_.stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(opt_.socket_path.c_str());
}

int CampaignServer::serve() {
  if (!start()) return 2;
  {
    std::unique_lock<std::mutex> lk(smu_);
    while (!shutdown_requested_ && !campaign::signal_stop_requested())
      scv_.wait_for(lk, std::chrono::milliseconds(100));
  }
  const bool signalled = campaign::signal_stop_requested();
  stop();
  return signalled ? 130 : 0;
}

void CampaignServer::request_shutdown() {
  {
    std::lock_guard<std::mutex> lk(smu_);
    shutdown_requested_ = true;
  }
  scv_.notify_all();
}

ServerCounters CampaignServer::counters() const {
  ServerCounters c;
  static_cast<SessionCounters&>(c) = session_.counters();
  c.connections = connections_.load();
  c.errors = errors_.load();
  return c;
}

}  // namespace adriatic::service
