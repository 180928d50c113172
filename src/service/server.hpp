// campaignd: a single-daemon campaign server on a Unix-domain socket.
//
// The server is a socket front end over one Session (service/session.hpp),
// which owns the CampaignRunner, the write-ahead journal and the
// digest-keyed result cache; any number of clients connect, SUBMIT job
// specs (kind + ParamMap, see service/jobs.hpp) and stream back per-job
// RESULT frames as workers finish them. Deduplication happens in the
// session before any simulation: a spec already finished this session (or
// in a resumed journal), in the result cache, or currently in flight is
// served without touching a worker, so N clients sweeping the same grid
// cost one simulation per point.
//
// Concurrency model: one accept thread, one reader thread per connection,
// results pushed from the runner's completion hook (worker threads). Every
// frame is sent with one write under the connection's write mutex, so
// concurrent pushes never interleave mid-frame. Framing violations close
// the connection after one structured ERROR frame; semantic errors are
// answered and the connection keeps serving (see service/protocol.hpp).
//
// Graceful stop: SIGINT/SIGTERM (via campaign::install_stop_signal_handlers
// + serve()) broadcast request_stop() to every guarded simulation through
// the runner's watchdog; in-flight jobs are journaled as interrupted, their
// RESULT frames still stream out, and serve() returns 130.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/jobs.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"

namespace adriatic::service {

/// The session's options (threads, processes, campaign_name, journal_path,
/// resume, cache_path) plus the socket and the per-job robustness knobs.
struct ServerOptions : SessionOptions {
  std::string socket_path;
  /// Per-job robustness knobs, applied to every SUBMIT.
  u32 max_attempts = 2;
  double wall_timeout_seconds = 60.0;
  double heartbeat_timeout_seconds = 10.0;
};

/// Monotonic server counters, surfaced by STATS frames and counters(): the
/// session's (requests = SUBMITs accepted) plus the socket's own.
struct ServerCounters : SessionCounters {
  u64 connections = 0;  ///< Connections accepted over the lifetime.
  u64 errors = 0;       ///< ERROR frames sent.
};

class CampaignServer {
 public:
  explicit CampaignServer(ServerOptions opt);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Registers a job kind; must be called before start(). Later
  /// registrations of the same name win.
  void register_kind(const std::string& name, JobBuilder builder);

  /// Starts the session, binds the socket and spins up the accept thread.
  /// False (with a log line) on bind/journal/cache errors.
  [[nodiscard]] bool start();

  /// Graceful stop: refuse new SUBMITs, drain the runner (in-flight jobs
  /// finish or quarantine as interrupted), flush the journal, close every
  /// connection and remove the socket. Idempotent.
  void stop();

  /// start() + block until request_shutdown() or a SIGINT/SIGTERM stop
  /// (campaign::install_stop_signal_handlers must be installed by the
  /// caller), then stop(). Returns 0 on a requested shutdown, 130 on a
  /// signal stop, 2 when start() fails.
  int serve();

  /// Unblocks serve() for a clean exit (tests, DRAIN-then-quit tooling).
  void request_shutdown();

  [[nodiscard]] ServerCounters counters() const;
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return opt_.socket_path;
  }

 private:
  struct Connection {
    int fd = -1;
    std::thread reader;
    std::mutex write_mu;        ///< One frame per write_all(), never torn.
    std::set<u64> seen_ids;     ///< Duplicate-id detection, per connection.
    std::atomic<bool> watching{false};
    std::atomic<bool> open{true};
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const Request& req);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const Request& req);
  /// Sends one frame under the connection's write lock; a failed write
  /// marks the connection closed (the reader notices on its next read).
  void send_frame(const std::shared_ptr<Connection>& conn,
                  const std::string& frame);
  /// send_frame() for a caller that already holds conn.write_mu.
  static void write_frame_locked(Connection& conn, const std::string& frame);
  void send_error(const std::shared_ptr<Connection>& conn, u64 id,
                  ErrorCode code, const std::string& detail);
  /// RESULT to every WATCHing connection but `except`, the one the result
  /// answers (it gets its own frame keyed by its request id).
  void broadcast_result(u64 spec, const campaign::JobStats& stats,
                        const Connection* except);

  ServerOptions opt_;
  Session session_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<u64> connections_{0};
  std::atomic<u64> errors_{0};

  std::mutex cmu_;  ///< Guards conns_.
  std::vector<std::shared_ptr<Connection>> conns_;

  std::mutex smu_;  ///< serve() wakeup.
  std::condition_variable scv_;
  bool shutdown_requested_ = false;
};

}  // namespace adriatic::service
