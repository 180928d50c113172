// One campaign session: the socket-free core that campaignd and the local
// sweep tools share. A Session owns the CampaignRunner, the write-ahead
// journal and the result cache, and gives every job one of three dedup
// tiers before any simulation: finished (run this session, or done in a
// resumed journal), cache, or in flight (attach to the running job).
// Anything else is fresh. Admission is two-phase — admit() decides,
// launch() hands a fresh job to the runner — so campaignd can write its OK
// frame in between and no RESULT overtakes it.
//
// A record served back to the job that produced it (a resumed sweep's
// journal restore) keeps from_cache == false; every other served copy is
// flagged from_cache.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/result_cache.hpp"
#include "service/client.hpp"
#include "service/jobs.hpp"
#include "service/protocol.hpp"

namespace adriatic::service {

struct SessionOptions {
  /// Worker threads; 0 = campaign::default_thread_count().
  usize threads = 0;
  /// Fork one child per job attempt (crash containment); degrades to
  /// threads where fork is unusable.
  bool processes = false;
  /// Campaign name written into the journal header and STATS replies; a
  /// resumed sweep refuses a journal of another campaign.
  std::string campaign_name = "campaignd";
  std::string journal_path;  ///< Empty = no journal.
  bool resume = false;       ///< Append to an existing journal.
  std::string cache_path;    ///< Empty = no cross-run result cache.
};

struct SessionCounters {
  u64 requests = 0;     ///< Jobs admitted (dedup-served ones included).
  u64 dedup_hits = 0;   ///< Jobs served without a fresh simulation.
  u64 jobs_done = 0;    ///< Fresh jobs that committed a done record.
  u64 jobs_failed = 0;  ///< Fresh jobs that failed or quarantined.
};

/// `job.kind` + `job.params` resolve through the session's kinds, as
/// campaignd resolves a SUBMIT; a set `body` replaces that lookup for
/// tool-local jobs no socket client can name, which always run fresh and
/// are never cached. The session fills in `opt.stats_index` and `opt.spec`.
struct SessionJob {
  ServiceJob job;
  campaign::JobOptions opt;
  JobBody body;
};

class Session {
 public:
  /// Gets the committed record of a job that needed a simulation, on the
  /// worker thread, outside the session lock.
  using Delivery =
      std::function<void(u64 spec, const campaign::JobStats& stats)>;

  struct Admission {
    std::optional<ErrorCode> error;  ///< Set: refused, `detail` says why.
    std::string detail;
    usize index = 0;
    bool fresh = false;  ///< Needs launch().
    std::optional<campaign::JobStats> served;  ///< Finished or cache tier.

   private:
    friend class Session;
    std::string label;
    campaign::JobOptions opt;
    JobBody body;
  };

  explicit Session(SessionOptions opt);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Registers a job kind before start(); a later same-name one wins.
  void register_kind(const std::string& name, JobBuilder builder);

  /// Opens the journal and the cache (neither: no file I/O) and starts the
  /// runner. A non-empty `plan` (each `job.index` its campaign index) is
  /// journaled up front, or, when resuming, must match the journal's
  /// campaign and planned specs. Returns an error message, empty on success.
  [[nodiscard]] std::string start(const std::vector<SessionJob>& plan = {});

  /// Resolves the job's body and picks its tier; `deliver` is kept only for
  /// a job that needs a simulation.
  [[nodiscard]] Admission admit(const SessionJob& job, Delivery deliver);
  void launch(Admission& adm);

  /// Refuses further admissions and wakes drain() waiters.
  void close();
  /// Blocks until every admitted job has been delivered, or until close().
  void drain();
  /// Waits for the runner, then at most `grace` for deliveries (one may be
  /// blocked on a client that stopped reading), then flushes the journal.
  void drain_for(std::chrono::milliseconds grace);
  /// close(), waits for every job, releases the runner and flushes the
  /// journal. Idempotent.
  void stop();

  [[nodiscard]] SessionCounters counters() const;
  [[nodiscard]] usize thread_count() const noexcept {
    return runner_ != nullptr ? runner_->thread_count() : 0;
  }
  [[nodiscard]] bool processes() const noexcept {
    return runner_ != nullptr &&
           runner_->mode() == campaign::ExecutionMode::kProcesses;
  }

  /// Reads `opt.journal_path` as a resume of `plan` would; nullopt with
  /// `error` set for an unreadable journal or, given a plan, one of another
  /// campaign or planned spec set.
  [[nodiscard]] static std::optional<campaign::JournalState> read_journal_for(
      const SessionOptions& opt, const std::vector<SessionJob>& plan,
      std::string& error);

 private:
  struct Pending {
    u64 spec = 0;
    bool shared = true;  ///< Built from a kind: feeds the dedup tiers.
    std::vector<Delivery> deliveries;
  };

  /// Runner completion hook: finished tier, cache, then the deliveries.
  void on_complete(const campaign::JobStats& stats);
  [[nodiscard]] bool all_delivered() const {  // mu_ held
    return pending_.empty() && delivering_ == 0;
  }

  SessionOptions opt_;
  std::vector<std::pair<std::string, JobBuilder>> kinds_;
  bool planned_ = false;

  std::unique_ptr<campaign::CampaignJournal> journal_;
  std::unique_ptr<campaign::ResultCache> cache_;
  std::unique_ptr<campaign::CampaignRunner> runner_;

  mutable std::mutex mu_;  ///< Guards everything below.
  std::condition_variable cv_drain_;
  std::atomic<bool> closed_{true};  ///< Until start(), and after close().
  usize next_index_ = 0;
  std::map<usize, Pending> pending_;      ///< In flight, by index.
  std::map<u64, usize> pending_by_spec_;  ///< Spec -> in-flight index.
  usize delivering_ = 0;  ///< Out of pending_, deliveries still running.
  /// Finished tier: spec -> record (its index is the job that produced it).
  std::map<u64, campaign::JobStats> finished_;
  SessionCounters counters_;
};

/// run_jobs_over_service()'s in-process twin: runs `jobs` (each `job.index`
/// its position) through one session built from `opt` and blocks until
/// every job has a record. A refused resume or an unopenable journal or
/// cache comes back as `error`, with no stats.
[[nodiscard]] ServiceRunResult run_sweep(const SessionOptions& opt,
                                         const std::vector<SessionJob>& jobs);

/// The serial reference: each job's builtin_kinds() body inline on the
/// calling thread (campaign::run_inline), in list order.
[[nodiscard]] ServiceRunResult run_inline_jobs(
    const std::vector<ServiceJob>& jobs);

}  // namespace adriatic::service
