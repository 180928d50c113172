// Crash-safe campaign journaling: a write-ahead journal that survives
// SIGKILL mid-sweep. Every planned job, begun attempt, and completed result
// is an fsync'd append-only line with a per-line checksum (torn tail writes
// from a crash are detected and dropped on read). A killed campaign resumes
// with `--resume <journal>`: completed JobStats are restored verbatim from
// their `D` records, only unfinished/quarantined jobs re-run, and the
// journaled scheduler-trace digests let the resumed results be verified
// against the original run.
//
// Line grammar (space-separated tokens, strings percent-encoded):
//   J adriatic-campaign-journal v1 name=<campaign>
//   P <index> <spec_hash_hex> <label>       -- job planned
//   B <index> <attempt>                     -- attempt begun
//   D <index> key=value ...                 -- result (full JobStats)
//   X <index> <reason>                      -- worker child died (process
//                                              mode: crash/timeout kill)
// Every line ends with ` cks=<fnv1a_hex>` over the preceding content. The
// last D record per index wins; a D with done=0 (quarantined/interrupted)
// leaves the job eligible for re-run. Journals written before the cache-hit
// record was dropped may still hold `C <spec_hash_hex>` lines; read_journal()
// skips them like any other unknown record.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "util/types.hpp"

namespace adriatic::campaign {

/// Identity of one planned job: FNV-1a over the label folded with a
/// caller-supplied parameter digest. Resume refuses to reuse a journal whose
/// planned specs do not match the jobs the tool is about to run.
[[nodiscard]] u64 spec_hash(const std::string& label, u64 param_digest = 0);

// -- Wire helpers ------------------------------------------------------------
// Shared by the journal, the process-worker pipe frames (worker_pool.cpp)
// and the result cache (result_cache.cpp), so every JobStats restore path —
// journal resume, child-to-parent pipe, warm cache — deserialises the exact
// same byte layout.

[[nodiscard]] u64 fnv1a(const std::string& s,
                        u64 seed = 14695981039346656037ULL);
/// Percent-encodes control bytes, space, DEL and '%' so a string field stays
/// one splittable token.
[[nodiscard]] std::string encode_field(const std::string& s);
[[nodiscard]] std::string decode_field(const std::string& s);
/// " cks=<fnv1a_hex>" over `content`; appended to every journal/cache line.
[[nodiscard]] std::string checksum_suffix(const std::string& content);
/// Splits "content cks=hex" and verifies; nullopt on mismatch (torn line).
[[nodiscard]] std::optional<std::string> strip_checksum(
    const std::string& line);
/// write()s all of `data` to a file, pipe or socket, retrying on EINTR and
/// short writes; false on a hard error (EPIPE, closed fd). One call per
/// record or frame keeps it whole under the caller's lock. Sockets are
/// written with MSG_NOSIGNAL: a vanished peer is a failed write, not a
/// process-killing SIGPIPE.
bool write_all(int fd, const std::string& data);
/// Serialises every populated JobStats field as the `key=value ...` tail of
/// a D record (everything after "D <index>"). Field order is fixed and
/// optional blocks are emitted only when their has_* flag (or a non-default
/// value) is set, so encoding the same stats twice is byte-identical.
[[nodiscard]] std::string encode_job_stats(const JobStats& s);
/// Parses an encode_job_stats() tail; absent keys keep their defaults and
/// unknown keys are ignored (stale-schema tolerance). `index` is not part
/// of the tail — callers carry it beside the payload.
[[nodiscard]] JobStats decode_job_stats(const std::string& tail);

/// The one append-only, checksummed line log under the journal and the
/// result cache: every append is a single `content cks=<fnv1a_hex>\n`
/// write (EINTR-safe), fsync'd before it returns, so a crash loses at most
/// the line in flight, whose torn tail read_log() rejects.
class AppendLog {
 public:
  /// Creates (truncates) `path` and appends `header`. Null on I/O error.
  static std::unique_ptr<AppendLog> create(const std::string& path,
                                           const std::string& header);
  /// Opens an existing log for appending. Null on I/O error.
  static std::unique_ptr<AppendLog> append_to(const std::string& path);
  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Appends `content` + checksum + newline, then fsyncs. False (with a log
  /// line) when the write fails.
  bool append(const std::string& content);
  /// fsync barrier (appends already sync; this is for explicit barriers,
  /// e.g. before a graceful signal-stop exit).
  void flush();

 private:
  AppendLog(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  std::mutex mu_;  ///< Serialises appends from worker threads.
  int fd_ = -1;
  std::string path_;
};

/// Reads a log in one pass: `visit` gets the content of every non-empty
/// line whose checksum verifies, in file order, and may return false to
/// stop early. Returns the number of lines that failed their checksum (torn
/// writes, bit rot), or nullopt when the file cannot be opened.
std::optional<usize> read_log(
    const std::string& path,
    const std::function<bool(const std::string& content)>& visit);

class CampaignJournal {
 public:
  /// Creates (truncates) `path` and writes the header. Null on I/O error.
  static std::unique_ptr<CampaignJournal> create(const std::string& path,
                                                 const std::string& campaign);
  /// Opens an existing journal for appending (resume). Null on I/O error.
  static std::unique_ptr<CampaignJournal> append_to(const std::string& path);

  void record_planned(usize index, u64 spec, const std::string& label);
  void record_begun(usize index, u32 attempt);
  void record_done(const JobStats& stats);
  /// Process mode: a forked worker child died without a result (crash,
  /// timeout kill, heartbeat kill); `reason` is WorkerFailure::reason().
  void record_worker_death(usize index, const std::string& reason);
  void flush() { log_->flush(); }

  explicit CampaignJournal(std::unique_ptr<AppendLog> log)
      : log_(std::move(log)) {}

 private:
  std::unique_ptr<AppendLog> log_;
};

/// Everything a resume needs from a journal read-back.
struct JournalState {
  std::string campaign;
  struct Planned {
    u64 spec = 0;
    std::string label;
  };
  std::map<usize, Planned> planned;
  /// Jobs whose latest D record has done == true, restored verbatim.
  std::map<usize, JobStats> completed;
  usize begun_records = 0;  ///< B lines seen (attempts started pre-crash).
  usize torn_lines = 0;     ///< Lines dropped by the checksum (torn writes).
  struct WorkerDeath {
    usize index = 0;
    std::string reason;
  };
  std::vector<WorkerDeath> worker_deaths;  ///< X lines, in journal order.
};

/// Reads a journal back; nullopt when the file is missing or its header is
/// unreadable. Checksum-failing lines are dropped (counted in torn_lines),
/// so a journal truncated mid-append by SIGKILL still loads.
[[nodiscard]] std::optional<JournalState> read_journal(
    const std::string& path);

}  // namespace adriatic::campaign
