// Digest-keyed cross-run result cache: spec_hash -> serialized JobStats.
//
// A campaign session (service/session.hpp) opens the cache next to its
// journal, looks every job up by its spec hash before simulating it, and
// stores every cleanly finished result. A warm rerun of the same sweep then
// re-simulates nothing — the cached JobStats (including the scheduler-trace
// digest and the tool's user_data payload) is installed verbatim and
// flagged from_cache so reports can surface cross-run dedup counts.
//
// File format (an AppendLog: append-only, one fsync'd line per entry,
// torn-tolerant):
//   R adriatic-result-cache v1
//   E <spec_hash_hex> v1 <encode_job_stats() tail>
// Every line carries the journal's ` cks=<fnv1a_hex>` suffix. On load,
// lines that fail the checksum (torn tail writes), carry an unknown entry
// version (stale schema) or do not parse are dropped and counted — a
// damaged cache degrades to cache misses, never to wrong results. The last
// entry per spec wins, so re-storing a spec just appends.
//
// Reuse caveat: a cache hit is only as sound as the spec hash. The hash
// must fold *every* input that affects the simulation (label, seed,
// parameters, timing mode, quantum...); a tool that widens its parameter
// space must widen its spec_hash() call the same way, or stale results
// will be served for configurations that merely share a label.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "util/types.hpp"

namespace adriatic::campaign {

class ResultCache {
 public:
  /// Opens `path` for read + append, creating it (with a header) when
  /// missing and resetting it when the header is unreadable — it is a
  /// cache, so a damaged file is discarded, not trusted. Existing entries
  /// are loaded eagerly. Null only on hard I/O errors (unwritable path).
  static std::unique_ptr<ResultCache> open(const std::string& path);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The stats stored for `spec`, exactly as simulated (from_cache is NOT
  /// set — the caller decides how to flag served copies). nullopt on miss.
  [[nodiscard]] std::optional<JobStats> lookup(u64 spec) const;

  /// Persists a cleanly finished result (fsync'd append). Ignores stats
  /// that are not done, failed, quarantined, or themselves served from the
  /// cache — only genuine simulation outcomes are worth replaying.
  void store(u64 spec, const JobStats& stats);

  [[nodiscard]] usize size() const;
  /// Lines dropped on load: torn writes, checksum failures, stale entry
  /// versions.
  [[nodiscard]] usize dropped_lines() const noexcept { return dropped_; }

 private:
  explicit ResultCache(std::unique_ptr<AppendLog> log)
      : log_(std::move(log)) {}

  mutable std::mutex mu_;
  std::unique_ptr<AppendLog> log_;
  std::map<u64, std::string> entries_;  ///< spec -> encode_job_stats() tail.
  usize dropped_ = 0;
};

}  // namespace adriatic::campaign
