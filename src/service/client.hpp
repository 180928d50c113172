// Thin client for the campaign service: a blocking line-framed connection
// to campaignd plus a convenience runner that submits a batch of job specs
// and collects their streamed results — the whole of what
// `fault_sweep --server` / `dse_explorer --server` need to behave exactly
// like a local sweep whose simulations happen elsewhere.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "service/protocol.hpp"

namespace adriatic::service {

class ServiceClient {
 public:
  /// Connects to campaignd's Unix-domain socket; null (with a log line) on
  /// failure.
  static std::unique_ptr<ServiceClient> connect(
      const std::string& socket_path);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Request senders; false when the connection is dead. Ids are caller-
  /// chosen, nonzero, unique per connection.
  bool submit(u64 id, u64 spec, const std::string& kind,
              const std::string& label, const ParamMap& params);
  bool watch(u64 id);
  bool stats(u64 id);
  bool drain(u64 id);
  /// Escape hatch for protocol tests: puts raw bytes on the wire verbatim.
  bool send_raw(const std::string& bytes);

  /// Blocks for the next response frame. nullopt on EOF or on a wire-layer
  /// violation — check wire_error() to tell the two apart. Malformed server
  /// frames (fatal or not) latch wire_error(): a client has no business
  /// trusting a server that miscodes frames.
  [[nodiscard]] std::optional<Response> next_response();

  [[nodiscard]] const std::optional<WireError>& wire_error() const noexcept {
    return err_;
  }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  explicit ServiceClient(int fd) : fd_(fd) {}
  int fd_ = -1;
  LineParser parser_;
  std::optional<WireError> err_;
};

// -- Batch runner ------------------------------------------------------------

/// One job to run over the service; `index` is the caller's local campaign
/// index (the server assigns its own, which the runner maps back).
struct ServiceJob {
  usize index = 0;
  u64 spec = 0;
  std::string kind;
  std::string label;
  ParamMap params;
};

struct ServiceRunResult {
  bool ok = false;
  std::string error;  ///< First hard failure (connect/send/protocol).
  /// Results keyed by the caller's local index, with index/label already
  /// rewritten to local values; jobs the server errored on are absent.
  std::map<usize, campaign::JobStats> stats;
  /// requests = jobs submitted; dedup_hits = results the server served
  /// without simulating (JobStats::from_cache).
  campaign::ServiceTotals totals;
  bool interrupted = false;  ///< Some results came back quarantined
                             ///< "interrupted" (server was signal-stopped).
  /// In-process runs only: the worker threads, and the jobs a resumed
  /// journal restored without re-running them.
  usize threads = 0;
  usize restored = 0;

  /// Files `stats` under `job`'s local index and label, counting it.
  void add(const ServiceJob& job, campaign::JobStats stats);
  /// One record per job, in order; a job without a result gets a
  /// done == false placeholder.
  [[nodiscard]] std::vector<campaign::JobStats> records(
      const std::vector<ServiceJob>& jobs) const;
};

/// Submits every job over one connection and blocks until each has a RESULT
/// frame (or an ERROR frame / dead connection ends the run). Server-side
/// dedup is transparent: cache-served results arrive flagged from_cache.
[[nodiscard]] ServiceRunResult run_jobs_over_service(
    const std::string& socket_path, const std::vector<ServiceJob>& jobs);

}  // namespace adriatic::service
