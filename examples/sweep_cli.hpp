// The command line the campaign sweep tools (fault_sweep, dse_explorer)
// share: the flags that choose how a job list runs, and the run itself.
// The tools build their job lists and render the results; everything in
// between is this header plus the service library.
#pragma once

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "service/client.hpp"
#include "service/session.hpp"

namespace adriatic::examples {

struct SweepCli {
  const char* tool = "";
  bool serial = false;
  bool processes = false;
  usize jobs = 0;  ///< 0 = campaign::default_thread_count()
  std::string report_path;
  std::string journal_path;
  std::string resume_path;
  std::string cache_path;
  std::string server_path;

  /// Consumes argv[i] (and its value) when it is a shared flag.
  bool parse(int argc, char** argv, int& i) {
    const std::pair<const char*, std::string*> paths[] = {
        {"--report", &report_path}, {"--journal", &journal_path},
        {"--resume", &resume_path}, {"--cache", &cache_path},
        {"--server", &server_path}};
    for (const auto& [flag, path] : paths) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *path = argv[++i];
        return true;
      }
    }
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      char* end = nullptr;
      jobs = static_cast<usize>(std::strtoul(argv[++i], &end, 10));
      return end != argv[i] && *end == '\0';
    }
    if (std::strcmp(argv[i], "--serial") == 0) {
      serial = true;
    } else if (std::strcmp(argv[i], "--processes") == 0) {
      processes = true;
    } else {
      return false;
    }
    return true;
  }

  /// False (with the reason on stderr) for flags that cannot go together.
  /// `local_jobs`: the tool adds jobs only an in-process session can run.
  [[nodiscard]] bool valid(bool local_jobs) const {
    const bool session_flags = !journal_path.empty() ||
                               !resume_path.empty() || processes ||
                               !cache_path.empty() || local_jobs;
    const char* conflict = nullptr;
    if (!journal_path.empty() && !resume_path.empty())
      conflict = "--journal and --resume are exclusive";
    else if (serial && session_flags)
      conflict = "--serial runs the sweep inline; drop the session flags";
    else if (!server_path.empty() && (serial || session_flags))
      conflict = "--server delegates execution to campaignd; drop the local "
                 "runner flags";
    if (conflict != nullptr) std::cerr << tool << ": " << conflict << '\n';
    return conflict == nullptr;
  }

  [[nodiscard]] service::SessionOptions session() const {
    service::SessionOptions so;
    so.threads = jobs;
    so.processes = processes;
    so.campaign_name = tool;
    so.journal_path = resume_path.empty() ? journal_path : resume_path;
    so.resume = !resume_path.empty();
    so.cache_path = cache_path;
    return so;
  }

  /// Runs the job list: inline with --serial, over campaignd's socket with
  /// --server, else through an in-process session built from `so`, whose
  /// `local` list is `sweep` plus any tool-local jobs. SIGINT/SIGTERM wind
  /// a local sweep down gracefully (partial, journaled, reportable). An
  /// error goes to stderr; with no stats at all the run never started.
  [[nodiscard]] service::ServiceRunResult run(
      const std::vector<service::ServiceJob>& sweep,
      const std::vector<service::SessionJob>& local,
      const service::SessionOptions& so) const {
    service::ServiceRunResult run;
    if (serial) {
      run = service::run_inline_jobs(sweep);
    } else if (!server_path.empty()) {
      run = service::run_jobs_over_service(server_path, sweep);
    } else {
      campaign::install_stop_signal_handlers();
      run = service::run_sweep(so, local);
    }
    if (!run.error.empty()) std::cerr << tool << ": " << run.error << '\n';
    return run;
  }

  /// How many jobs did not need a simulation, and why.
  void print_dedup(const service::ServiceRunResult& run) const {
    if (run.restored > 0)
      std::cout << run.restored
                << " job(s) restored from the journal (not re-run)\n";
    if (run.totals.dedup_hits > 0)
      std::cout << run.totals.dedup_hits << " job(s) served from the "
                << (server_path.empty() ? "result" : "service")
                << " cache (not re-simulated)\n";
  }
};

}  // namespace adriatic::examples
