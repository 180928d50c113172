// Fault-injection sweep: recovery policy x configuration-fetch error rate
// x context-scheduler policy (on-demand vs hybrid prefetch) for a
// two-context DRCF, measuring availability (transactions that complete)
// and the recovery work each policy performs. Demonstrates the robustness
// story end to end: a seeded FaultPlan on the fabric's fetch path, the
// recovery policies reacting to it, and the fault ledger surfacing in the
// campaign report.
//
// The model is built by hand (no netlist CPU — the driver must observe bus
// errors rather than abort on them): a split-transaction bus, a configuration
// memory holding the synthetic bitstreams, and two small data memories
// wrapped as DRCF contexts. A driver thread ping-pongs between the contexts
// so every step forces a reconfiguration, maximising exposure to fetch
// faults.
//
// Build & run:  ./build/examples/fault_sweep [--seed N] [--serial]
//               [--jobs N] [--report FILE.json] [--journal FILE.wal]
//               [--resume FILE.wal [--verify-resume]] [--throttle-ms N]
//               [--processes] [--cache FILE] [--inject-failures]
//               [--mem-budget-mb N] [--inject-oversized]
//               [--server SOCKET]
//
// The sweep is one job list (spec, kind, label, params) whose bodies come
// from the builtin_kinds() builders in every mode: --serial runs them
// inline, a local run goes through an in-process campaign session
// (service/session.hpp, the core campaignd runs), and --server only swaps
// the transport.
//
// With --journal every planned job, begun attempt and finished result is an
// fsync'd write-ahead record; a sweep killed mid-run (SIGKILL included)
// restarts with --resume, re-running only the jobs the journal does not show
// as done. SIGINT/SIGTERM stop the sweep gracefully: running simulations get
// request_stop(), the journal is flushed, and --report still emits a valid
// partial report (exit status 130). --verify-resume reads the journal, runs
// the whole sweep again in a fresh session and checks every journaled
// scheduler-trace digest against the re-run (exit 4 on a mismatch).
//
// --processes runs every job in a forked child (crash containment: a
// segfaulting or spinning job is quarantined with a structured reason, the
// sweep completes). --cache keeps a digest-keyed result cache across runs:
// jobs whose spec hash is already cached are served without re-simulating
// and flagged "cached" in the report. --inject-failures appends two
// deliberately broken jobs (a segfault and a CPU spin) to exercise the
// containment path — see docs/campaign.md. They are local jobs with their
// own bodies, not kinds a socket client could submit.
//
// --mem-budget-mb caps the process-wide paged-store budget (also settable
// via ADRIATIC_MEM_BUDGET_MB); --inject-oversized appends a job whose model
// cannot fit that budget, demonstrating graceful degradation: the job is
// quarantined "budget-quarantined" while the rest of the sweep completes —
// see docs/memory.md. The two contexts' bitstreams land on page-aligned
// offsets, so every job attaches the same two interned images instead of
// materialising private configuration pages.
//
// --server SOCKET runs the sweep as a thin client of campaignd
// (docs/service.md): the same 24 job specs are submitted over the socket,
// the daemon schedules them on its own pool (consulting its result cache
// first) and streams back per-job results; the table and --report are
// byte-identical to a local run modulo timing fields.
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "conformance/digest.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "service/client.hpp"
#include "service/jobs.hpp"
#include "service/session.hpp"
#include "sweep_cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace adriatic;

namespace {

constexpr int kSteps = 24;  // driver steps per point (see service/jobs.cpp)

/// One sweep point; the simulation body lives in service/jobs.cpp
/// (run_fault_point), shared verbatim with campaignd so a --server run is
/// the same code executing in another process.
using SweepConfig = service::FaultPointSpec;

/// Rebuilds a run_point() table row from a JobStats, whichever path the
/// stats took (fresh run, forked child, journal restore, cache hit).
std::vector<std::string> row_from_stats(const campaign::JobStats& s) {
  if (!s.done || s.user_data.empty()) return {};
  return split(s.user_data, '\t');
}

}  // namespace

int main(int argc, char** argv) {
  examples::SweepCli cli;
  cli.tool = "fault_sweep";
  bool verify_resume = false;
  bool inject_failures = false;
  bool inject_oversized = false;
  u64 mem_budget_mb = 0;
  u64 seed = 1;
  unsigned throttle_ms = 0;
  const auto usage = [] {
    std::cerr << "usage: fault_sweep [--seed N] [--serial] [--jobs N] "
                 "[--report FILE.json]\n"
                 "                   [--journal FILE.wal | --resume FILE.wal "
                 "[--verify-resume]]\n"
                 "                   [--throttle-ms N] [--processes] "
                 "[--cache FILE] [--inject-failures]\n"
                 "                   [--mem-budget-mb N] [--inject-oversized]\n"
                 "                   [--server SOCKET]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (cli.parse(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--verify-resume") == 0) {
      verify_resume = true;
    } else if (std::strcmp(argv[i], "--throttle-ms") == 0 && i + 1 < argc) {
      throttle_ms =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--inject-failures") == 0) {
      inject_failures = true;
    } else if (std::strcmp(argv[i], "--inject-oversized") == 0) {
      inject_oversized = true;
    } else if (std::strcmp(argv[i], "--mem-budget-mb") == 0 && i + 1 < argc) {
      mem_budget_mb = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }
  if (!cli.valid(inject_failures || inject_oversized)) return 2;
  if (verify_resume && cli.resume_path.empty()) return usage();
  if ((inject_failures || inject_oversized) && !cli.resume_path.empty()) {
    std::cerr << "fault_sweep: --inject-failures/--inject-oversized cannot "
                 "be combined with --resume\n";
    return 2;
  }
  if (mem_budget_mb > 0)
    mem::MemoryBudget::instance().set_limit_bytes(mem_budget_mb * 1024 *
                                                  1024);

  // Policy indices are drcf::RecoveryPolicy values (fail_fast=0,
  // retry_backoff=1, fallback=2); jobs.cpp casts them back.
  const std::pair<const char*, u32> policies[] = {
      {"fail_fast", 0},
      {"retry_backoff", 1},
      {"fallback", 2},
  };
  const u32 rates[] = {0, 2, 5, 10};

  std::vector<SweepConfig> configs;
  for (const auto& [pname, policy] : policies)
    for (const u32 rate : rates)
      for (const bool prefetch : {false, true})
        configs.push_back({std::string(pname) + "/r" + std::to_string(rate) +
                               (prefetch ? "/hybrid" : "/demand"),
                           policy, rate, seed * 1000 + configs.size(),
                           prefetch, throttle_ms});

  // The sweep's job list, one for every mode. Its spec hashes fold every
  // parameter that shapes a point, so --resume refuses a journal written
  // for a different --seed or policy/rate grid. --server hands the list to
  // a running campaignd, which runs the same run_fault_point() bodies and
  // dedups against its result cache, so a warm pass reports dedup_ratio 1.0.
  std::vector<service::ServiceJob> sweep;
  for (usize i = 0; i < configs.size(); ++i)
    sweep.push_back({i, service::fault_point_spec_hash(configs[i]),
                     "fault_point", configs[i].label,
                     service::fault_point_params(configs[i])});

  // Locally, each point gets a generous wall-clock budget and one retry so
  // a wedged run is quarantined instead of hanging the sweep. In process
  // mode the heartbeat timeout also kills children that die without
  // exiting.
  campaign::JobOptions opt;
  opt.max_attempts = 2;
  opt.wall_timeout_seconds = 60.0;
  opt.heartbeat_timeout_seconds = 10.0;
  std::vector<service::SessionJob> local;
  for (const auto& job : sweep) local.push_back({job, opt, {}});
  const auto add_local = [&](const std::string& label, campaign::JobOptions o,
                             service::JobBody body) {
    sweep.push_back({sweep.size(), campaign::spec_hash(label), "", label, {}});
    local.push_back({sweep.back(), o, std::move(body)});
  };
  // --inject-failures appends two deliberately broken jobs AFTER the sweep
  // grid, so the 24 real points stay comparable with a clean run: a child
  // that segfaults (quarantined "signal:SIGSEGV" after its retries) and one
  // that spins forever (the supervisor's wall deadline kills it, reason
  // "timeout"). In thread mode the hooks are inert no-op jobs.
  if (inject_failures) {
    campaign::JobOptions segv = opt;
    segv.debug_failure = campaign::DebugFailure::kSegv;
    add_local("debug/segv", segv, [](campaign::JobContext&) {});
    // The spin never finishes; give the supervisor a short deadline and do
    // not retry what can only time out again.
    campaign::JobOptions hang = opt;
    hang.debug_failure = campaign::DebugFailure::kHangCpu;
    hang.wall_timeout_seconds = 2.0;
    hang.max_attempts = 1;
    add_local("debug/hang-cpu", hang, [](campaign::JobContext&) {});
  }
  // --inject-oversized appends one more: a job whose model cannot fit the
  // paged-store budget. Materialising its pages throws BudgetExceededError
  // on the plain call stack (no simulation is ever run), which the runner
  // turns into a "budget-quarantined" verdict in both thread and process
  // mode while every other job completes normally.
  if (inject_oversized) {
    campaign::JobOptions o = opt;
    o.max_attempts = 1;  // a retry can only blow the budget again
    add_local("debug/oversized", o, [](campaign::JobContext&) {
      kern::Simulation sim;
      kern::Module top(sim, "top");
      // 64 MiB of pages, far past any sensible sweep budget; touch each
      // page so the sparse store actually materialises them.
      constexpr usize kHugeWords = usize{16} << 20;
      mem::Memory big(top, "oversized_mem", 0, kHugeWords);
      for (usize w = 0; w < kHugeWords; w += mem::kPageWords)
        big.poke(static_cast<bus::addr_t>(w), 1);
    });
  }

  // The in-process session: resume validates the journal's identity first
  // (same campaign, same planned job set), otherwise it refuses rather than
  // merge unrelated results.
  service::SessionOptions so = cli.session();
  // --verify-resume: the journal's finished records, checked against a
  // fresh, journal- and cache-free run of the whole sweep.
  std::map<usize, campaign::JobStats> journaled;
  if (verify_resume) {
    std::string error;
    const auto state = service::Session::read_journal_for(so, local, error);
    if (!state.has_value()) {
      std::cerr << "fault_sweep: " << error << '\n';
      return 2;
    }
    journaled = state->completed;
    so.journal_path.clear();
    so.resume = false;
    so.cache_path.clear();
  }

  const auto run = cli.run(sweep, local, so);
  if (!run.ok && run.stats.empty()) return 2;
  const std::vector<campaign::JobStats> job_stats = run.records(sweep);

  Table t("Fault sweep: recovery policy x fetch error rate x scheduler (" +
          std::to_string(kSteps) + " steps, seed " + std::to_string(seed) +
          (cli.server_path.empty() ? "" : ", via " + cli.server_path) + ")");
  t.header({"policy/rate/sched", "steps ok", "fetch errs", "retries",
            "fallbacks", "injected", "cache hits", "availability"});
  // Rows come from the stats' user_data payload, so journal-restored,
  // cache-served and process-mode jobs all print alongside fresh ones.
  for (const auto& s : job_stats) {
    const auto row = row_from_stats(s);
    if (!row.empty()) t.row(row);
  }
  t.print(std::cout);
  cli.print_dedup(run);
  if (run.interrupted)
    std::cerr << "fault_sweep: interrupted — report/journal hold partial "
                 "results; resume with --resume\n";

  int verify_failures = 0;
  if (verify_resume) {
    for (const auto& [idx, stats] : journaled) {
      if (idx >= job_stats.size()) continue;
      const campaign::JobStats& fresh = job_stats[idx];
      if (!fresh.done || fresh.digest != stats.digest) {
        std::cerr << "verify-resume: job " << idx << " (" << stats.label
                  << ") digest mismatch: journal "
                  << conformance::digest_str(stats.digest) << ", re-run "
                  << conformance::digest_str(fresh.digest) << '\n';
        ++verify_failures;
      }
    }
    if (verify_failures == 0 && !journaled.empty())
      std::cout << journaled.size()
                << " journaled digest(s) verified against re-runs\n";
  }

  if (!cli.report_path.empty())
    campaign::write_report_file(
        cli.report_path, "fault_sweep", run.threads, job_stats,
        cli.server_path.empty() ? nullptr : &run.totals);
  if (verify_failures > 0) return 4;
  if (run.interrupted) return 130;
  return run.ok ? 0 : 3;
}
