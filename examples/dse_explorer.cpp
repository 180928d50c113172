// Design-space explorer: sweeps reconfigurable technology x slot count x
// memory organisation x context-scheduler policy for the WLAN-style
// three-kernel application, collects (latency, area, reconfig energy,
// inflexibility, fetched config bytes) for every point, and prints the
// Pareto front — the "true design space exploration at the system level"
// the paper positions the methodology for.
//
// Every design point is an independent simulation, so the sweep is one job
// list (spec, kind, label, params) run through a campaign session
// (service/session.hpp) — the same core campaignd runs, with each body built
// by the builtin_kinds() builders: one Simulation per worker thread, results
// printed in submission order (output is byte-identical for any thread
// count). --serial runs the same bodies inline, the reference path.
//
// Build & run:  ./build/examples/dse_explorer [--serial] [--jobs N]
//                                             [--report FILE.json]
//                                             [--journal FILE.wal |
//                                              --resume FILE.wal]
//                                             [--processes] [--cache FILE]
//
// --journal write-ahead-logs every job so a killed sweep restarts with
// --resume, re-running only the design points the journal does not show as
// done. SIGINT/SIGTERM stop the sweep gracefully: running simulations get
// request_stop() and --report still emits a valid partial report (exit 130);
// the Pareto front is only printed when every point completed.
//
// --processes forks one child per design point (a crashing point is
// quarantined with a structured reason instead of killing the sweep);
// --cache serves points whose spec hash already has a cached result without
// re-simulating. The spec hash folds the timing mode and quantum, so
// --loose/--quantum variants of a grid point never alias in the journal or
// the cache.
//
// --server SOCKET sends the same job list to campaignd (docs/service.md)
// instead of the in-process session: the daemon schedules the jobs on its
// own pool (consulting its result cache first) and streams back per-job
// results; table, Pareto front and --report match a local run modulo timing
// fields.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "dse/pareto.hpp"
#include "service/client.hpp"
#include "service/jobs.hpp"
#include "service/session.hpp"
#include "sweep_cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace adriatic;

namespace {

constexpr int kFrames = 4;  // frames the synthetic app processes (jobs.cpp)

/// One design point; the simulation body lives in service/jobs.cpp
/// (run_dse_point and friends), shared verbatim with campaignd so a
/// --server run executes the same code in another process.
using Config = service::DsePointSpec;
using SweepOutcome = service::DseOutcome;

}  // namespace

int main(int argc, char** argv) {
  examples::SweepCli cli;
  cli.tool = "dse_explorer";
  bool loose = false;
  u32 quantum_ns = 0;
  for (int i = 1; i < argc; ++i) {
    if (cli.parse(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--loose") == 0) {
      loose = true;
    } else if (std::strcmp(argv[i], "--quantum") == 0 && i + 1 < argc) {
      char* end = nullptr;
      quantum_ns = static_cast<u32>(std::strtoul(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0' || quantum_ns == 0) {
        std::cerr << "dse_explorer: --quantum expects a nonzero ns count, "
                     "got '" << argv[i] << "'\n";
        return 2;
      }
    } else {
      std::cerr << "usage: dse_explorer [--serial] [--jobs N] "
                   "[--loose] [--quantum NS] "
                   "[--report FILE.json] [--journal FILE.wal | "
                   "--resume FILE.wal] [--processes] [--cache FILE] "
                   "[--server SOCKET]\n";
      return 2;
    }
  }
  if (!cli.valid(false)) return 2;
  if (quantum_ns != 0 && !loose) {
    std::cerr << "dse_explorer: --quantum only applies with --loose\n";
    return 2;
  }

  std::vector<Config> configs;
  for (u32 tech = 0; tech < 3; ++tech) {
    for (const u32 slots : {1u, 2u}) {
      for (const bool link : {false, true}) {
        for (const bool prefetch : {false, true}) {
          Config c;
          c.label = std::string(service::dse_tech_name(tech)) + "/s" +
                    std::to_string(slots) + (link ? "/link" : "/shared") +
                    (prefetch ? "/hybrid" : "/demand");
          c.tech = tech;
          c.slots = slots;
          c.dedicated_link = link;
          c.prefetch = prefetch;
          c.loose = loose;
          c.quantum_ns = quantum_ns;
          configs.push_back(c);
        }
      }
    }
  }

  // The sweep's job list, one for every mode: every design point, the
  // hardwired reference, and the task-migration probe. Each spec hash folds
  // the timing axis (mode + quantum) on top of the label, so --loose/--quantum
  // variants of the same grid point never alias in the journal or the result
  // cache (see the ResultCache reuse caveat).
  std::vector<service::ServiceJob> sweep;
  for (usize i = 0; i < configs.size(); ++i)
    sweep.push_back({i,
                     service::dse_spec_hash(configs[i].label, loose,
                                            quantum_ns),
                     "dse_point", configs[i].label,
                     service::dse_point_params(configs[i])});
  service::ParamMap timing_params;
  timing_params["loose"] = loose ? "1" : "0";
  timing_params["quantum_ns"] = std::to_string(quantum_ns);
  const std::pair<const char*, const char*> extra_jobs[] = {
      {"dse_hardwired", "hardwired"},
      {"dse_migration_probe", "migration_probe"}};
  for (const auto& [kind, label] : extra_jobs)
    sweep.push_back({sweep.size(),
                     service::dse_spec_hash(label, loose, quantum_ns), kind,
                     label, timing_params});
  const usize hw_index = configs.size();
  const usize probe_index = configs.size() + 1;

  // Run every job; results come back in job-list order either way, and the
  // print-ready outcomes are unpacked from each record's user_data, so all
  // downstream output is byte-identical between modes.
  // One attempt per design point, no wall-clock limit.
  campaign::JobOptions opt;
  opt.heartbeat_timeout_seconds = 10.0;
  std::vector<service::SessionJob> local;
  for (const auto& job : sweep) local.push_back({job, opt, {}});
  const auto run = cli.run(sweep, local, cli.session());
  if (!run.ok && run.stats.empty()) return 2;
  const std::vector<campaign::JobStats> job_stats = run.records(sweep);
  std::vector<SweepOutcome> outcomes;
  for (const auto& s : job_stats)
    outcomes.push_back(service::unpack_dse_outcome(s));

  Table t("DSE sweep: technology x slots x config-memory x scheduler policy (" +
          std::to_string(kFrames) + " frames)");
  t.header({"configuration", "time [us]", "switches", "cfg words",
            "hidden [us]", "hide %", "area [gate-eq]", "reconf energy [uJ]"});
  std::vector<dse::DesignPoint> points;
  for (usize i = 0; i < configs.size(); ++i) {
    const auto& out = outcomes[i];
    if (!out.ok) {
      std::cerr << configs[i].label << ": "
                << (out.error.empty() ? "interrupted" : out.error) << '\n';
      continue;
    }
    t.row(out.row);
    points.push_back(out.point);
  }
  t.print(std::cout);
  cli.print_dedup(run);

  const auto& hw = outcomes[hw_index];
  if (hw.ok) {
    std::cout << "\nhardwired reference: " << hw.row[0] << " us, "
              << (hw.point.objectives.size() > 1
                      ? static_cast<u64>(hw.point.objectives[1])
                      : 0)
              << " gates, 0 uJ reconfig\n";
    points.push_back(hw.point);
  }

  const auto& probe = outcomes[probe_index];
  if (probe.ok) {
    std::cout << "migration probe: " << probe.row[0] << " migration(s), "
              << probe.row[1] << " state words over the bus, " << probe.row[2]
              << " transfer fault(s) recovered\n";
  } else {
    std::cerr << "migration_probe: "
              << (probe.error.empty() ? "interrupted" : probe.error) << '\n';
  }

  // The Pareto front is only meaningful over the complete design space
  // (every design point plus the hardwired reference; the migration probe
  // contributes no point): skip it when points are missing (an interrupted
  // run).
  if (points.size() == configs.size() + 1) {
    const auto front = dse::pareto_front(points);
    std::cout
        << "\nPareto-optimal configurations (time, area, energy, "
           "inflexibility, cfg bytes):\n";
    for (const usize idx : front)
      std::cout << "  * " << points[idx].label << '\n';
  } else {
    std::cout << "\nPareto front skipped: only " << points.size() << " of "
              << sweep.size() << " design points evaluated in this run\n";
  }

  if (run.interrupted)
    std::cerr << "dse_explorer: interrupted — report/journal hold partial "
                 "results; resume with --resume\n";
  if (!cli.report_path.empty())
    campaign::write_report_file(
        cli.report_path, "dse_explorer", run.threads, job_stats,
        cli.server_path.empty() ? nullptr : &run.totals);
  return run.interrupted ? 130 : 0;
}
