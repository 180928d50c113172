// Benchmark driver: runs one workload of the adriatic simulator for a fixed
// wall-clock window and prints every metric by name with its unit. The last
// line of standard output is the result object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run, --trace 1). Host time is wall clock throughout; simulated
// statistics are checked against stored references, never reported as speed.
//
// Workloads (BENCHMARK.json records why each was chosen):
//   dse_timed    the 26 dse_explorer jobs, cycle-accurate, one thread
//   dse_loose    the same 26 jobs loosely timed at the default quantum
//   service_mix  an in-process CampaignServer, on one CPU at a time, driven
//                in a closed loop by one client connection submitting
//                fault_sweep's 24-point grid cold and then again warm
//                (served by dedup)
//
// Usage:
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --reference FILE --out-dir DIR [--git-rev REV]
//   perfbench_driver --write-reference FILE
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/result_cache.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "service/client.hpp"
#include "service/jobs.hpp"
#include "service/server.hpp"
#include "trace.hpp"
#include "util/log.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace adriatic;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

// Set-ups per run: half before the window (the last one is used), half
// after it, so the median of all of them samples the disk and host state
// at both ends of the run.
constexpr int kSetupReps = 32;
// service_mix figures are taken per slice of the window and the best tenth
// of the slices is reported (see run_service).
constexpr double kSliceS = 0.5;
constexpr double kBestSlice = 0.1;
// service_mix client connections, and the server's runner threads. The
// client has one request in flight, so each RESULT's latency is the
// service path alone, with no other request queued in front of it.
constexpr usize kClients = 1;
constexpr int kProbeReps = 5;     // repetitions per layer probe
// Back-to-back repeats of each pass's cache-served rerun. A lookup takes
// ~5 us, so one per job and pass (about 9 per job in a dse_timed window)
// leaves each job's best at the mercy of a few cache misses.
constexpr int kWarmRepeats = 10;
// Peak RSS is sampled after a fixed amount of work, not at the end of the
// window: resident memory grows with the jobs run (the service's session map;
// ~25 KB per loose DSE pass), so an end-of-window figure would rise with
// throughput.
constexpr usize kRssAtPass = 4;        // DSE workloads
constexpr u64 kRssAtRequests = 8000;  // service_mix

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string reference;
  std::string out_dir = ".bench_build/perfbench/out";
  std::string run_dir;  ///< Per-process scratch under out_dir, removed at exit.
  std::string git_rev = "unknown";
  std::string write_reference;
};

/// Failures of any kind, counted against the jobs attempted.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> notes;  ///< First few failure descriptions.
  void fail(std::string why) {
    ++failed;
    if (notes.size() < 8) notes.push_back(std::move(why));
  }
};

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used where VmHWM can be read: Linux carries it across exec, so it
/// would report the launcher's footprint when that is the larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Keeps every thread of this process on one CPU and moves them all to the
/// next CPU of the process's allowed set once kRotateS has passed. On a
/// virtual machine one virtual CPU can run ~1.7 times slower than usual for
/// seconds at a time while the others do not; visiting
/// every CPU lets a run's best passes or slices find a fast one. One CPU at
/// a time, because a wake-up that crosses to another virtual CPU costs tens
/// of microseconds and swings with the host's load. Threads started while
/// this lives inherit the CPU; every thread gets the old mask back at the
/// end of the scope.
class CpuRotation {
 public:
  static constexpr double kRotateS = 2.0;

  CpuRotation() {
    CPU_ZERO(&old_);
    if (sched_getaffinity(0, sizeof old_, &old_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &old_)) cpus_.push_back(c);
    // Start where the caller runs.
    const auto it = std::find(cpus_.begin(), cpus_.end(), sched_getcpu());
    next_cpu_ = it == cpus_.end() ? 0 : static_cast<usize>(it - cpus_.begin());
    tick();
  }
  ~CpuRotation() {
    if (!cpus_.empty()) set_all(old_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves to the next CPU when due. Call from one thread, between the
  /// timed operations.
  void tick() {
    if (cpus_.empty() || now_s() < due_) return;
    due_ = now_s() + kRotateS;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_cpu_++ % cpus_.size()], &one);
    set_all(one);
  }

 private:
  static void set_all(const cpu_set_t& set) {
    std::error_code ec;
    for (const auto& task : fs::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = std::atoi(task.path().filename().c_str());
      sched_setaffinity(tid, sizeof set, &set);  // Fails only for an exited thread.
    }
  }

  cpu_set_t old_;
  std::vector<int> cpus_;
  usize next_cpu_ = 0;
  double due_ = 0;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) break;
      const auto begin = line.find_first_not_of(" \t", colon + 1);
      return begin == std::string::npos ? "unknown" : line.substr(begin);
    }
  }
  return "unknown";
}

std::string stamp_json(const Options& o) {
  std::ostringstream s;
  s << "{\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"git_rev\":\""
    << json_escape(o.git_rev) << "\",\"cpu_model\":\""
    << json_escape(cpu_model()) << "\",\"nproc\":" << host_threads()
    << ",\"seed\":" << o.seed << ",\"workload\":\"" << o.workload
    << "\",\"seconds\":" << o.seconds << ",\"trace\":" << (o.trace ? 1 : 0)
    << "}";
  return s.str();
}

/// Deterministic Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (usize i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

/// Simulated statistics of a job that must not depend on host timing,
/// thread count or which address space ran it.
std::string sim_signature(const campaign::JobStats& s) {
  std::ostringstream o;
  o << s.done << ' ' << s.failed << ' ' << s.quarantined << ' '
    << s.sim_time.picoseconds() << ' ' << s.delta_count << ' '
    << s.activations << ' ' << s.digest << ' ' << s.fetch_errors << ' '
    << s.faults_injected << ' ' << s.fault_events << ' ' << s.fault_digest
    << ' ' << s.prefetch_hits << ' ' << s.cache_hits << ' '
    << s.config_words_fetched << ' ' << s.hidden_latency.picoseconds() << ' '
    << s.loose_syncs << ' ' << s.migrations << ' ' << s.state_words_moved
    << ' ' << s.mem_pages_resident << ' ' << s.mem_cow_splits << ' '
    << s.mem_shared_pages << ' ' << campaign::fnv1a(s.user_data);
  return o.str();
}

// -- DSE sweep -----------------------------------------------------------------

struct DseJob {
  enum Kind { kPoint, kHardwired, kProbe } kind = kPoint;
  service::DsePointSpec point;
  std::string label;
};

/// The dse_explorer job list: 24 grid points, the hardwired reference and
/// the migration probe, in the tool's order.
std::vector<DseJob> dse_jobs(bool loose) {
  std::vector<DseJob> jobs;
  for (u32 tech = 0; tech < 3; ++tech)
    for (const u32 slots : {1u, 2u})
      for (const bool link : {false, true})
        for (const bool prefetch : {false, true}) {
          DseJob j;
          j.point.label = std::string(service::dse_tech_name(tech)) + "/s" +
                          std::to_string(slots) +
                          (link ? "/link" : "/shared") +
                          (prefetch ? "/hybrid" : "/demand");
          j.point.tech = tech;
          j.point.slots = slots;
          j.point.dedicated_link = link;
          j.point.prefetch = prefetch;
          j.point.loose = loose;
          j.label = j.point.label;
          jobs.push_back(j);
        }
  DseJob hw;
  hw.kind = DseJob::kHardwired;
  hw.label = "hardwired";
  jobs.push_back(hw);
  DseJob probe;
  probe.kind = DseJob::kProbe;
  probe.label = "migration_probe";
  jobs.push_back(probe);
  return jobs;
}

service::DseOutcome run_dse_job(const DseJob& j, bool loose,
                                campaign::JobContext* ctx) {
  switch (j.kind) {
    case DseJob::kPoint: return service::run_dse_point(j.point, ctx);
    case DseJob::kHardwired: return service::run_dse_hardwired(loose, 0, ctx);
    case DseJob::kProbe: return service::run_dse_migration_probe(loose, 0, ctx);
  }
  return {};
}

/// Reference statistics of every DSE job, keyed "mode\tlabel": the
/// sim_signature plus the DRCF switch count from the job's table row.
using DseReference = std::map<std::string, std::string>;

u64 row_switches(const DseJob& j, const service::DseOutcome& out) {
  if (j.kind != DseJob::kPoint || out.row.size() < 3) return 0;
  return std::strtoull(out.row[2].c_str(), nullptr, 10);
}

std::string dse_ref_value(const DseJob& j, const campaign::JobStats& s,
                          const service::DseOutcome& out) {
  return sim_signature(s) + " switches=" + std::to_string(row_switches(j, out));
}

std::optional<DseReference> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  DseReference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto t1 = line.find('\t');
    const auto t2 = line.find('\t', t1 + 1);
    if (t1 == std::string::npos || t2 == std::string::npos) return std::nullopt;
    ref[line.substr(0, t2)] = line.substr(t2 + 1);
  }
  return ref;
}

struct DsePass {
  double seconds = 0;
  u64 activations = 0;
  std::vector<double> latency_s;  ///< Per job, submit -> outcome.
  std::vector<campaign::JobStats> records;
  std::vector<service::DseOutcome> outcomes;  ///< Parallel to records.
  std::vector<const DseJob*> jobs;            ///< Parallel to records.
  /// Parallel to records: the cache-served reruns' best latency, and
  /// whether every rerun served the job equal to this run.
  std::vector<double> warm_s;
  std::vector<bool> warm_ok;
};

/// Runs every job once in `order`.
DsePass run_dse_pass(const std::vector<DseJob>& jobs,
                     const std::vector<usize>& order, bool loose,
                     Tracer& tracer) {
  DsePass pass;
  ScopedSpan pass_span(tracer, "pass", "bench");
  const double t0 = now_s();
  for (const usize i : order) {
    const DseJob& j = jobs[i];
    const double s0 = now_s();
    service::DseOutcome out;
    {
      ScopedSpan job_span(tracer, "job", "campaign", pass_span.id(), j.label);
      try {
        out = campaign::run_inline(
            j.label, pass.records, [&](campaign::JobContext& ctx) {
              ScopedSpan body(tracer, "body", "sim", job_span.id(), j.label);
              return run_dse_job(j, loose, &ctx);
            });
      } catch (const std::exception& e) {
        out.error = e.what();
      }
    }
    pass.latency_s.push_back(now_s() - s0);
    pass.outcomes.push_back(std::move(out));
    pass.jobs.push_back(&j);
  }
  pass.seconds = now_s() - t0;
  for (const auto& s : pass.records) pass.activations += s.activations;
  return pass;
}

void check_dse_pass(const DsePass& pass, bool loose, const DseReference& ref,
                    Tally& tally) {
  const std::string mode = loose ? "loose" : "timed";
  for (usize k = 0; k < pass.records.size(); ++k) {
    const auto& s = pass.records[k];
    const DseJob& j = *pass.jobs[k];
    ++tally.attempted;
    if (!s.done || s.failed || !pass.outcomes[k].ok) {
      tally.fail(j.label + ": job failed: " + s.error + pass.outcomes[k].error);
      continue;
    }
    const auto it = ref.find(mode + "\t" + j.label);
    const std::string got = dse_ref_value(j, s, pass.outcomes[k]);
    if (it == ref.end()) {
      tally.fail(j.label + ": no reference entry");
    } else if (it->second != got) {
      tally.fail(j.label + ": simulated stats differ from the reference (" +
                 got + " vs " + it->second + ")");
    } else if (!pass.warm_ok[k]) {
      tally.fail(j.label + ": cache-served result differs from the run");
    }
  }
}

struct WorkloadResult {
  Metrics metrics;
  std::string detail;  ///< JSON object printed before the result line.
};

/// Per-pass layer counts of a DSE pass (identical on every pass).
void dse_counts(const DsePass& pass, Metrics& m) {
  u64 act = 0, deltas = 0, syncs = 0, words = 0, ferr = 0, finj = 0;
  u64 switches = 0, points = 0, pf_hits = 0, pf_switches = 0;
  for (usize k = 0; k < pass.records.size(); ++k) {
    const auto& s = pass.records[k];
    const DseJob& j = *pass.jobs[k];
    act += s.activations;
    deltas += s.delta_count;
    syncs += s.loose_syncs;
    words += s.config_words_fetched;
    ferr += s.fetch_errors;
    finj += s.faults_injected;
    if (j.kind == DseJob::kPoint) {
      const u64 sw = row_switches(j, pass.outcomes[k]);
      switches += sw;
      ++points;
      if (j.point.prefetch) {
        pf_hits += s.prefetch_hits;
        pf_switches += sw;
      }
    }
  }
  m["kernel.activations"] = {static_cast<double>(act), "count"};
  m["kernel.delta_cycles"] = {static_cast<double>(deltas), "count"};
  m["kernel.loose_syncs"] = {static_cast<double>(syncs), "count"};
  m["drcf.config_words"] = {static_cast<double>(words), "count"};
  m["drcf.switches"] = {points ? static_cast<double>(switches) / points : 0,
                        "1/job"};
  m["drcf.prefetch_hit_frac"] = {
      pf_switches ? static_cast<double>(pf_hits) / pf_switches : 0, "frac"};
  m["fault.fetch_errors"] = {static_cast<double>(ferr), "count"};
  m["fault.injected"] = {static_cast<double>(finj), "count"};
  m["memory.pages_resident"] = {0, "pages/job"};
}

/// Per-job self time of each layer, from the spans that started inside
/// the traced window [since, until).
void self_times(const Tracer& tracer, double since, double until, u64 jobs,
                Metrics& m) {
  std::vector<Span> window;
  for (auto& s : tracer.spans())
    if (s.t0 >= since && s.t0 < until) window.push_back(std::move(s));
  const auto self = self_seconds_by_layer(window);
  for (const char* layer : {"campaign", "service", "sim"}) {
    const auto it = self.find(layer);
    const double v = it == self.end() || jobs == 0 ? 0 : it->second * 1e6 / jobs;
    m[std::string("self_us.") + layer] = {v, "us/job"};
  }
}

WorkloadResult run_dse(const Options& o, bool loose, Tracer& tracer,
                       Tally& tally, campaign::JobStats& probe_sample) {
  const auto ref = load_reference(o.reference);
  if (!ref.has_value())
    throw std::runtime_error("cannot read reference file '" + o.reference + "'");

  // Warm-up: one untimed pass in the tool's order, checked like every other,
  // whose records fill the sweep's result cache as a first
  // `dse_explorer --cache` run does. It also brings the allocator and the
  // host's caches to their steady state before the window.
  const std::string cache_path = o.run_dir + "/dse.cache";
  {
    Tracer off(false);
    const std::vector<DseJob> first_jobs = dse_jobs(loose);
    std::vector<usize> tool_order(first_jobs.size());
    for (usize i = 0; i < tool_order.size(); ++i) tool_order[i] = i;
    DsePass first = run_dse_pass(first_jobs, tool_order, loose, off);
    first.warm_ok.assign(first.records.size(), true);
    check_dse_pass(first, loose, *ref, tally);
    const auto c = campaign::ResultCache::open(cache_path);
    if (c == nullptr) throw std::runtime_error("cannot open " + cache_path);
    for (const auto& s : first.records)
      c->store(service::dse_spec_hash(s.label, loose, 0), s);
  }

  // Set-up, as a `dse_explorer --cache` rerun does it: open the sweep's
  // result cache (read and verify its entries), build the job list and the
  // seeded order.
  std::vector<double> setup_times;
  std::vector<DseJob> jobs;
  std::vector<usize> order;
  std::unique_ptr<campaign::ResultCache> cache;
  const auto setup = [&](std::unique_ptr<campaign::ResultCache>& c,
                         std::vector<DseJob>& j, std::vector<usize>& ord) {
    ScopedSpan span(tracer, "setup", "campaign");
    const double t0 = now_s();
    c.reset();
    c = campaign::ResultCache::open(cache_path);
    if (c == nullptr) throw std::runtime_error("cannot open " + cache_path);
    j = dse_jobs(loose);
    ord.resize(j.size());
    for (usize i = 0; i < ord.size(); ++i) ord[i] = i;
    setup_times.push_back(now_s() - t0);
    if (c->size() != j.size())
      throw std::runtime_error("result cache lost entries: " + cache_path);
  };
  Xoshiro256 rng(o.seed);
  for (int r = 0; r < kSetupReps / 2; ++r) setup(cache, jobs, order);

  // Warm tier: after each pass, its 26 jobs are served from the cache in the
  // pass's order and decoded as a `dse_explorer --cache` rerun does, and the
  // rerun is repeated kWarmRepeats times; each job keeps its best. The reruns
  // are outside the pass time.
  const auto warm_rerun = [&](DsePass& pass) {
    pass.warm_s.assign(pass.records.size(),
                       std::numeric_limits<double>::infinity());
    pass.warm_ok.assign(pass.records.size(), true);
    for (int r = 0; r < kWarmRepeats; ++r) {
      for (usize k = 0; k < pass.records.size(); ++k) {
        ScopedSpan span(tracer, "lookup", "campaign", 0,
                        pass.records[k].label);
        const double t0 = now_s();
        auto hit = cache->lookup(
            service::dse_spec_hash(pass.records[k].label, loose, 0));
        service::DseOutcome out;
        if (hit.has_value()) {
          hit->from_cache = true;
          out = service::unpack_dse_outcome(*hit);
        }
        pass.warm_s[k] = std::min(pass.warm_s[k], now_s() - t0);
        pass.warm_ok[k] = pass.warm_ok[k] && hit.has_value() && out.ok &&
                          sim_signature(*hit) ==
                              sim_signature(pass.records[k]);
      }
    }
  };

  // Timed window: whole passes, each in a fresh seeded order. The traced run
  // spends the first half untraced and the second half traced, so the two
  // rates give the tracing overhead. Each job's best latency over the
  // passes is kept, simulated and cache-served.
  const bool traced_run = tracer.enabled();
  std::vector<DsePass> passes;
  constexpr double kNone = std::numeric_limits<double>::infinity();
  std::vector<double> best_cold(jobs.size(), kNone);
  std::vector<double> best_warm(jobs.size(), kNone);
  double rss = 0;
  std::vector<double> untraced_rate, traced_rate;
  double traced_since = 0, traced_until = 0;
  const double start = now_s();
  std::optional<CpuRotation> rotation(std::in_place);
  for (int half = 0; half < (traced_run ? 2 : 1); ++half) {
    const double budget = traced_run ? o.seconds / 2 : o.seconds;
    const double h0 = now_s();
    tracer.set_enabled(traced_run && half == 1);
    if (half == 1) traced_since = now_s();
    double last = 0;
    do {
      rotation->tick();
      shuffle(order, rng);
      passes.push_back(run_dse_pass(jobs, order, loose, tracer));
      DsePass& p = passes.back();
      warm_rerun(p);
      check_dse_pass(p, loose, *ref, tally);
      for (usize k = 0; k < order.size(); ++k) {
        best_cold[order[k]] = std::min(best_cold[order[k]], p.latency_s[k]);
        best_warm[order[k]] = std::min(best_warm[order[k]], p.warm_s[k]);
      }
      // Only the first pass keeps its records (for the counts and the
      // probes), so memory does not grow with the number of passes.
      if (passes.size() > 1) {
        p.records = {};
        p.outcomes = {};
        p.jobs = {};
      }
      if (passes.size() == kRssAtPass) rss = peak_rss_mb();
      last = p.seconds;
      (half == 1 ? traced_rate : untraced_rate)
          .push_back(static_cast<double>(jobs.size()) / last);
    } while (now_s() - h0 + last <= budget);
    if (half == 1) traced_until = now_s();
  }
  const double window = now_s() - start;
  rotation.reset();
  const bool rss_at_pass = rss > 0;
  if (!rss_at_pass) rss = peak_rss_mb();
  {
    std::unique_ptr<campaign::ResultCache> c;
    std::vector<DseJob> j;
    std::vector<usize> ord;
    for (int r = kSetupReps / 2; r < kSetupReps; ++r) setup(c, j, ord);
  }

  WorkloadResult r;
  Metrics& m = r.metrics;
  if (!o.trace) {
    // Every pass repeats the same 26 jobs, so each job's latency is its best
    // over the passes: the host's load only ever adds time, and a shared
    // host's load shifts within a run. Throughput is the 26 jobs at their
    // best, and the quantiles are over the 26 best latencies.
    double best_pass = 0;
    for (const double t : best_cold) best_pass += t;
    m["setup_s"] = {median(setup_times), "s"};
    m["jobs_per_s"] = {static_cast<double>(jobs.size()) / best_pass, "1/s"};
    m["sim_mact_per_s"] = {
        static_cast<double>(passes.front().activations) / best_pass / 1e6,
        "Mact/s"};
    m["rtt_cold_p50_ms"] = {quantile(best_cold, 0.5) * 1e3, "ms"};
    m["rtt_cold_p95_ms"] = {quantile(best_cold, 0.95) * 1e3, "ms"};
    m["rtt_warm_p50_ms"] = {quantile(best_warm, 0.5) * 1e3, "ms"};
    m["rtt_warm_p95_ms"] = {quantile(best_warm, 0.95) * 1e3, "ms"};
    m["peak_rss_mb"] = {rss, "MB"};
    std::ostringstream d;
    d << "{\"passes\":" << passes.size() << ",\"jobs_per_pass\":"
      << jobs.size() << ",\"pass_s\":[";
    for (usize i = 0; i < passes.size(); ++i)
      d << (i ? "," : "") << passes[i].seconds;
    d << "],\"best_pass_s\":" << best_pass << ",\"window_s\":" << window
      << ",\"rtt_samples\":" << jobs.size()
      << ",\"repeats_per_job\":" << passes.size()
      << ",\"rss_at_pass\":" << (rss_at_pass ? kRssAtPass : 0) << "}";
    r.detail = d.str();
  } else {
    dse_counts(passes.front(), m);
    u64 traced_jobs = 0;
    std::vector<double> commit_us;
    std::map<u64, std::pair<double, double>> job_spans;
    for (const auto& s : tracer.spans()) {
      if (s.t0 < traced_since) continue;
      if (s.name == "job") {
        job_spans[s.id] = {s.t0, s.t1};
        ++traced_jobs;
      }
    }
    for (const auto& s : tracer.spans()) {
      if (s.name != "body" || s.t0 < traced_since) continue;
      const auto it = job_spans.find(s.parent);
      if (it != job_spans.end())
        commit_us.push_back(((it->second.second - it->second.first) -
                             (s.t1 - s.t0)) * 1e6);
    }
    // run_inline runs the body at once: nothing queues in front of it.
    m["campaign.queue_wait_us"] = {0, "us"};
    m["campaign.commit_us"] = {median(commit_us), "us"};
    m["service.overhead_us"] = {0, "us"};
    m["service.dedup_hit_frac"] = {0, "frac"};
    self_times(tracer, traced_since, traced_until, traced_jobs, m);
    // Each half's best pass, as the untraced run reports its best.
    m["trace.overhead_frac"] = {
        *std::max_element(untraced_rate.begin(), untraced_rate.end()) /
                *std::max_element(traced_rate.begin(), traced_rate.end()) -
            1,
        "frac"};
    probe_sample = passes.front().records.front();
    std::ostringstream d;
    d << "{\"passes_untraced\":" << untraced_rate.size()
      << ",\"passes_traced\":" << traced_rate.size() << "}";
    r.detail = d.str();
  }
  return r;
}

// -- Service mix -----------------------------------------------------------------

/// The parts of a RESULT's JobStats that the checks and counts read.
/// Keeping whole records for every request would grow the benchmark's own
/// memory with throughput and blur peak_rss_mb.
struct ResultSummary {
  bool done = false;
  bool failed = false;
  bool quarantined = false;
  bool from_cache = false;
  std::string error;   ///< Error and quarantine reason of a failed job.
  u64 signature = 0;   ///< fnv1a of sim_signature().
  u64 activations = 0;
  u64 delta_count = 0;
  u64 loose_syncs = 0;
  u64 config_words_fetched = 0;
  u64 fetch_errors = 0;
  u64 faults_injected = 0;
  u64 mem_pages_resident = 0;
  u64 prefetch_hits = 0;

  static ResultSummary of(const campaign::JobStats& s) {
    ResultSummary r;
    r.done = s.done;
    r.failed = s.failed;
    r.quarantined = s.quarantined;
    r.from_cache = s.from_cache;
    if (!s.done || s.failed || s.quarantined)
      r.error = s.error + s.quarantine_reason;
    r.signature = campaign::fnv1a(sim_signature(s));
    r.activations = s.activations;
    r.delta_count = s.delta_count;
    r.loose_syncs = s.loose_syncs;
    r.config_words_fetched = s.config_words_fetched;
    r.fetch_errors = s.fetch_errors;
    r.faults_injected = s.faults_injected;
    r.mem_pages_resident = s.mem_pages_resident;
    r.prefetch_hits = s.prefetch_hits;
    return r;
  }
};

/// One request a client made and what came back.
struct Request {
  usize client = 0;
  usize seq = 0;           ///< Position in the client's request stream.
  bool repeat = false;     ///< Part of a warm pass.
  usize sweep = 0;         ///< The client's sweep number, from 0.
  usize point = 0;         ///< Position in the sweep's grid.
  service::FaultPointSpec spec;
  u64 spec_hash = 0;
  double t_submit = 0;     ///< Before encoding the SUBMIT frame.
  double t_sent = 0;       ///< After the frame was written.
  double t_result = 0;     ///< After the RESULT frame was parsed.
  bool got_ok = false;
  bool cached = false;     ///< Server's OK said "served without simulating".
  bool got_result = false;
  std::string error;
  ResultSummary stats;
  bool traced = false;
};

/// Per-client stream of `fault_sweep --server` traffic: the tool's 24-point
/// grid (recovery policy x fetch error rate x scheduler, plan_seed =
/// sweep seed * 1000 + point) submitted cold, then the same grid again warm,
/// as the service CI job reruns a sweep against the same daemon. Each cold
/// pass takes a new sweep seed, drawn from the workload seed and distinct
/// per client, so no two clients share a spec. Labels carry the sweep seed
/// so that each spec has its own.
class SpecStream {
 public:
  static constexpr usize kPoints = 3 * 4 * 2;

  SpecStream(u64 seed, usize client, usize clients)
      : sweep_seed_(seed * 1000003 + client), stride_(clients) {}

  service::FaultPointSpec next(bool& repeat, usize& sweep, usize& point) {
    static constexpr std::pair<const char*, u32> kPolicies[] = {
        {"fail_fast", 0}, {"retry_backoff", 1}, {"fallback", 2}};
    static constexpr u32 kRates[] = {0, 2, 5, 10};
    if (pos_ == 2 * kPoints) {
      pos_ = 0;
      sweep_seed_ += stride_;
      ++sweep_;
    }
    repeat = pos_ >= kPoints;
    sweep = sweep_;
    const usize i = pos_++ % kPoints;
    point = i;
    const auto& [pname, policy] = kPolicies[i / 8];
    service::FaultPointSpec s;
    s.policy = policy;
    s.rate_pct = kRates[i / 2 % 4];
    s.prefetch = i % 2 == 1;
    s.plan_seed = sweep_seed_ * 1000 + i;
    s.label = std::to_string(sweep_seed_) + ":" + pname + "/r" +
              std::to_string(s.rate_pct) + (s.prefetch ? "/hybrid" : "/demand");
    return s;
  }

 private:
  u64 sweep_seed_;
  usize stride_;
  usize sweep_ = 0;
  usize pos_ = 0;  ///< Position in the cold + warm pass of the sweep.
};

class ServiceMix {
 public:
  ServiceMix(const Options& o, Tracer& tracer) : o_(o), tracer_(tracer) {
    clients_n_ = kClients;
    for (usize c = 0; c < clients_n_; ++c)
      streams_.emplace_back(o.seed, c, clients_n_);
    next_seq_.assign(clients_n_, 0);
  }
  ~ServiceMix() { shutdown(); }
  ServiceMix(const ServiceMix&) = delete;
  ServiceMix& operator=(const ServiceMix&) = delete;

  /// Server start (its socket in a fresh directory) and client
  /// connections, up to the first submit. Returns its wall time.
  double setup(int rep) {
    shutdown();
    // The scratch directory is the benchmark's, not the server's set-up.
    dir_ = o_.run_dir + "/svc-" + std::to_string(rep);
    fs::create_directories(dir_);
    ScopedSpan span(tracer_, "setup", "service");
    const double t0 = now_s();
    service::ServerOptions so;
    so.socket_path = dir_ + "/d.sock";
    so.threads = clients_n_;
    so.campaign_name = "perfbench";
    // No journal and no cross-run cache: their fsync'd appends (four per
    // fresh job, one per repeat) took most of a request's time and tracked
    // the shared disk, not the service. The layer probes time both.
    server_ = std::make_unique<service::CampaignServer>(so);
    for (auto& [name, builder] : service::builtin_kinds()) {
      if (name == "fault_point") builder = wrap_body(builder);
      server_->register_kind(name, builder);
    }
    if (!server_->start()) throw std::runtime_error("server start failed");
    for (usize c = 0; c < clients_n_; ++c) {
      conns_.push_back(service::ServiceClient::connect(so.socket_path));
      if (conns_.back() == nullptr) throw std::runtime_error("connect failed");
    }
    return now_s() - t0;
  }

  /// Closed loop on every connection for `seconds`; returns the wall time
  /// from the first submit to the last RESULT.
  double window(double seconds) {
    const double t0 = now_s();
    window_start_ = t0;
    const double deadline = t0 + seconds;
    std::vector<std::thread> threads;
    for (usize c = 0; c < clients_n_; ++c)
      threads.emplace_back([this, c, deadline] { client_loop(c, deadline); });
    for (auto& t : threads) t.join();
    return now_s() - t0;
  }

  void shutdown() {
    conns_.clear();
    if (server_ != nullptr) {
      server_->stop();
      counters_ = server_->counters();
      server_.reset();
      fs::remove_all(dir_);
    }
  }

  /// Moves the service between CPUs during window(); nullptr = no moves.
  void set_rotation(CpuRotation* rotation) { rotation_ = rotation; }
  [[nodiscard]] const std::vector<Request>& requests() const { return reqs_; }
  /// When the last window() began.
  [[nodiscard]] double window_start() const { return window_start_; }
  /// A full record of one fresh job (what the layer probes serialise).
  [[nodiscard]] const campaign::JobStats& sample() const { return sample_; }
  /// Peak RSS when the kRssAtRequests-th RESULT arrived; 0 if it never did.
  [[nodiscard]] double rss_at_mark() const { return rss_at_mark_; }
  [[nodiscard]] const service::ServerCounters& counters() const {
    return counters_;
  }

 private:
  service::JobBuilder wrap_body(service::JobBuilder base) {
    return [this, base](const std::string& label, const service::ParamMap& p)
               -> std::optional<service::JobBody> {
      auto body = base(label, p);
      if (!body.has_value()) return std::nullopt;
      return service::JobBody{[this, label, b = std::move(*body)](
                                  campaign::JobContext& ctx) {
        if (!tracer_.enabled()) return b(ctx);
        u64 parent = 0;
        {
          std::lock_guard<std::mutex> lk(mu_);
          const auto it = wait_span_.find(label);
          if (it != wait_span_.end()) parent = it->second;
        }
        ScopedSpan span(tracer_, "body", "sim", parent, label);
        b(ctx);
      }};
    };
  }

  void client_loop(usize c, double deadline) {
    service::ServiceClient& conn = *conns_[c];
    SpecStream& stream = streams_[c];
    while (now_s() < deadline) {
      if (c == 0 && rotation_ != nullptr) rotation_->tick();
      Request r;
      r.client = c;
      r.seq = next_seq_[c]++;
      r.spec = stream.next(r.repeat, r.sweep, r.point);
      r.spec_hash = service::fault_point_spec_hash(r.spec);
      const u64 id = r.seq + 1;
      {
        const bool traced = tracer_.enabled();
        r.traced = traced;
        ScopedSpan rpc(tracer_, "rpc", "service", 0, r.spec.label);
        // The wait for OK + RESULT is recorded by hand once it ends; the
        // job body (another thread) becomes its child, so the wait's self
        // time is queueing, commit and transport.
        const u64 wait_id = traced ? tracer_.new_id() : 0;
        if (traced && !r.repeat) {
          std::lock_guard<std::mutex> lk(mu_);
          wait_span_[r.spec.label] = wait_id;
        }
        r.t_submit = now_s();
        bool sent = false;
        {
          ScopedSpan submit(tracer_, "submit", "service", rpc.id(),
                            r.spec.label);
          sent = conn.submit(id, r.spec_hash, "fault_point", r.spec.label,
                             service::fault_point_params(r.spec));
        }
        r.t_sent = now_s();
        // The server enqueues a fresh job before it writes the OK frame, so
        // a fast job's RESULT can arrive first: wait for both.
        while (sent && !(r.got_ok && r.got_result)) {
          const auto resp = conn.next_response();
          if (!resp.has_value()) {
            r.error = "connection lost";
            break;
          }
          if (resp->id != id) {
            r.error = "response for another request";
            break;
          }
          if (resp->type == service::ResponseType::kOk) {
            r.got_ok = true;
            r.cached = resp->cached;
          } else if (resp->type == service::ResponseType::kResult) {
            r.got_result = true;
            r.stats = ResultSummary::of(resp->stats);
            if (!r.repeat && !have_sample_.exchange(true)) {
              std::lock_guard<std::mutex> lk(mu_);
              sample_ = resp->stats;
            }
          } else {
            r.error = "ERROR frame: " + resp->detail;
            break;
          }
        }
        if (!sent) r.error = "submit failed";
        r.t_result = now_s();
        if (traced)
          tracer_.add({"result", "service", r.t_sent, r.t_result, wait_id,
                       rpc.id(), r.spec.label, 0});
      }
      const bool dead = !r.error.empty() && !r.got_ok;
      const bool done = r.got_result;
      {
        std::lock_guard<std::mutex> lk(mu_);
        reqs_.push_back(std::move(r));
      }
      if (done && completed_.fetch_add(1) + 1 == kRssAtRequests)
        rss_at_mark_ = peak_rss_mb();
      if (dead) break;
    }
  }

  const Options& o_;
  Tracer& tracer_;
  usize clients_n_ = 1;
  std::vector<SpecStream> streams_;
  std::vector<usize> next_seq_;  ///< Per client; touched by its thread only.
  std::string dir_;
  double window_start_ = 0;
  CpuRotation* rotation_ = nullptr;  ///< Ticked by client 0 between requests.
  std::unique_ptr<service::CampaignServer> server_;
  std::vector<std::unique_ptr<service::ServiceClient>> conns_;
  service::ServerCounters counters_;
  std::mutex mu_;  ///< Guards reqs_, wait_span_ and sample_.
  std::vector<Request> reqs_;
  campaign::JobStats sample_;
  std::atomic<bool> have_sample_{false};
  std::atomic<u64> completed_{0};
  std::atomic<double> rss_at_mark_{0};
  std::map<std::string, u64> wait_span_;  ///< Fresh label -> result span.
};

/// Checks every RESULT: fresh ones against a local run of the same spec,
/// repeats against the same local run and for dedup service. The local
/// runs are spread over the host's threads.
void check_service(const std::vector<Request>& reqs, Tally& tally) {
  std::map<std::string, const service::FaultPointSpec*> specs;
  for (const auto& r : reqs) specs.emplace(r.spec.label, &r.spec);
  std::vector<const service::FaultPointSpec*> todo;
  for (const auto& [label, spec] : specs) todo.push_back(spec);
  std::vector<u64> expect(todo.size());
  {
    const usize n = std::min<usize>(host_threads(), 4);
    std::vector<std::thread> workers;
    for (usize t = 0; t < n; ++t)
      workers.emplace_back([&, t] {
        for (usize i = t; i < todo.size(); i += n) {
          std::vector<campaign::JobStats> recs;
          campaign::run_inline(todo[i]->label, recs,
                               [&](campaign::JobContext& ctx) {
                                 (void)service::run_fault_point(*todo[i], &ctx);
                               });
          expect[i] = campaign::fnv1a(sim_signature(recs.front()));
        }
      });
    for (auto& w : workers) w.join();
  }
  std::map<std::string, u64> local;
  for (usize i = 0; i < todo.size(); ++i) local[todo[i]->label] = expect[i];

  for (const auto& r : reqs) {
    ++tally.attempted;
    const std::string who = r.spec.label + " (client " +
                            std::to_string(r.client) + " #" +
                            std::to_string(r.seq) + ")";
    if (!r.error.empty() || !r.got_ok || !r.got_result) {
      tally.fail(who + ": " + (r.error.empty() ? "missing RESULT" : r.error));
      continue;
    }
    if (!r.stats.done || r.stats.failed || r.stats.quarantined) {
      tally.fail(who + ": job failed: " + r.stats.error);
      continue;
    }
    if (r.cached != r.repeat || r.stats.from_cache != r.repeat) {
      tally.fail(who + (r.repeat ? ": repeat was simulated again"
                                 : ": fresh spec was served from dedup"));
      continue;
    }
    if (r.stats.signature != local[r.spec.label])
      tally.fail(who + ": RESULT differs from a local run");
  }
}

WorkloadResult run_service(const Options& o, Tracer& tracer, Tally& tally,
                           campaign::JobStats& probe_sample) {
  const bool traced_run = tracer.enabled();
  ServiceMix mix(o, tracer);
  std::vector<double> setup_times;
  double window = 0, untraced_since = 0, traced_since = 0, traced_until = 0;
  double rss = 0;
  service::ServerCounters counters;
  {
    // Every thread of the server and the client starts in this scope; the
    // check below runs on all CPUs again.
    CpuRotation rotation;
    mix.set_rotation(&rotation);
    for (int r = 0; r < kSetupReps / 2; ++r)
      setup_times.push_back(mix.setup(r));
    if (!traced_run) {
      window = mix.window(o.seconds);
    } else {
      tracer.set_enabled(false);
      untraced_since = now_s();
      const double w0 = mix.window(o.seconds / 2);
      tracer.set_enabled(true);
      traced_since = now_s();
      const double w1 = mix.window(o.seconds / 2);
      traced_until = now_s();
      tracer.set_enabled(false);
      window = w0 + w1;
    }
    rss = peak_rss_mb();
    mix.shutdown();
    counters = mix.counters();
    for (int r = kSetupReps / 2; r < kSetupReps; ++r)
      setup_times.push_back(mix.setup(r));
    mix.shutdown();
    mix.set_rotation(nullptr);
  }
  const auto& reqs = mix.requests();
  check_service(reqs, tally);

  WorkloadResult res;
  Metrics& m = res.metrics;
  if (!o.trace) {
    // The window is cut into kSliceS slices by when each RESULT arrived
    // (requests still in flight at the deadline fall outside them), and the
    // best tenth of the slices is reported (the 90th percentile of the
    // rates, the 10th of the latencies): a shared host's load only ever
    // slows the service, and it shifts within a run. Latencies are kept per
    // grid point, like the DSE jobs': the demand points take ~1.5 times as
    // long as the hybrid ones, so a quantile over pooled requests sits on
    // the edge between the two halves of the grid and jumps between them.
    // Each point's latency is its median per slice, best tenth over slices;
    // the quantiles are over the 24 points.
    constexpr usize kPoints = SpecStream::kPoints;
    struct Slice {
      std::vector<double> rtt[2][kPoints];  ///< [repeat][point]
      u64 results = 0;
      u64 act = 0;
    };
    std::vector<Slice> slices(
        std::max<usize>(1, static_cast<usize>(o.seconds / kSliceS)));
    for (const auto& r : reqs) {
      if (!r.got_result || r.t_result < mix.window_start()) continue;
      const auto k =
          static_cast<usize>((r.t_result - mix.window_start()) / kSliceS);
      if (k >= slices.size()) continue;
      slices[k].rtt[r.repeat][r.point].push_back(r.t_result - r.t_submit);
      ++slices[k].results;
      if (!r.repeat) slices[k].act += r.stats.activations;
    }
    std::vector<double> rate, mact, point_rtt[2];
    usize least = std::numeric_limits<usize>::max();
    for (const auto& sl : slices) {
      rate.push_back(static_cast<double>(sl.results) / kSliceS);
      mact.push_back(static_cast<double>(sl.act) / kSliceS / 1e6);
    }
    for (const int repeat : {0, 1}) {
      for (usize i = 0; i < kPoints; ++i) {
        std::vector<double> medians;
        for (const auto& sl : slices) {
          least = std::min(least, sl.rtt[repeat][i].size());
          if (!sl.rtt[repeat][i].empty())
            medians.push_back(median(sl.rtt[repeat][i]));
        }
        point_rtt[repeat].push_back(quantile(medians, kBestSlice));
      }
    }
    m["setup_s"] = {median(setup_times), "s"};
    m["jobs_per_s"] = {quantile(rate, 1 - kBestSlice), "1/s"};
    m["sim_mact_per_s"] = {quantile(mact, 1 - kBestSlice), "Mact/s"};
    m["rtt_cold_p50_ms"] = {quantile(point_rtt[0], 0.5) * 1e3, "ms"};
    m["rtt_cold_p95_ms"] = {quantile(point_rtt[0], 0.95) * 1e3, "ms"};
    m["rtt_warm_p50_ms"] = {quantile(point_rtt[1], 0.5) * 1e3, "ms"};
    m["rtt_warm_p95_ms"] = {quantile(point_rtt[1], 0.95) * 1e3, "ms"};
    m["peak_rss_mb"] = {mix.rss_at_mark() > 0 ? mix.rss_at_mark() : rss, "MB"};
    std::ostringstream d;
    d << "{\"clients\":" << kClients
      << ",\"window_s\":" << window << ",\"slices\":" << slices.size()
      << ",\"slice_s\":" << kSliceS
      << ",\"rtt_points\":" << kPoints
      << ",\"rtt_min_per_point_and_slice\":" << least
      << ",\"rss_at_requests\":" << (mix.rss_at_mark() > 0 ? kRssAtRequests : 0)
      << "}";
    res.detail = d.str();
    return res;
  }

  // Exact counts over a fixed request set: each client's first cold sweep.
  u64 act = 0, deltas = 0, syncs = 0, words = 0, ferr = 0, finj = 0;
  u64 pages = 0, counted = 0, pf_hits = 0, pf_fetches = 0;
  constexpr u64 kFaultContextWords = 64;  // run_fault_point's context size
  for (const auto& r : reqs) {
    if (r.repeat || !r.got_result || r.sweep != 0) continue;
    ++counted;
    act += r.stats.activations;
    deltas += r.stats.delta_count;
    syncs += r.stats.loose_syncs;
    words += r.stats.config_words_fetched;
    ferr += r.stats.fetch_errors;
    finj += r.stats.faults_injected;
    pages += r.stats.mem_pages_resident;
    if (r.spec.prefetch) {
      pf_hits += r.stats.prefetch_hits;
      pf_fetches += r.stats.config_words_fetched / kFaultContextWords;
    }
  }
  m["kernel.activations"] = {static_cast<double>(act), "count"};
  m["kernel.delta_cycles"] = {static_cast<double>(deltas), "count"};
  m["kernel.loose_syncs"] = {static_cast<double>(syncs), "count"};
  m["drcf.config_words"] = {static_cast<double>(words), "count"};
  // Fault-point jobs report no switch count; each configuration fetch of a
  // 64-word context stands for one switch (retries fetch again).
  m["drcf.switches"] = {
      counted ? static_cast<double>(words / kFaultContextWords) / counted : 0,
      "1/job"};
  m["drcf.prefetch_hit_frac"] = {
      pf_fetches ? static_cast<double>(pf_hits) / pf_fetches : 0, "frac"};
  m["fault.fetch_errors"] = {static_cast<double>(ferr), "count"};
  m["fault.injected"] = {static_cast<double>(finj), "count"};
  m["memory.pages_resident"] = {
      counted ? static_cast<double>(pages) / counted : 0, "pages/job"};

  // Span-derived waits of the traced half: queue = SUBMIT written -> body
  // start, commit = body end -> RESULT parsed, overhead = rtt minus queue
  // and body (all of it for a dedup-served repeat).
  std::map<std::string, std::pair<double, double>> body;
  for (const auto& s : tracer.spans())
    if (s.name == "body") body[s.job] = {s.t0, s.t1};
  std::vector<double> queue_us, commit_us, overhead_us;
  u64 traced_jobs = 0;
  for (const auto& r : reqs) {
    if (!r.traced || !r.got_result) continue;
    ++traced_jobs;
    const double rtt = r.t_result - r.t_submit;
    const auto it = r.repeat ? body.end() : body.find(r.spec.label);
    if (it == body.end()) {
      overhead_us.push_back(rtt * 1e6);
      continue;
    }
    const double q = it->second.first - r.t_sent;
    const double b = it->second.second - it->second.first;
    queue_us.push_back(q * 1e6);
    commit_us.push_back((r.t_result - it->second.second) * 1e6);
    overhead_us.push_back((rtt - q - b) * 1e6);
  }
  m["campaign.queue_wait_us"] = {median(queue_us), "us"};
  m["campaign.commit_us"] = {median(commit_us), "us"};
  m["service.overhead_us"] = {median(overhead_us), "us"};
  const auto& k = counters;
  m["service.dedup_hit_frac"] = {
      k.requests ? static_cast<double>(k.dedup_hits) / k.requests : 0, "frac"};
  self_times(tracer, traced_since, traced_until, traced_jobs, m);
  // Each half's rate as jobs_per_s takes it: the best tenth of its slices.
  const auto half_rate = [&](double since) {
    std::vector<double> rate(
        std::max<usize>(1, static_cast<usize>(o.seconds / 2 / kSliceS)));
    for (const auto& r : reqs) {
      if (!r.got_result || r.t_result < since) continue;
      const auto k = static_cast<usize>((r.t_result - since) / kSliceS);
      if (k < rate.size()) rate[k] += 1 / kSliceS;
    }
    return quantile(rate, 1 - kBestSlice);
  };
  m["trace.overhead_frac"] = {
      half_rate(untraced_since) / half_rate(traced_since) - 1, "frac"};
  probe_sample = mix.sample();
  std::ostringstream d;
  d << "{\"counted_jobs\":" << counted << ",\"traced_requests\":" << traced_jobs
    << "}";
  res.detail = d.str();
  return res;
}

// -- Entry point -----------------------------------------------------------------

int write_reference(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return 2;
  }
  out << "# Simulated statistics of every dse_explorer job, one line per "
         "timing mode and label:\n"
         "# mode, label, then done failed quarantined sim_ps deltas "
         "activations sched_digest fetch_errors faults_injected fault_events "
         "fault_digest prefetch_hits cache_hits config_words hidden_ps "
         "loose_syncs migrations state_words pages_resident cow_splits "
         "shared_pages user_data_fnv switches=N.\n"
         "# Regenerate with: perfbench_driver --write-reference FILE\n";
  Tracer off(false);
  for (const bool loose : {false, true}) {
    const auto jobs = dse_jobs(loose);
    std::vector<usize> order(jobs.size());
    for (usize i = 0; i < order.size(); ++i) order[i] = i;
    const auto pass = run_dse_pass(jobs, order, loose, off);
    for (usize k = 0; k < pass.records.size(); ++k) {
      if (!pass.outcomes[k].ok) {
        std::cerr << "perfbench: " << pass.jobs[k]->label << " failed\n";
        return 1;
      }
      out << (loose ? "loose" : "timed") << '\t' << pass.jobs[k]->label << '\t'
          << dse_ref_value(*pass.jobs[k], pass.records[k], pass.outcomes[k])
          << '\n';
    }
  }
  return out ? 0 : 1;
}

void print_metrics(const Tally& tally, const Metrics& m) {
  std::ostringstream s;
  s << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << tally.attempted << ", \"failed\": "
    << tally.failed << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : m) {
    std::snprintf(buf, sizeof buf, "%.9g", metric.value);
    s << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
      << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  s << "}}";
  std::cout << s.str() << std::endl;
}

int run(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--reference") o.reference = value();
    else if (a == "--out-dir") o.out_dir = value();
    else if (a == "--git-rev") o.git_rev = value();
    else if (a == "--write-reference") o.write_reference = value();
    else throw std::runtime_error("unknown argument " + a);
  }
  if (!o.write_reference.empty()) return write_reference(o.write_reference);
  if (o.workload != "dse_timed" && o.workload != "dse_loose" &&
      o.workload != "service_mix")
    throw std::runtime_error("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0)) throw std::runtime_error("--seconds must be positive");

  std::cout << "perfbench stamp " << stamp_json(o) << std::endl;
  // The fault-point jobs log every injected fetch error; thousands of
  // stderr lines per second would be measured as service time.
  log::set_level(log::Level::kOff);
  o.run_dir = o.out_dir + "/run-" + std::to_string(getpid());
  fs::create_directories(o.run_dir);
  // Journals, caches and sockets of this run go away with it, on every path.
  class RemoveOnExit {
   public:
    explicit RemoveOnExit(std::string dir) : dir_(std::move(dir)) {}
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(dir_, ec);
    }
    RemoveOnExit(const RemoveOnExit&) = delete;
    RemoveOnExit& operator=(const RemoveOnExit&) = delete;

   private:
    std::string dir_;
  } cleanup(o.run_dir);
  Tracer tracer(o.trace);
  Tally tally;
  campaign::JobStats sample;
  WorkloadResult r =
      o.workload == "service_mix"
          ? run_service(o, tracer, tally, sample)
          : run_dse(o, o.workload == "dse_loose", tracer, tally, sample);
  const double attempted = static_cast<double>(std::max<u64>(1, tally.attempted));
  if (!o.trace) {
    r.metrics["ok_frac"] = {(attempted - static_cast<double>(tally.failed)) /
                                attempted,
                            "frac"};
  } else {
    const std::string probe_dir = o.run_dir + "/probes";
    fs::create_directories(probe_dir);
    run_layer_probes(probe_dir, sample, kProbeReps, r.metrics);
    const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (!tracer.write_chrome(path, stamp_json(o)))
      throw std::runtime_error("cannot write " + path);
    std::cout << "perfbench trace " << path << std::endl;
  }
  std::cout << "perfbench detail " << r.detail << std::endl;
  for (const auto& n : tally.notes) std::cerr << "perfbench: FAIL " << n << "\n";
  print_metrics(tally, r.metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build without NDEBUG ("
            << PERFBENCH_BUILD_TYPE << "); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  const std::string bt = PERFBENCH_BUILD_TYPE;
  if (bt != "Release" && bt != "RelWithDebInfo" && bt != "MinSizeRel") {
    std::cerr << "perfbench: refusing to measure a '" << bt << "' build\n";
    return 3;
  }
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
