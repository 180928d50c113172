// End-to-end tests for the campaign service: an in-process campaignd on a
// temp Unix socket, driven through the real client library.
//
//  * results streamed over the socket are byte-identical (modulo wall clock)
//    to the same jobs run inline in this process — both paths execute
//    service/jobs.cpp, so the wire adds nothing and loses nothing;
//  * repeats dedup: a second client re-submitting a finished grid gets every
//    result from_cache without touching a worker;
//  * concurrent clients and a WATCH subscriber never see a torn frame;
//  * OK always reaches a client before the RESULT for the same request,
//    whether the job runs fresh or attaches to one in flight, and DRAINED
//    only after every RESULT;
//  * SIGTERM mid-sweep: serve() returns 130, finished jobs are journaled
//    done, interrupted ones quarantined, and a resumed server serves the
//    finished prefix from its journal/cache without re-simulating;
//  * the in-process session the sweep tools run: the same job list gives
//    the server's records, a journaled sweep stopped and resumed twice
//    ends equal to an uninterrupted one, and a foreign journal is refused.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/result_cache.hpp"
#include "service/client.hpp"
#include "service/jobs.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session.hpp"

namespace adriatic {
namespace {

using namespace std::chrono_literals;

// sun_path caps at ~107 bytes, so sockets (and their journal/cache
// companions) live under short /tmp names, unique per process and call.
std::string temp_path(const char* tag, const char* ext) {
  static std::atomic<int> counter{0};
  return "/tmp/adriatic_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ext;
}

/// The serialisation used for byte-identity checks: wall clock and the
/// from_cache flag are the only fields a cache/service round trip is allowed
/// to change, so both are normalised out before encoding.
std::string normalized(campaign::JobStats stats) {
  stats.wall_seconds = 0;
  stats.from_cache = false;
  return campaign::encode_job_stats(stats);
}

std::vector<service::ServiceJob> golden_jobs(const std::vector<u64>& seeds,
                                             u32 throttle_ms) {
  std::vector<service::ServiceJob> jobs;
  for (usize i = 0; i < seeds.size(); ++i) {
    service::ServiceJob job;
    job.index = i;
    job.spec = service::golden_spec_hash(seeds[i]);
    job.kind = "golden";
    job.label = "golden" + std::to_string(seeds[i]);
    job.params["seed"] = std::to_string(seeds[i]);
    if (throttle_ms > 0) job.params["throttle_ms"] = std::to_string(throttle_ms);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct LiveServer {
  explicit LiveServer(service::ServerOptions opt)
      : server(std::move(opt)) {}
  ~LiveServer() { server.stop(); }
  service::CampaignServer server;
};

TEST(ServiceTest, ResultsByteIdenticalToInlineAndWarmRepeatsDedup) {
  const std::vector<u64> seeds = {11, 42, 516};

  // Ground truth: the same golden jobs run inline on this thread, with the
  // same bookkeeping a pool worker applies.
  std::vector<campaign::JobStats> truth;
  for (const u64 seed : seeds) {
    campaign::run_inline("golden" + std::to_string(seed), truth,
                         [seed](campaign::JobContext& ctx) {
                           service::run_golden(seed, 0, ctx);
                         });
  }
  ASSERT_EQ(truth.size(), seeds.size());

  service::ServerOptions opt;
  opt.socket_path = temp_path("svc", ".sock");
  opt.threads = 2;
  LiveServer live(opt);
  ASSERT_TRUE(live.server.start());

  const auto jobs = golden_jobs(seeds, 0);
  const auto cold = service::run_jobs_over_service(opt.socket_path, jobs);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_EQ(cold.stats.size(), seeds.size());
  EXPECT_EQ(cold.totals.service_requests, seeds.size());
  EXPECT_EQ(cold.totals.dedup_hits, 0u);
  EXPECT_FALSE(cold.interrupted);
  for (usize i = 0; i < seeds.size(); ++i) {
    const campaign::JobStats& got = cold.stats.at(i);
    EXPECT_TRUE(got.done);
    EXPECT_FALSE(got.from_cache);
    EXPECT_EQ(got.index, i);
    EXPECT_EQ(got.label, "golden" + std::to_string(seeds[i]));
    EXPECT_NE(got.digest, 0u);
    EXPECT_EQ(got.digest, truth[i].digest);
    // The load-bearing assertion: the streamed record serialises to the
    // exact bytes of the inline one, every field included.
    EXPECT_EQ(normalized(got), normalized(truth[i])) << got.label;
  }

  // Warm repeat on a fresh connection: every result is served from the
  // session's finished map, flagged from_cache, no new simulation.
  const auto warm = service::run_jobs_over_service(opt.socket_path, jobs);
  ASSERT_TRUE(warm.ok) << warm.error;
  ASSERT_EQ(warm.stats.size(), seeds.size());
  EXPECT_EQ(warm.totals.dedup_hits, seeds.size());
  for (usize i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(warm.stats.at(i).from_cache);
    EXPECT_EQ(normalized(warm.stats.at(i)), normalized(truth[i]));
  }

  const service::ServerCounters c = live.server.counters();
  EXPECT_EQ(c.requests, 2 * seeds.size());
  EXPECT_EQ(c.dedup_hits, seeds.size());
  EXPECT_EQ(c.jobs_done, seeds.size());
  EXPECT_EQ(c.jobs_failed, 0u);
  EXPECT_GE(c.connections, 2u);

  // Local == server: one fault_point job list, over the socket and through
  // an in-process session (what fault_sweep runs without --server). Only
  // the process-wide memory high-water may differ between the two runs.
  std::vector<service::ServiceJob> points;
  for (u32 i = 0; i < 3; ++i) {
    service::FaultPointSpec spec;
    spec.label = "fault" + std::to_string(i);
    spec.policy = i;
    spec.rate_pct = 5 * i;
    spec.plan_seed = 7000 + i;
    spec.prefetch = i == 1;
    points.push_back({i, service::fault_point_spec_hash(spec), "fault_point",
                      spec.label, service::fault_point_params(spec)});
  }
  std::vector<service::SessionJob> local_points;
  for (const auto& job : points) local_points.push_back({job, {}, {}});
  const auto remote = service::run_jobs_over_service(opt.socket_path, points);
  service::SessionOptions local_opt;
  local_opt.threads = 2;
  const auto local = service::run_sweep(local_opt, local_points);
  ASSERT_TRUE(remote.ok) << remote.error;
  ASSERT_TRUE(local.ok) << local.error;
  ASSERT_EQ(local.stats.size(), points.size());
  EXPECT_EQ(local.totals.dedup_hits, 0u);
  for (usize i = 0; i < points.size(); ++i) {
    campaign::JobStats r = remote.stats.at(i);
    campaign::JobStats l = local.stats.at(i);
    EXPECT_TRUE(l.done) << l.label;
    EXPECT_TRUE(l.has_faults) << l.label;
    r.mem_resident_peak_bytes = l.mem_resident_peak_bytes = 0;
    EXPECT_EQ(normalized(l), normalized(r)) << points[i].label;
  }
}

TEST(ServiceTest, ConcurrentClientsAndWatcherSeeCleanFrames) {
  const std::vector<u64> seeds = {7, 99, 2003};

  service::ServerOptions opt;
  opt.socket_path = temp_path("svc", ".sock");
  opt.threads = 2;
  LiveServer live(opt);
  ASSERT_TRUE(live.server.start());

  // Subscribe the watcher before any job can finish, so every fresh
  // completion is broadcast to it.
  auto watcher = service::ServiceClient::connect(opt.socket_path);
  ASSERT_NE(watcher, nullptr);
  ASSERT_TRUE(watcher->watch(1));
  const auto ack = watcher->next_response();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, service::ResponseType::kOk);
  EXPECT_EQ(ack->id, 1u);

  std::vector<service::Response> watched;
  std::thread watch_thread([&] {
    // Drains broadcast frames until the server closes the connection; any
    // torn frame would land in wire_error() instead of a clean EOF.
    while (auto resp = watcher->next_response()) {
      if (resp->type == service::ResponseType::kResult)
        watched.push_back(*resp);
    }
  });

  // Two clients race the same grid; the server must simulate each point
  // once and serve the other submission by dedup (attach or finished map).
  const auto jobs = golden_jobs(seeds, 0);
  service::ServiceRunResult runs[2];
  std::thread clients[2];
  for (int k = 0; k < 2; ++k) {
    clients[k] = std::thread([&, k] {
      runs[k] = service::run_jobs_over_service(opt.socket_path, jobs);
    });
  }
  for (auto& t : clients) t.join();

  for (const auto& run : runs) {
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_EQ(run.stats.size(), seeds.size());
  }
  // Both clients hold byte-identical records for every point, whichever
  // dedup path served them.
  for (usize i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(runs[0].stats.at(i).done);
    EXPECT_EQ(normalized(runs[0].stats.at(i)), normalized(runs[1].stats.at(i)))
        << "seed " << seeds[i];
  }

  const service::ServerCounters c = live.server.counters();
  EXPECT_EQ(c.requests, 2 * seeds.size());
  EXPECT_EQ(c.dedup_hits, seeds.size());
  EXPECT_EQ(c.jobs_done, seeds.size());
  EXPECT_EQ(c.jobs_failed, 0u);

  live.server.stop();  // closes the watcher's connection -> clean EOF
  watch_thread.join();
  EXPECT_FALSE(watcher->wire_error().has_value());

  // The watcher saw every fresh completion (and possibly dedup re-serves),
  // each a cleanly parsed broadcast frame with the watcher id 0.
  EXPECT_GE(watched.size(), seeds.size());
  std::set<u64> watched_specs;
  for (const auto& resp : watched) {
    EXPECT_EQ(resp.id, 0u);
    EXPECT_TRUE(resp.stats.done);
    watched_specs.insert(resp.spec);
  }
  for (const u64 seed : seeds)
    EXPECT_TRUE(watched_specs.count(service::golden_spec_hash(seed)) > 0)
        << "seed " << seed;
}

TEST(ServiceTest, OkPrecedesResultAndDrainedFollowsEveryResult) {
  service::ServerOptions opt;
  opt.socket_path = temp_path("svc_order", ".sock");
  opt.threads = 2;
  LiveServer live(opt);
  // Jobs of this kind finish the moment a worker picks them up, so each
  // RESULT races the reader thread's OK as closely as the server allows.
  live.server.register_kind(
      "noop", [](const std::string&, const service::ParamMap&) {
        return std::optional<service::JobBody>([](campaign::JobContext&) {});
      });
  ASSERT_TRUE(live.server.start());

  auto client = service::ServiceClient::connect(opt.socket_path);
  ASSERT_NE(client, nullptr);
  // Each spec goes out three times back to back: the first runs fresh, the
  // repeats attach to it while in flight or hit the finished map. A DRAIN
  // follows the last submit; its DRAINED must come after every RESULT.
  constexpr u64 kSpecs = 200;
  constexpr u64 kCopies = 3;
  constexpr u64 kRequests = kSpecs * kCopies;
  std::thread sender([&] {
    u64 id = 0;
    for (u64 s = 0; s < kSpecs; ++s)
      for (u64 c = 0; c < kCopies; ++c)
        client->submit(++id, 0x5eed0000 + s, "noop",
                       "noop" + std::to_string(s), {});
    client->drain(++id);
  });

  std::set<u64> ok_ids;
  std::set<u64> result_ids;
  std::vector<u64> result_before_ok;
  std::optional<usize> results_at_drained;
  std::string failure;
  while (!results_at_drained.has_value() && failure.empty()) {
    const auto resp = client->next_response();
    if (!resp.has_value()) {
      failure = "connection ended early";
    } else if (resp->type == service::ResponseType::kDrained) {
      results_at_drained = result_ids.size();
    } else if (resp->type == service::ResponseType::kOk) {
      if (!ok_ids.insert(resp->id).second)
        failure = "second OK for id " + std::to_string(resp->id);
    } else if (resp->type == service::ResponseType::kResult) {
      if (ok_ids.count(resp->id) == 0) result_before_ok.push_back(resp->id);
      if (!result_ids.insert(resp->id).second)
        failure = "second RESULT for id " + std::to_string(resp->id);
      EXPECT_TRUE(resp->stats.done) << resp->stats.label;
    } else {
      failure = "unexpected response: " + resp->detail;
    }
  }
  sender.join();
  ASSERT_TRUE(failure.empty()) << failure;
  EXPECT_TRUE(result_before_ok.empty())
      << result_before_ok.size() << " RESULT frame(s) overtook their OK, "
      << "first for id " << result_before_ok.front();
  EXPECT_EQ(ok_ids.size(), kRequests);
  EXPECT_EQ(*results_at_drained, kRequests);

  const service::ServerCounters c = live.server.counters();
  EXPECT_EQ(c.requests, kRequests);
  EXPECT_EQ(c.jobs_done, kSpecs);
  EXPECT_EQ(c.dedup_hits, kRequests - kSpecs);
}

TEST(ServiceTest, SigtermJournalsInterruptedAndResumeServesFinishedPrefix) {
  const std::vector<u64> seeds = {901, 902, 903, 904, 905, 906};
  const std::string sock = temp_path("svc_sig", ".sock");
  const std::string journal_path = temp_path("svc_sig", ".journal");
  const std::string cache_path = temp_path("svc_sig", ".cache");

  campaign::clear_signal_stop();
  campaign::install_stop_signal_handlers();

  service::ServerOptions opt;
  opt.socket_path = sock;
  opt.threads = 1;  // serialise jobs so the signal lands mid-sweep
  opt.campaign_name = "svc-sigterm";
  opt.journal_path = journal_path;
  opt.cache_path = cache_path;

  auto server = std::make_unique<service::CampaignServer>(opt);
  int rc = -1;
  std::thread serve_thread([&] { rc = server->serve(); });

  // serve() binds the socket before it blocks; wait for it to appear.
  for (int i = 0; i < 500 && ::access(sock.c_str(), F_OK) != 0; ++i)
    std::this_thread::sleep_for(10ms);
  ASSERT_EQ(::access(sock.c_str(), F_OK), 0);

  // Throttled jobs widen the window: with one worker and ~250 ms per job
  // the sweep is mid-flight for over a second.
  const auto jobs = golden_jobs(seeds, 250);
  service::ServiceRunResult run;
  std::thread client_thread(
      [&] { run = service::run_jobs_over_service(sock, jobs); });

  // Let a prefix finish, then deliver the signal a real operator would.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (server->counters().jobs_done < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  ASSERT_GE(server->counters().jobs_done, 2u);
  ::raise(SIGTERM);

  serve_thread.join();
  EXPECT_EQ(rc, 130);
  client_thread.join();

  // The client got a RESULT for every job — interrupted ones stream out as
  // quarantined records before the server closes connections.
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_EQ(run.stats.size(), seeds.size());
  EXPECT_TRUE(run.interrupted);
  usize done_jobs = 0;
  for (const auto& [index, stats] : run.stats) {
    if (stats.done) {
      ++done_jobs;
    } else {
      EXPECT_TRUE(stats.quarantined) << stats.label;
      EXPECT_EQ(stats.quarantine_reason, "interrupted") << stats.label;
    }
  }
  EXPECT_GE(done_jobs, 2u);
  EXPECT_LT(done_jobs, seeds.size());

  // Journal integrity: readable header, finished jobs restored verbatim as
  // done records, nothing torn by the stop.
  const auto state = campaign::read_journal(journal_path);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->campaign, "svc-sigterm");
  EXPECT_EQ(state->torn_lines, 0u);
  ASSERT_FALSE(state->completed.empty());
  EXPECT_EQ(state->completed.size(), done_jobs);
  std::map<u64, u64> journaled_digest;  // spec -> trace digest
  for (const auto& [index, stats] : state->completed) {
    EXPECT_TRUE(stats.done);
    const auto planned = state->planned.find(index);
    ASSERT_NE(planned, state->planned.end());
    EXPECT_EQ(planned->second.label, stats.label);
    journaled_digest[planned->second.spec] = stats.digest;
  }

  server.reset();
  campaign::clear_signal_stop();

  // Restart against the same journal and cache: the finished prefix must be
  // served from_cache (no re-simulation), the rest simulated fresh.
  service::ServerOptions opt2 = opt;
  opt2.resume = true;
  LiveServer live(opt2);
  ASSERT_TRUE(live.server.start());

  const auto warm = service::run_jobs_over_service(sock, golden_jobs(seeds, 0));
  ASSERT_TRUE(warm.ok) << warm.error;
  ASSERT_EQ(warm.stats.size(), seeds.size());
  EXPECT_FALSE(warm.interrupted);
  usize from_cache = 0;
  for (usize i = 0; i < seeds.size(); ++i) {
    const campaign::JobStats& stats = warm.stats.at(i);
    EXPECT_TRUE(stats.done) << stats.label;
    const u64 spec = service::golden_spec_hash(seeds[i]);
    const auto journaled = journaled_digest.find(spec);
    if (journaled != journaled_digest.end()) {
      ++from_cache;
      EXPECT_TRUE(stats.from_cache) << stats.label;
      EXPECT_EQ(stats.digest, journaled->second) << stats.label;
    }
  }
  EXPECT_EQ(from_cache, journaled_digest.size());
  EXPECT_EQ(warm.totals.dedup_hits, journaled_digest.size());
  EXPECT_EQ(live.server.counters().jobs_done, seeds.size() - done_jobs);

  live.server.stop();
  ::unlink(journal_path.c_str());
  ::unlink(cache_path.c_str());
}

/// Golden jobs as a planned session sweep, built from the "golden" kind.
std::vector<service::SessionJob> golden_sweep(const std::vector<u64>& seeds,
                                              u32 throttle_ms) {
  std::vector<service::SessionJob> jobs;
  for (const auto& job : golden_jobs(seeds, throttle_ms))
    jobs.push_back({job, {}, {}});
  return jobs;
}

/// Done records in the journal at `path` (0 while it cannot be read).
usize journaled_done(const std::string& path) {
  const auto state = campaign::read_journal(path);
  return state.has_value() ? state->completed.size() : 0;
}

/// Runs `jobs` through a session and raises SIGTERM once its journal holds
/// `stop_after` more done records.
service::ServiceRunResult run_and_stop(
    const service::SessionOptions& opt,
    const std::vector<service::SessionJob>& jobs, usize stop_after) {
  campaign::clear_signal_stop();
  const usize target =
      (opt.resume ? journaled_done(opt.journal_path) : 0) + stop_after;
  service::ServiceRunResult run;
  std::thread sweep([&] { run = service::run_sweep(opt, jobs); });
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (journaled_done(opt.journal_path) < target &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  ::raise(SIGTERM);
  sweep.join();
  campaign::clear_signal_stop();
  return run;
}

TEST(SessionTest, SweepStoppedAndResumedTwiceMatchesUninterruptedRun) {
  const std::vector<u64> seeds = {31, 32, 33, 34, 35, 36, 37, 38};
  const std::string journal_path = temp_path("sess", ".journal");
  const std::string cache_path = temp_path("sess", ".cache");
  campaign::install_stop_signal_handlers();

  service::SessionOptions plain;
  plain.threads = 1;  // one job at a time, so a stop lands mid-sweep
  plain.campaign_name = "session-resume";
  const auto reference = service::run_sweep(plain, golden_sweep(seeds, 0));
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_EQ(reference.stats.size(), seeds.size());

  // Throttled copies of the same jobs (the throttle is not part of the
  // spec) widen the window for each stop.
  const auto jobs = golden_sweep(seeds, 60);
  service::SessionOptions opt = plain;
  opt.journal_path = journal_path;
  opt.cache_path = cache_path;
  const auto first = run_and_stop(opt, jobs, 2);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(first.interrupted);
  EXPECT_EQ(first.restored, 0u);

  opt.resume = true;
  const auto second = run_and_stop(opt, jobs, 2);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.interrupted);
  EXPECT_GE(second.restored, 2u);

  const auto last = service::run_sweep(opt, jobs);
  ASSERT_TRUE(last.ok) << last.error;
  EXPECT_FALSE(last.interrupted);
  EXPECT_GE(last.restored, 4u);
  EXPECT_LT(last.restored, seeds.size());
  // The cache held every journaled result too, but the journal's own
  // records come back first and are restores, not dedup hits.
  EXPECT_EQ(last.totals.dedup_hits, 0u);
  ASSERT_EQ(last.stats.size(), seeds.size());
  for (usize i = 0; i < seeds.size(); ++i) {
    const campaign::JobStats& got = last.stats.at(i);
    EXPECT_TRUE(got.done) << got.label;
    EXPECT_FALSE(got.from_cache) << got.label;
    EXPECT_EQ(normalized(got), normalized(reference.stats.at(i))) << got.label;
  }
  EXPECT_EQ(journaled_done(journal_path), seeds.size());

  // A fresh journal over the same cache: every job is cache-served.
  service::SessionOptions warm = plain;
  warm.journal_path = journal_path;
  warm.cache_path = cache_path;
  const auto cached = service::run_sweep(warm, jobs);
  ASSERT_TRUE(cached.ok) << cached.error;
  EXPECT_EQ(cached.totals.dedup_hits, seeds.size());
  EXPECT_EQ(cached.restored, 0u);
  for (usize i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(cached.stats.at(i).from_cache);
    EXPECT_EQ(normalized(cached.stats.at(i)),
              normalized(reference.stats.at(i)));
  }

  ::unlink(journal_path.c_str());
  ::unlink(cache_path.c_str());
}

TEST(SessionTest, ResumeRefusesAForeignJournal) {
  const std::string journal_path = temp_path("sess_foreign", ".journal");
  service::SessionOptions opt;
  opt.threads = 1;
  opt.campaign_name = "owner";
  opt.journal_path = journal_path;
  ASSERT_TRUE(service::run_sweep(opt, golden_sweep({1, 2}, 0)).ok);

  opt.resume = true;
  service::SessionOptions other_campaign = opt;
  other_campaign.campaign_name = "intruder";
  const auto wrong_name =
      service::run_sweep(other_campaign, golden_sweep({1, 2}, 0));
  EXPECT_FALSE(wrong_name.ok);
  EXPECT_TRUE(wrong_name.stats.empty());
  EXPECT_NE(wrong_name.error.find("belongs to campaign 'owner'"),
            std::string::npos)
      << wrong_name.error;

  const auto wrong_specs =
      service::run_sweep(opt, golden_sweep({1, 3}, 0));
  EXPECT_FALSE(wrong_specs.ok);
  EXPECT_TRUE(wrong_specs.stats.empty());
  EXPECT_NE(wrong_specs.error.find("journal job 1 does not match"),
            std::string::npos)
      << wrong_specs.error;

  // The journal's own sweep still resumes, restoring every job.
  const auto same = service::run_sweep(opt, golden_sweep({1, 2}, 0));
  ASSERT_TRUE(same.ok) << same.error;
  EXPECT_EQ(same.restored, 2u);
  ::unlink(journal_path.c_str());
}

TEST(SessionTest, ToolLocalJobsNeverTakeOrFeedADedupTier) {
  const std::string cache_path = temp_path("sess_local", ".cache");
  std::atomic<int> runs{0};
  std::vector<service::SessionJob> jobs;
  for (usize i = 0; i < 2; ++i) {
    // Same spec twice: neither may be served from the other.
    service::SessionJob job;
    job.job = {i, campaign::spec_hash("local"), "", "local", {}};
    job.body = [&runs](campaign::JobContext&) { ++runs; };
    jobs.push_back(std::move(job));
  }
  service::SessionOptions opt;
  opt.threads = 1;
  opt.cache_path = cache_path;
  for (int pass = 0; pass < 2; ++pass) {
    const auto run = service::run_sweep(opt, jobs);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.totals.dedup_hits, 0u);
    for (const auto& [index, stats] : run.stats) EXPECT_TRUE(stats.done);
  }
  EXPECT_EQ(runs.load(), 4);
  const auto cache = campaign::ResultCache::open(cache_path);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->size(), 0u);
  ::unlink(cache_path.c_str());
}

}  // namespace
}  // namespace adriatic
