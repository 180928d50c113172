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
//    finished prefix from its journal/cache without re-simulating.
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
#include "service/client.hpp"
#include "service/jobs.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

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

}  // namespace
}  // namespace adriatic
