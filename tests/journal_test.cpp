// Crash-safe campaign journal tests: append/read round trips, torn-line
// recovery, last-record-wins semantics, and spec-hash identity.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "kernel/time.hpp"

namespace adriatic::campaign {
namespace {

/// Unique temp path per test; removed on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& tag) {
    path_ = testing::TempDir() + "adriatic_journal_" + tag + ".wal";
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

JobStats sample_stats(usize index) {
  JobStats s;
  s.index = index;
  s.label = "policy a/r 5";  // space forces percent-encoding
  s.done = true;
  s.wall_seconds = 0.125;
  s.sim_time = kern::Time::ns(420);
  s.delta_count = 99;
  s.activations = 1234;
  s.digest = 0xdeadbeefcafef00dull;
  s.attempts = 2;
  s.has_faults = true;
  s.fetch_errors = 3;
  s.faults_injected = 4;
  s.fault_events = 7;
  s.fault_digest = 0x0123456789abcdefull;
  s.has_prefetch = true;
  s.prefetch_hits = 11;
  s.cache_hits = 17;
  s.config_words_fetched = 2048;
  s.hidden_latency = kern::Time::ns(640);
  s.has_migration = true;
  s.migrations = 2;
  s.state_words_moved = 68;
  s.transfer_faults_recovered = 1;
  s.has_memory = true;
  s.mem_resident_peak_bytes = 5 * 4096;
  s.mem_pages_resident = 5;
  s.mem_cow_splits = 3;
  s.mem_shared_pages = 2;
  s.ecc_corrected = 9;
  s.ecc_uncorrectable = 1;
  s.worker_deaths = 2;
  s.from_cache = true;
  s.user_data = "cell a\tcell b\x1f" "1.5";  // tool payload, control chars
  return s;
}

TEST(JournalTest, RoundTripRestoresCompletedStats) {
  TempPath tmp("roundtrip");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    j->record_planned(1, spec_hash("b", 42), "b");
    j->record_begun(0, 1);
    j->record_done(sample_stats(0));
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->campaign, "unit_sweep");
  EXPECT_EQ(state->torn_lines, 0u);
  EXPECT_EQ(state->begun_records, 1u);
  ASSERT_EQ(state->planned.size(), 2u);
  EXPECT_EQ(state->planned.at(0).spec, spec_hash("a"));
  EXPECT_EQ(state->planned.at(1).spec, spec_hash("b", 42));
  EXPECT_EQ(state->planned.at(1).label, "b");

  ASSERT_EQ(state->completed.size(), 1u);
  const JobStats& s = state->completed.at(0);
  const JobStats ref = sample_stats(0);
  EXPECT_EQ(s.label, ref.label);
  EXPECT_TRUE(s.done);
  EXPECT_DOUBLE_EQ(s.wall_seconds, ref.wall_seconds);
  EXPECT_EQ(s.sim_time, ref.sim_time);
  EXPECT_EQ(s.delta_count, ref.delta_count);
  EXPECT_EQ(s.activations, ref.activations);
  EXPECT_EQ(s.digest, ref.digest);
  EXPECT_EQ(s.attempts, ref.attempts);
  EXPECT_TRUE(s.has_faults);
  EXPECT_EQ(s.fetch_errors, ref.fetch_errors);
  EXPECT_EQ(s.faults_injected, ref.faults_injected);
  EXPECT_EQ(s.fault_events, ref.fault_events);
  EXPECT_EQ(s.fault_digest, ref.fault_digest);
  EXPECT_TRUE(s.has_prefetch);
  EXPECT_EQ(s.prefetch_hits, ref.prefetch_hits);
  EXPECT_EQ(s.cache_hits, ref.cache_hits);
  EXPECT_EQ(s.config_words_fetched, ref.config_words_fetched);
  EXPECT_EQ(s.hidden_latency, ref.hidden_latency);
  EXPECT_TRUE(s.has_migration);
  EXPECT_EQ(s.migrations, ref.migrations);
  EXPECT_EQ(s.state_words_moved, ref.state_words_moved);
  EXPECT_EQ(s.transfer_faults_recovered, ref.transfer_faults_recovered);
  EXPECT_TRUE(s.has_memory);
  EXPECT_EQ(s.mem_resident_peak_bytes, ref.mem_resident_peak_bytes);
  EXPECT_EQ(s.mem_pages_resident, ref.mem_pages_resident);
  EXPECT_EQ(s.mem_cow_splits, ref.mem_cow_splits);
  EXPECT_EQ(s.mem_shared_pages, ref.mem_shared_pages);
  EXPECT_EQ(s.ecc_corrected, ref.ecc_corrected);
  EXPECT_EQ(s.ecc_uncorrectable, ref.ecc_uncorrectable);
  EXPECT_EQ(s.worker_deaths, ref.worker_deaths);
  EXPECT_TRUE(s.from_cache);
  EXPECT_EQ(s.user_data, ref.user_data);
}

TEST(JournalTest, PlainStatsEmitNoProcessOrCacheKeys) {
  // Thread-mode jobs that never forked and never hit the cache must keep
  // the pre-process-isolation D-record byte format: the new keys are
  // strictly opt-in, so old readers and golden journals stay valid.
  JobStats s;
  s.index = 0;
  s.label = "plain";
  s.done = true;
  const std::string tail = encode_job_stats(s);
  EXPECT_EQ(tail.find("deaths="), std::string::npos);
  EXPECT_EQ(tail.find("cached="), std::string::npos);
  EXPECT_EQ(tail.find("udata="), std::string::npos);
  // Memory/ECC keys (new in v9) are likewise opt-in via record_memory().
  EXPECT_EQ(tail.find("mem_peak="), std::string::npos);
  EXPECT_EQ(tail.find("ecc_cor="), std::string::npos);
}

TEST(JournalTest, UnfinishedResultStaysRerunnable) {
  TempPath tmp("rerunnable");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    JobStats s;
    s.index = 0;
    s.label = "a";
    s.done = false;  // interrupted / quarantined: must re-run on resume
    s.quarantined = true;
    s.quarantine_reason = "interrupted";
    j->record_done(s);
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_TRUE(state->completed.empty());
}

TEST(JournalTest, LastRecordPerJobWins) {
  TempPath tmp("lastwins");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    JobStats first = sample_stats(0);
    first.digest = 1;
    j->record_done(first);
  }
  {
    // A resume appends; its fresh result supersedes the original one.
    auto j = CampaignJournal::append_to(tmp.str());
    ASSERT_NE(j, nullptr);
    JobStats second = sample_stats(0);
    second.digest = 2;
    j->record_done(second);
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  ASSERT_EQ(state->completed.size(), 1u);
  EXPECT_EQ(state->completed.at(0).digest, 2u);
}

TEST(JournalTest, TornTailLineIsDroppedNotFatal) {
  TempPath tmp("torn");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    j->record_done(sample_stats(0));
  }
  {
    // Simulate SIGKILL mid-append: a D record cut off before its checksum.
    std::ofstream out(tmp.str(), std::ios::app);
    out << "D 1 label=b done=1 wall=0.5";  // no cks=, no newline
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->torn_lines, 1u);
  ASSERT_EQ(state->completed.size(), 1u);  // intact records all survive
  EXPECT_EQ(state->completed.count(1), 0u);
}

TEST(JournalTest, CorruptedByteFailsTheLineChecksum) {
  TempPath tmp("flip");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
  }
  std::string content;
  {
    std::ifstream in(tmp.str());
    std::getline(in, content, '\0');
  }
  const auto pos = content.find("P 0");
  ASSERT_NE(pos, std::string::npos);
  content[pos + 2] = '7';  // flip the index inside the checksummed region
  {
    std::ofstream out(tmp.str(), std::ios::trunc);
    out << content;
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->torn_lines, 1u);
  EXPECT_TRUE(state->planned.empty());
}

TEST(JournalTest, MissingFileOrMissingHeaderIsNullopt) {
  EXPECT_FALSE(read_journal(testing::TempDir() + "does_not_exist.wal")
                   .has_value());
  TempPath tmp("noheader");
  {
    std::ofstream out(tmp.str());
    out << "not a journal\n";
  }
  EXPECT_FALSE(read_journal(tmp.str()).has_value());
}

TEST(JournalTest, LabelsWithSpacesAndNewlinesRoundTrip) {
  TempPath tmp("encode");
  const std::string label = "odd label\nwith newline % and percent";
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(3, spec_hash(label), label);
    JobStats s;
    s.index = 3;
    s.label = label;
    s.done = true;
    s.failed = true;
    s.error = "exception: bad thing happened";
    j->record_done(s);
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  ASSERT_EQ(state->planned.count(3), 1u);
  EXPECT_EQ(state->planned.at(3).label, label);
  ASSERT_EQ(state->completed.count(3), 1u);
  EXPECT_EQ(state->completed.at(3).label, label);
  EXPECT_EQ(state->completed.at(3).error, "exception: bad thing happened");
}

TEST(JournalTest, SpecHashCoversLabelAndParams) {
  EXPECT_EQ(spec_hash("a"), spec_hash("a"));
  EXPECT_NE(spec_hash("a"), spec_hash("b"));
  EXPECT_NE(spec_hash("a", 1), spec_hash("a", 2));
  EXPECT_NE(spec_hash("a"), spec_hash("a", 1));
}

/// Appends an intact `C <spec>` cache-hit line, the record journals carried
/// before it was dropped; read_journal() must keep loading such journals.
void append_legacy_cache_hit(const std::string& path, u64 spec) {
  char content[32];
  std::snprintf(content, sizeof(content), "C %016llx",
                static_cast<unsigned long long>(spec));
  std::ofstream out(path, std::ios::app);
  out << content << checksum_suffix(content) << '\n';
}

TEST(JournalTest, WorkerDeathAndCacheHitLinesRoundTrip) {
  TempPath tmp("xc");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    j->record_worker_death(0, "signal:SIGSEGV");
    j->record_worker_death(3, "exit code 42 (oom)");  // space-encoding path
  }
  append_legacy_cache_hit(tmp.str(), spec_hash("a"));
  append_legacy_cache_hit(tmp.str(), 0x0123456789abcdefull);
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->torn_lines, 0u);
  ASSERT_EQ(state->worker_deaths.size(), 2u);
  EXPECT_EQ(state->worker_deaths[0].index, 0u);
  EXPECT_EQ(state->worker_deaths[0].reason, "signal:SIGSEGV");
  EXPECT_EQ(state->worker_deaths[1].index, 3u);
  EXPECT_EQ(state->worker_deaths[1].reason, "exit code 42 (oom)");
  // Intact legacy C lines are skipped, not misread as anything else.
  EXPECT_EQ(state->planned.size(), 1u);
  EXPECT_TRUE(state->completed.empty());
}

TEST(JournalTest, TornWorkerDeathAndCacheLinesAreDroppedNotFatal) {
  TempPath tmp("xctorn");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_worker_death(0, "timeout");
  }
  append_legacy_cache_hit(tmp.str(), 7);
  {
    // SIGKILL mid-append: an X and a C record cut off before their
    // checksums must drop without losing the intact records above them.
    std::ofstream out(tmp.str(), std::ios::app);
    out << "X 1 signal:SIG\n"
        << "C 0123";  // no cks=, no newline
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->torn_lines, 2u);
  ASSERT_EQ(state->worker_deaths.size(), 1u);
  EXPECT_EQ(state->worker_deaths[0].reason, "timeout");
}

TEST(JournalTest, OldJournalWithCacheHitLinesStillResumes) {
  // A journal as the cache-hit-recording format wrote it: C lines between
  // the P and D records. Everything a resume needs still loads.
  TempPath tmp("legacy");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    j->record_planned(1, spec_hash("b"), "b");
  }
  append_legacy_cache_hit(tmp.str(), spec_hash("b"));
  {
    auto j = CampaignJournal::append_to(tmp.str());
    ASSERT_NE(j, nullptr);
    j->record_begun(0, 1);
    j->record_done(sample_stats(0));
  }
  append_legacy_cache_hit(tmp.str(), spec_hash("a"));
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->campaign, "unit_sweep");
  EXPECT_EQ(state->torn_lines, 0u);
  ASSERT_EQ(state->planned.size(), 2u);
  EXPECT_EQ(state->planned.at(1).spec, spec_hash("b"));
  EXPECT_EQ(state->begun_records, 1u);
  ASSERT_EQ(state->completed.size(), 1u);
  EXPECT_EQ(encode_job_stats(state->completed.at(0)),
            encode_job_stats(sample_stats(0)));
}

TEST(JournalTest, RunnerJournalsEveryJobLifecycle) {
  TempPath tmp("runner");
  {
    auto j = CampaignJournal::create(tmp.str(), "pool");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("ok"), "ok");
    j->record_planned(1, spec_hash("boom"), "boom");
    CampaignRunner runner(2);
    runner.set_journal(j.get());
    auto ok = runner.submit("ok", [] { return 1; });
    auto boom = runner.submit("boom", [] {
      throw std::runtime_error("boom");
      return 0;
    });
    EXPECT_EQ(ok.get(), 1);
    EXPECT_THROW(boom.get(), std::runtime_error);
    runner.wait_idle();
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->begun_records, 2u);
  // Both ran to completion (one failed) — both journal as done, and the
  // failure is restored with its message.
  ASSERT_EQ(state->completed.size(), 2u);
  EXPECT_FALSE(state->completed.at(0).failed);
  EXPECT_TRUE(state->completed.at(1).failed);
  EXPECT_EQ(state->completed.at(1).error, "boom");
}

}  // namespace
}  // namespace adriatic::campaign
