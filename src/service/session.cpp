#include "service/session.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace adriatic::service {

using campaign::JobStats;

namespace {

using Kinds = std::vector<std::pair<std::string, JobBuilder>>;

/// The body campaignd builds for a SUBMIT of `job`; nullopt with `code` and
/// `detail` set for an unknown kind or invalid params.
std::optional<JobBody> resolve(const Kinds& kinds, const ServiceJob& job,
                               ErrorCode& code, std::string& detail) {
  const auto kind =
      std::find_if(kinds.begin(), kinds.end(),
                   [&job](const auto& k) { return k.first == job.kind; });
  if (kind == kinds.end()) {
    code = ErrorCode::kUnknownKind;
    detail = "no job builder registered for kind '" + job.kind + "'";
    return std::nullopt;
  }
  auto body = kind->second(job.label, job.params);
  if (!body.has_value()) {
    code = ErrorCode::kBadRequest;
    detail = "invalid params for kind '" + job.kind + "'";
  }
  return body;
}

}  // namespace

Session::Session(SessionOptions opt)
    : opt_(std::move(opt)), kinds_(builtin_kinds()) {}

Session::~Session() { stop(); }

void Session::register_kind(const std::string& name, JobBuilder builder) {
  for (auto& [existing, b] : kinds_) {
    if (existing == name) {
      b = std::move(builder);
      return;
    }
  }
  kinds_.emplace_back(name, std::move(builder));
}

std::optional<campaign::JournalState> Session::read_journal_for(
    const SessionOptions& opt, const std::vector<SessionJob>& plan,
    std::string& error) {
  auto state = campaign::read_journal(opt.journal_path);
  if (!state.has_value()) {
    error = "cannot read journal '" + opt.journal_path + "'";
    return std::nullopt;
  }
  // A planned sweep only resumes its own journal: same campaign, same spec
  // at every index (spec hashes cover every simulation parameter).
  if (!plan.empty() && state->campaign != opt.campaign_name) {
    error = "journal belongs to campaign '" + state->campaign +
            "', refusing to resume";
    return std::nullopt;
  }
  for (const SessionJob& job : plan) {
    const auto it = state->planned.find(job.job.index);
    if (it == state->planned.end() || it->second.spec != job.job.spec) {
      error = strfmt("journal job %zu does not match this sweep, refusing "
                     "to resume",
                     job.job.index);
      return std::nullopt;
    }
  }
  if (state->torn_lines > 0)
    log::warn() << "campaign session: dropped " << state->torn_lines
                << " torn journal line(s) (crash mid-append)";
  return state;
}

std::string Session::start(const std::vector<SessionJob>& plan) {
  if (runner_ != nullptr) return {};
  planned_ = !plan.empty();
  if (!opt_.journal_path.empty()) {
    if (opt_.resume) {
      // Resume fills the finished tier from the journal's done records, so
      // the finished prefix is served without re-simulating even with no
      // result cache attached.
      std::string error;
      const auto state = read_journal_for(opt_, plan, error);
      if (!state.has_value()) return error;
      for (const auto& [idx, planned] : state->planned)
        next_index_ = std::max(next_index_, idx + 1);
      for (const auto& [idx, stats] : state->completed) {
        const auto it = state->planned.find(idx);
        if (it != state->planned.end()) finished_[it->second.spec] = stats;
      }
      journal_ = campaign::CampaignJournal::append_to(opt_.journal_path);
    } else {
      journal_ = campaign::CampaignJournal::create(opt_.journal_path,
                                                   opt_.campaign_name);
      if (journal_ != nullptr)
        for (const SessionJob& job : plan)
          journal_->record_planned(job.job.index, job.job.spec,
                                   job.job.label);
    }
    if (journal_ == nullptr)
      return "cannot open journal '" + opt_.journal_path + "'";
  }
  if (!opt_.cache_path.empty()) {
    cache_ = campaign::ResultCache::open(opt_.cache_path);
    if (cache_ == nullptr)
      return "cannot open cache '" + opt_.cache_path + "'";
  }

  runner_ = std::make_unique<campaign::CampaignRunner>(
      opt_.threads != 0 ? opt_.threads : campaign::default_thread_count(),
      opt_.processes ? campaign::ExecutionMode::kProcesses
                     : campaign::ExecutionMode::kThreads);
  // The hook fires after the record commit (futures resolve before it), on
  // the worker thread, outside the runner's locks — where a delivery to a
  // socket or a sweep's result table belongs.
  runner_->set_completion_hook(
      [this](const JobStats& stats) { on_complete(stats); });
  runner_->enable_signal_stop();
  if (journal_ != nullptr) runner_->set_journal(journal_.get());
  closed_.store(false);
  return {};
}

Session::Admission Session::admit(const SessionJob& job, Delivery deliver) {
  Admission adm;
  const auto refuse = [&adm](ErrorCode code, std::string detail) {
    adm.error = code;
    adm.detail = std::move(detail);
    return std::move(adm);
  };
  const ServiceJob& j = job.job;
  if (closed_.load())
    return refuse(ErrorCode::kShutdown, "server is stopping; job not accepted");
  adm.body = job.body;
  if (!adm.body) {
    ErrorCode code{};
    std::string detail;
    auto body = resolve(kinds_, j, code, detail);
    if (!body.has_value()) return refuse(code, std::move(detail));
    adm.body = std::move(*body);
  }
  adm.label = j.label;
  adm.opt = job.opt;
  adm.opt.spec = j.spec;

  std::lock_guard<std::mutex> lk(mu_);
  // Re-checked under the lock: close() takes it, so no admission slips
  // past a stop that has begun.
  if (closed_.load())
    return refuse(ErrorCode::kShutdown, "server is stopping; job not accepted");
  ++counters_.requests;
  // Only a planned sweep's own journal record comes back to the job that
  // produced it: a restore. Every other served copy is a dedup hit, which a
  // tool-local body never takes or feeds: its spec names nothing anyone
  // else runs.
  const bool shared = !job.body;
  auto fin = finished_.find(j.spec);
  const bool restored =
      planned_ && fin != finished_.end() && fin->second.index == j.index;
  if (!shared && !restored) fin = finished_.end();
  if (fin != finished_.end()) {
    adm.served = fin->second;
  } else if (cache_ != nullptr && shared) {
    adm.served = cache_->lookup(j.spec);
  }
  if (adm.served.has_value()) {
    adm.index = planned_ ? j.index : next_index_++;
    adm.served->index = adm.index;
    adm.served->label = j.label;
    adm.served->from_cache = !restored;
    if (!restored) ++counters_.dedup_hits;
    return adm;
  }
  if (const auto inflight = pending_by_spec_.find(j.spec);
      shared && inflight != pending_by_spec_.end()) {
    adm.index = inflight->second;
    pending_[adm.index].deliveries.push_back(std::move(deliver));
    ++counters_.dedup_hits;
    return adm;
  }
  adm.fresh = true;
  adm.index = planned_ ? j.index : next_index_++;
  pending_[adm.index] = Pending{j.spec, shared, {std::move(deliver)}};
  if (shared) pending_by_spec_[j.spec] = adm.index;
  return adm;
}

void Session::launch(Admission& adm) {
  // A planned sweep journaled its whole plan in start(); an open-ended
  // session plans each fresh job here, outside the session lock, before
  // the runner can journal its first attempt.
  if (journal_ != nullptr && !planned_)
    journal_->record_planned(adm.index, adm.opt.spec, adm.label);
  adm.opt.stats_index = adm.index;
  // The future is deliberately dropped: failures come back through the
  // committed JobStats (failed/quarantined) like any other result.
  (void)runner_->submit(std::move(adm.label), adm.opt, std::move(adm.body));
}

void Session::on_complete(const JobStats& stats) {
  Pending job;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = pending_.find(stats.index);
    if (it != pending_.end()) {
      job = std::move(it->second);
      if (job.shared) pending_by_spec_.erase(job.spec);
      pending_.erase(it);
    }
    if (stats.done && !stats.failed) {
      ++counters_.jobs_done;
      if (job.shared) finished_[job.spec] = stats;
    } else {
      ++counters_.jobs_failed;
    }
    // store() itself refuses unfinished/failed/quarantined records. A
    // planned sweep stores its results in one batch when it stops instead,
    // so no fsync runs between two of its simulations.
    if (cache_ != nullptr && !planned_ && job.shared)
      cache_->store(job.spec, stats);
    ++delivering_;
  }
  for (const Delivery& deliver : job.deliveries) deliver(job.spec, stats);
  std::lock_guard<std::mutex> lk(mu_);
  --delivering_;
  if (all_delivered()) cv_drain_.notify_all();
}

void Session::close() {
  std::lock_guard<std::mutex> lk(mu_);
  closed_.store(true);
  cv_drain_.notify_all();
}

void Session::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_drain_.wait(lk, [this] { return all_delivered() || closed_.load(); });
}

void Session::drain_for(std::chrono::milliseconds grace) {
  // wait_idle() returns once the last record is committed, which is before
  // its deliveries have run.
  if (runner_ != nullptr) runner_->wait_idle();
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_drain_.wait_for(lk, grace, [this] { return all_delivered(); });
  }
  if (journal_ != nullptr) journal_->flush();
}

void Session::stop() {
  close();
  if (runner_ != nullptr) {
    runner_->wait_idle();
    runner_.reset();  // Joins the workers, so every delivery has returned.
    if (cache_ != nullptr && planned_)
      for (const auto& [spec, stats] : finished_) cache_->store(spec, stats);
  }
  if (journal_ != nullptr) journal_->flush();
}

SessionCounters Session::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

ServiceRunResult run_sweep(const SessionOptions& opt,
                           const std::vector<SessionJob>& jobs) {
  ServiceRunResult run;
  Session session(opt);
  run.error = session.start(jobs);
  if (!run.error.empty()) return run;
  run.threads = session.thread_count();
  std::mutex mu;  // Guards `run`: deliveries land on worker threads.
  // The whole list is admitted before the first launch, so the runner gets
  // the fresh jobs back to back, as a plain submit loop would hand them over.
  std::vector<Session::Admission> fresh;
  for (const SessionJob& job : jobs) {
    auto adm = session.admit(job, [&, j = &job.job](u64, const JobStats& s) {
      std::lock_guard<std::mutex> lk(mu);
      run.add(*j, s);
    });
    if (adm.error.has_value()) {
      run.error = adm.detail;
      break;
    }
    ++run.totals.service_requests;
    if (adm.served.has_value()) {
      if (!adm.served->from_cache) ++run.restored;
      run.add(job.job, std::move(*adm.served));
    } else if (adm.fresh) {
      fresh.push_back(std::move(adm));
    }
  }
  for (Session::Admission& adm : fresh) session.launch(adm);
  session.stop();
  run.interrupted = run.interrupted || campaign::signal_stop_requested();
  run.ok = run.error.empty();
  return run;
}

ServiceRunResult run_inline_jobs(const std::vector<ServiceJob>& jobs) {
  ServiceRunResult run;
  run.threads = 1;
  const Kinds kinds = builtin_kinds();
  for (const ServiceJob& job : jobs) {
    ErrorCode code{};
    const auto body = resolve(kinds, job, code, run.error);
    if (!body.has_value()) break;
    ++run.totals.service_requests;
    std::vector<JobStats> record;
    try {
      campaign::run_inline(job.label, record, *body);
    } catch (const std::exception&) {
      // run_inline() recorded the failure.
    }
    run.add(job, std::move(record.back()));
  }
  run.ok = run.error.empty();
  return run;
}

}  // namespace adriatic::service
