#include "campaign/result_cache.hpp"

#include <cstdlib>

#include "campaign/journal.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace adriatic::campaign {

namespace {

constexpr char kCacheHeader[] = "R adriatic-result-cache v1";
constexpr char kEntryVersion[] = "v1";

}  // namespace

std::unique_ptr<ResultCache> ResultCache::open(const std::string& path) {
  // One read, one pass: the header is checked on the first line and every
  // later line is parsed as it streams by.
  std::map<u64, std::string> entries;
  usize dropped = 0;
  bool header_ok = false;
  bool first = true;
  const auto torn = read_log(path, [&](const std::string& content) {
    if (first) {
      first = false;
      header_ok = content == kCacheHeader;
      return header_ok;
    }
    // E <spec_hex> v1 <tail...>
    const std::vector<std::string> tok = split(content, ' ');
    // Unparseable lines and stale entry versions are dropped: never decode
    // across entry versions.
    if (tok.size() < 4 || tok[0] != "E" || tok[2] != kEntryVersion) {
      ++dropped;
      return true;
    }
    usize tail_at = content.find(' ');
    for (int skip = 0; skip < 2 && tail_at != std::string::npos; ++skip)
      tail_at = content.find(' ', tail_at + 1);
    if (tail_at == std::string::npos) {
      ++dropped;
      return true;
    }
    const u64 spec = std::strtoull(tok[1].c_str(), nullptr, 16);
    entries[spec] = content.substr(tail_at + 1);  // Last entry wins.
    return true;
  });

  std::unique_ptr<AppendLog> log;
  if (header_ok) {
    log = AppendLog::append_to(path);
  } else {
    // Missing or with an unreadable header: (re)create. A cache whose
    // header cannot be verified is worthless — every entry is suspect.
    if (torn.has_value() && (!first || *torn > 0))
      log::warn() << "result cache: resetting " << path
                  << " (unreadable header)";
    log = AppendLog::create(path, kCacheHeader);
  }
  if (log == nullptr) {
    log::error() << "result cache: cannot open " << path;
    return nullptr;
  }
  auto cache = std::unique_ptr<ResultCache>(new ResultCache(std::move(log)));
  if (header_ok) {
    cache->entries_ = std::move(entries);
    // Torn tail writes or bit rot count as drops too — a miss, not a hazard.
    cache->dropped_ = dropped + *torn;
  }
  return cache;
}

std::optional<JobStats> ResultCache::lookup(u64 spec) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(spec);
  if (it == entries_.end()) return std::nullopt;
  return decode_job_stats(it->second);
}

void ResultCache::store(u64 spec, const JobStats& stats) {
  if (!stats.done || stats.failed || stats.quarantined || stats.from_cache)
    return;
  const std::string tail = encode_job_stats(stats);
  std::lock_guard<std::mutex> lk(mu_);
  if (log_->append(strfmt("E %016llx %s ",
                          static_cast<unsigned long long>(spec),
                          kEntryVersion) +
                   tail))
    entries_[spec] = tail;
}

usize ResultCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

}  // namespace adriatic::campaign
