// In-memory span recorder for the traced benchmark run.
//
// A span is one call the benchmark makes into a layer of the simulator:
// its name, the layer it belongs to, wall-clock start and end, the span that
// caused it and a job id that all spans of one request share. Spans stay in
// memory until the run ends; write_chrome() then emits them as Chrome
// trace-event JSON ("X" complete events), which Perfetto and
// chrome://tracing open directly. With tracing disabled every entry point
// returns immediately, so the untraced run pays one branch per call site.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;
  double t0 = 0;  ///< now_s() at entry.
  double t1 = 0;  ///< now_s() at exit.
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::string job;           ///< Shared by every span of one job/request.
  unsigned tid = 0;
};

/// Small dense thread index for the trace's tid field.
inline unsigned trace_thread_index() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned mine = next.fetch_add(1);
  return mine;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t new_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void add(Span s) {
    s.tid = s.tid != 0 ? s.tid : trace_thread_index();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }

  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// Writes every span as a Chrome trace-event "X" event (times in us);
  /// `metadata` is a JSON object stored under "otherData". False on I/O
  /// failure.
  bool write_chrome(const std::string& path, const std::string& metadata) const {
    const auto all = spans();
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << metadata
        << ",\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"perfbench\"}}";
    char buf[96];
    for (const auto& s : all) {
      out << ",\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
          << json_escape(s.layer) << "\",\"ph\":\"X\"";
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", s.t0 * 1e6,
                    (s.t1 - s.t0) * 1e6);
      out << buf << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"id\":"
          << s.id << ",\"parent\":" << s.parent << ",\"job\":\""
          << json_escape(s.job) << "\"}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time per layer, in seconds: each span's duration minus the part of
/// its interval that its child spans cover (children may run on other
/// threads, so overlapping children are merged first).
inline std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& all) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const auto& s : all)
    if (s.parent != 0) kids[s.parent].emplace_back(s.t0, s.t1);
  std::map<std::string, double> self;
  for (const auto& s : all) {
    double covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur0 = 0, cur1 = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.t0);
        b = std::min(b, s.t1);
        if (b <= a) continue;
        if (a > cur1) {
          if (cur1 > cur0) covered += cur1 - cur0;
          cur0 = a;
          cur1 = b;
        } else {
          cur1 = std::max(cur1, b);
        }
      }
      if (cur1 > cur0) covered += cur1 - cur0;
    }
    self[s.layer] += std::max(0.0, (s.t1 - s.t0) - covered);
  }
  return self;
}

/// Records one span for its scope when the tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* layer,
             std::uint64_t parent = 0, std::string job = {})
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    span_.name = name;
    span_.layer = layer;
    span_.parent = parent;
    span_.job = std::move(job);
    span_.id = tracer_.new_id();
    span_.t0 = now_s();
  }
  ~ScopedSpan() {
    if (span_.id == 0) return;
    span_.t1 = now_s();
    tracer_.add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

}  // namespace perfbench
