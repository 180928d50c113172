#include "service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "campaign/journal.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace adriatic::service {

std::unique_ptr<ServiceClient> ServiceClient::connect(
    const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    log::error() << "service client: bad socket path '" << socket_path << "'";
    return nullptr;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    log::error() << "service client: socket(): " << std::strerror(errno);
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    log::error() << "service client: cannot connect to '" << socket_path
                 << "': " << std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<ServiceClient>(new ServiceClient(fd));
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool ServiceClient::submit(u64 id, u64 spec, const std::string& kind,
                           const std::string& label, const ParamMap& params) {
  Request req;
  req.verb = Verb::kSubmit;
  req.id = id;
  req.spec = spec;
  req.kind = kind;
  req.label = label;
  req.params = encode_params(params);
  return send_raw(encode_request(req));
}

bool ServiceClient::watch(u64 id) {
  Request req;
  req.verb = Verb::kWatch;
  req.id = id;
  return send_raw(encode_request(req));
}

bool ServiceClient::stats(u64 id) {
  Request req;
  req.verb = Verb::kStats;
  req.id = id;
  return send_raw(encode_request(req));
}

bool ServiceClient::drain(u64 id) {
  Request req;
  req.verb = Verb::kDrain;
  req.id = id;
  return send_raw(encode_request(req));
}

bool ServiceClient::send_raw(const std::string& bytes) {
  if (fd_ < 0) return false;
  return campaign::write_all(fd_, bytes);
}

std::optional<Response> ServiceClient::next_response() {
  if (err_.has_value()) return std::nullopt;
  char buf[4096];
  for (;;) {
    while (auto ev = parser_.next()) {
      if (ev->error.has_value()) {
        err_ = ev->error;
        return std::nullopt;
      }
      const ResponseEvent rev = to_response(*ev->line);
      if (rev.error.has_value()) {
        err_ = rev.error;
        return std::nullopt;
      }
      return rev.response;
    }
    if (parser_.fatal()) return std::nullopt;
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) return std::nullopt;  // server closed
    parser_.feed(buf, static_cast<usize>(n));
  }
}

void ServiceRunResult::add(const ServiceJob& job, campaign::JobStats s) {
  s.index = job.index;
  s.label = job.label;
  if (s.from_cache) ++totals.dedup_hits;
  if (s.quarantined && s.quarantine_reason == "interrupted") interrupted = true;
  stats[job.index] = std::move(s);
}

std::vector<campaign::JobStats> ServiceRunResult::records(
    const std::vector<ServiceJob>& jobs) const {
  std::vector<campaign::JobStats> out(jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    const auto it = stats.find(jobs[i].index);
    if (it != stats.end()) {
      out[i] = it->second;
    } else {
      out[i].index = jobs[i].index;
      out[i].label = jobs[i].label;
    }
  }
  return out;
}

ServiceRunResult run_jobs_over_service(const std::string& socket_path,
                                       const std::vector<ServiceJob>& jobs) {
  ServiceRunResult result;
  auto client = ServiceClient::connect(socket_path);
  if (client == nullptr) {
    result.error = "cannot connect to '" + socket_path + "'";
    return result;
  }
  // Request id i+1 <-> jobs[i]; ids are per-connection so a plain counter
  // is enough.
  std::map<u64, usize> id_to_job;
  for (usize i = 0; i < jobs.size(); ++i) {
    const ServiceJob& job = jobs[i];
    const u64 id = static_cast<u64>(i) + 1;
    id_to_job[id] = i;
    if (!client->submit(id, job.spec, job.kind, job.label, job.params)) {
      result.error = "connection lost while submitting '" + job.label + "'";
      return result;
    }
    ++result.totals.service_requests;
  }
  usize outstanding = jobs.size();
  while (outstanding > 0) {
    const auto resp = client->next_response();
    if (!resp.has_value()) {
      if (client->wire_error().has_value())
        result.error = std::string("protocol violation from server: ") +
                       error_code_name(client->wire_error()->code);
      else
        result.error = strfmt("connection closed with %zu job(s) outstanding",
                              outstanding);
      return result;
    }
    switch (resp->type) {
      case ResponseType::kResult: {
        const auto it = id_to_job.find(resp->id);
        if (it == id_to_job.end()) continue;  // watcher traffic etc.
        result.add(jobs[it->second], resp->stats);
        --outstanding;
        break;
      }
      case ResponseType::kError: {
        const auto it = id_to_job.find(resp->id);
        if (result.error.empty())
          result.error = "server error '" +
                         std::string(error_code_name(resp->code)) +
                         "': " + resp->detail;
        if (it != id_to_job.end()) {
          // That job will never get a RESULT; give up on it but keep
          // collecting the rest.
          --outstanding;
        } else if (resp->id == 0) {
          // A connection-level error (framing): nothing further will
          // arrive.
          return result;
        }
        break;
      }
      case ResponseType::kOk:
      case ResponseType::kStats:
      case ResponseType::kDrained:
        break;  // acknowledgements; results are what we wait for
    }
  }
  result.ok = result.error.empty();
  return result;
}

}  // namespace adriatic::service
