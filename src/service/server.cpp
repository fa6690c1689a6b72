#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "service/jobs.hpp"
#include "service/protocol.hpp"
#include "util/check.hpp"

namespace ccq::service {

namespace {

int bind_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CCQ_CHECK_MSG(fd >= 0, "ccqd: socket(): " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  CCQ_CHECK_MSG(!path.empty() && path.size() < sizeof addr.sun_path,
                "ccqd: bad socket path '" << path << "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // a stale socket file from a dead daemon
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw ModelViolation("ccqd: bind(" + path + "): " + std::strerror(err));
  }
  return fd;
}

int bind_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CCQ_CHECK_MSG(fd >= 0, "ccqd: socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw ModelViolation("ccqd: bind(127.0.0.1:" + std::to_string(port) +
                         "): " + std::strerror(err));
  }
  return fd;
}

}  // namespace

Server::Server(Options opts)
    : opts_(std::move(opts)),
      // cache_sessions == 0 means *cold*: no session reuse and no instance
      // reuse either — every job pays the full cold-start bill (graph
      // generation, private-bit encoding, scheduler, plane), which is the
      // bench_service baseline being compared against.
      cache_(opts_.cache_sessions, opts_.executors,
             opts_.cache_sessions == 0 ? 0 : 32) {
  CCQ_CHECK_MSG(opts_.executors >= 1, "ccqd: need at least one executor");
  CCQ_CHECK_MSG(opts_.queue_capacity >= 1,
                "ccqd: need a queue capacity of at least 1");
  CCQ_CHECK_MSG(opts_.trials >= 1, "ccqd: trials must be >= 1");
}

Server::~Server() {
  if (started_.load()) drain();
}

void Server::start() {
  CCQ_CHECK_MSG(!started_.load(), "ccqd: start() called twice");
  listen_fd_ = opts_.tcp_port != 0 ? bind_tcp(opts_.tcp_port)
                                   : bind_unix(opts_.unix_path);
  CCQ_CHECK_MSG(::listen(listen_fd_, 64) == 0,
                "ccqd: listen(): " << std::strerror(errno));
  started_.store(true);
  for (std::size_t i = 0; i < opts_.executors; ++i)
    executors_.emplace_back([this] { executor_loop(); });
  // The acceptor gets its fd by value: drain() writes listen_fd_ = -1
  // from another thread, and the fd itself never changes while the
  // socket is open, so the acceptor must not re-read the member.
  acceptor_ = std::thread([this, fd = listen_fd_] { acceptor_loop(fd); });
}

void Server::drain() {
  {
    // draining_ flips under queue_mu_ so it is mutually exclusive with
    // submit's check-then-push and the executors' empty-and-draining exit
    // test: no job can be queued after an executor decided the queue is
    // finished, so no accepted job is ever left with an unfulfilled
    // promise.
    std::unique_lock<std::mutex> lk(queue_mu_);
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true)) {
      lk.unlock();
      // Another drain is in flight (e.g. a shutdown request); this caller
      // just waits for it to finish.
      while (started_.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return;
    }
  }
  queue_cv_.notify_all();

  // Unblock the acceptor: close the listen socket (accept returns EBADF/
  // EINVAL) — shutdown() first for portability with blocked accept().
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (acceptor_.joinable()) acceptor_.join();

  // Executors: finish everything already queued, then exit on the empty
  // queue. Connections stay open through this window — in-flight jobs get
  // their results, and any submit arriving now is answered kErrDraining
  // (no executor needed for a rejection).
  for (std::thread& t : executors_)
    if (t.joinable()) t.join();

  // Now retire the remaining connections: SHUT_RD turns a blocked
  // read_frame into EOF so idle threads exit, while a thread still
  // delivering the response of a just-finished job can complete its write
  // — severing both directions here would race that final write and lose
  // an accepted job's answer.
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (const int fd : conn_fds_)
      if (fd >= 0) ::shutdown(fd, SHUT_RD);
  }
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns)
    if (t.joinable()) t.join();

  if (opts_.tcp_port == 0 && !opts_.unix_path.empty())
    ::unlink(opts_.unix_path.c_str());
  started_.store(false, std::memory_order_release);
}

void Server::acceptor_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed (drain) or fatal — stop accepting
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    std::lock_guard<std::mutex> lk(conn_mu_);
    const std::uint64_t conn_id = connections_++;
    conn_fds_.push_back(fd);
    const std::size_t slot = conn_fds_.size() - 1;
    conn_threads_.emplace_back([this, fd, conn_id, slot] {
      connection_loop(fd, conn_id);
      std::lock_guard<std::mutex> lk2(conn_mu_);
      conn_fds_[slot] = -1;
    });
  }
}

void Server::connection_loop(int fd, std::uint64_t conn_id) {
  const std::string origin = "conn#" + std::to_string(conn_id);
  for (;;) {
    std::string payload;
    const FrameStatus st = read_frame(fd, &payload);
    if (st == FrameStatus::kClosed) break;
    if (st == FrameStatus::kTruncated) {
      // The stream died mid-frame; framing is unrecoverable. Best-effort
      // error (the peer is usually gone already), then close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      write_frame(fd, error_response(kErrBadFrame,
                                     origin + ": truncated frame"));
      break;
    }
    if (st == FrameStatus::kTooLarge) {
      // The oversized payload was never read, so the stream position is
      // unknown — answer and close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      write_frame(
          fd, error_response(kErrFrameTooLarge,
                             origin + ": frame exceeds " +
                                 std::to_string(kMaxFrameBytes) + " bytes"));
      break;
    }
    bool start_drain = false;
    const std::string response = handle_request(payload, origin, &start_drain);
    // A client may disconnect while its job runs; the failed write is the
    // client's loss, never the server's problem (MSG_NOSIGNAL inside).
    const bool wrote = write_frame(fd, response);
    if (start_drain) {
      // Response is on the wire before anything is severed. drain() joins
      // connection threads, so it cannot run on this one — detach it.
      std::thread([this] { drain(); }).detach();
      break;
    }
    if (!wrote) break;
    // Note: a draining server does NOT hang up after a response — clients
    // keep getting named kErrDraining answers until drain()'s SHUT_RD
    // lands, which ends this loop at the next read_frame.
  }
  ::close(fd);
}

std::string Server::handle_request(const std::string& payload,
                                   const std::string& origin,
                                   bool* start_drain) {
  Request req;
  try {
    req = parse_request(payload, origin);
  } catch (const ProtocolError& e) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(e.code(), e.what());
  }
  switch (req.type) {
    case RequestType::kPing:
      return "{\"type\": \"pong\"}";
    case RequestType::kStats:
      return stats_json();
    case RequestType::kShutdown:
      // The caller writes this response *before* signalling drain, so the
      // shutting-down client always hears the acknowledgement.
      *start_drain = true;
      return "{\"type\": \"ok\", \"draining\": true}";
    case RequestType::kSubmit: {
      harness::CellSpec spec;
      try {
        spec = harness::parse_job_cell(*req.body.find("job"), origin);
      } catch (const std::exception& e) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response(kErrBadJob, e.what());
      }
      return submit(spec);
    }
  }
  return error_response(kErrBadRequest, origin + ": unreachable");
}

std::string Server::submit(const harness::CellSpec& spec) {
  Job job;
  job.spec = spec;
  std::future<std::string> response = job.response.get_future();
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    if (draining_.load(std::memory_order_acquire)) {
      jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
      return error_response(kErrDraining,
                            "ccqd is draining; job not accepted");
    }
    if (queue_.size() >= opts_.queue_capacity) {
      jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
      return error_response(
          kErrQueueFull, "job queue full (" +
                             std::to_string(opts_.queue_capacity) +
                             " pending); retry later");
    }
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return response.get();
}

void Server::executor_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // draining and nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
      jobs_running_.fetch_add(1, std::memory_order_relaxed);
    }
    if (opts_.job_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.job_delay_ms));
    }
    std::string response;
    try {
      const JobResult r =
          run_job(job.spec, opts_.trials, &cache_, team_for(job.spec));
      if (r.ok) {
        jobs_ok_.fetch_add(1, std::memory_order_relaxed);
        response = job_result_json(job.spec, r);
      } else {
        jobs_failed_.fetch_add(1, std::memory_order_relaxed);
        response = error_response(kErrJobFailed, r.fail_reason);
      }
    } catch (const std::exception& e) {
      // Unknown family, unloadable corpus file, bad trials — anything
      // run_job throws is this job's failure, never the executor's death.
      jobs_failed_.fetch_add(1, std::memory_order_relaxed);
      response = error_response(kErrJobFailed, e.what());
    }
    jobs_running_.fetch_sub(1, std::memory_order_relaxed);
    job.response.set_value(std::move(response));
  }
}

// The dispatch rule: an explicit cell `workers` is honoured; otherwise the
// shared pool is split evenly among the jobs in flight, this one included.
// One job alone gets the whole pool (the single-caller path); under load
// each job runs on a small team instead of all of them queueing for every
// pool thread in turn.
std::size_t Server::team_for(const harness::CellSpec& spec) {
  std::size_t team = std::min<std::size_t>(spec.workers, spec.n);
  if (team == 0) {
    const std::size_t running =
        std::max<std::size_t>(1, jobs_running_.load(std::memory_order_relaxed));
    team = std::min<std::size_t>(
        spec.n, std::max<std::size_t>(1, pool_threads() / running));
  }
  std::lock_guard<std::mutex> lk(team_mu_);
  ++team_sizes_[team];
  return team;
}

Server::Stats Server::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    s.connections = connections_;
  }
  s.jobs_ok = jobs_ok_.load(std::memory_order_relaxed);
  s.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
  s.jobs_rejected = jobs_rejected_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    s.queue_depth = queue_.size();
  }
  s.jobs_running = jobs_running_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(team_mu_);
    s.team_sizes = team_sizes_;
  }
  s.cache = cache_.stats();
  return s;
}

std::string Server::stats_json() const {
  const Stats s = stats();
  std::ostringstream os;
  os << "{\"type\": \"stats\""
     << ", \"connections\": " << s.connections
     << ", \"jobs_ok\": " << s.jobs_ok
     << ", \"jobs_failed\": " << s.jobs_failed
     << ", \"jobs_rejected\": " << s.jobs_rejected
     << ", \"protocol_errors\": " << s.protocol_errors
     << ", \"queue_depth\": " << s.queue_depth
     << ", \"jobs_running\": " << s.jobs_running
     << ", \"executors\": " << opts_.executors
     << ", \"queue_capacity\": " << opts_.queue_capacity
     << ", \"cache_sessions\": " << opts_.cache_sessions
     << ", \"cache_hits\": " << s.cache.hits
     << ", \"cache_misses\": " << s.cache.misses
     << ", \"cache_evictions\": " << s.cache.evictions
     << ", \"instance_hits\": " << s.cache.instance_hits
     << ", \"instance_misses\": " << s.cache.instance_misses
     << ", \"team_sizes\": {";
  const char* sep = "";
  for (const auto& [team, jobs] : s.team_sizes) {
    os << sep << "\"" << team << "\": " << jobs;
    sep = ", ";
  }
  os << "}, \"draining\": " << (draining() ? "true" : "false") << "}";
  return os.str();
}

}  // namespace ccq::service
