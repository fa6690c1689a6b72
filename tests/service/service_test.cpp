// ccqd protocol + server tests (src/service/). The contract under test:
// every frame the server reads gets exactly one *named* error or result
// response — malformed frames, oversized length prefixes, garbage JSON,
// bad jobs, full queues and drains are all answered by code, and none of
// them crash, hang, or poison a worker. Plus the warm-cache paths: many
// clients hammering one cache key get bit-identical results, the team a
// job is dispatched on never reaches its result, a job replayed through
// the daemon equals the library path, and the cache's eviction cap.

#include "service/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <latch>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/corpus.hpp"
#include "harness/sweep.hpp"
#include "service/engine_cache.hpp"
#include "service/jobs.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"

namespace ccq::service {
namespace {

constexpr const char* kGoodJob =
    "{\"algorithm\": \"routing_balanced\", \"family\": \"gnp\", "
    "\"p\": 0.25, \"n\": 16, \"plane\": \"flat\", \"backend\": \"pooled\", "
    "\"chaos\": false}";

std::string submit_body(const std::string& job) {
  return "{\"type\": \"submit\", \"job\": " + job + "}";
}

// Unique-per-test socket path (tests may run in parallel processes).
std::string test_socket(const char* tag) {
  return "/tmp/ccqd_test_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

Server::Options base_options(const char* tag) {
  Server::Options opts;
  opts.unix_path = test_socket(tag);
  opts.executors = 2;
  opts.queue_capacity = 8;
  opts.cache_sessions = 4;
  return opts;
}

// Parse a response and return its "type"; for errors also outputs the code.
std::string response_type(const std::string& payload,
                          std::string* code = nullptr) {
  const json::Value v = json::parse(payload, "response");
  const json::Value* type = v.find("type");
  EXPECT_NE(type, nullptr) << payload;
  if (type == nullptr) return "";
  if (code != nullptr) {
    const json::Value* c = v.find("code");
    *code = c != nullptr ? c->str : "";
  }
  return type->str;
}

TEST(Protocol, PingPongAndStats) {
  Server server(base_options("ping"));
  server.start();
  Client client(server.options().unix_path);
  EXPECT_EQ(response_type(client.request("{\"type\": \"ping\"}")), "pong");
  const std::string stats = client.request("{\"type\": \"stats\"}");
  EXPECT_EQ(response_type(stats), "stats");
  const json::Value v = json::parse(stats, "stats");
  EXPECT_EQ(v.find("queue_depth")->num, 0.0);
  server.drain();
}

TEST(Protocol, MalformedJsonIsNamedNotFatal) {
  Server server(base_options("json"));
  server.start();
  Client client(server.options().unix_path);
  std::string code;
  EXPECT_EQ(response_type(client.request("{not json"), &code), "error");
  EXPECT_EQ(code, kErrBadJson);
  // The connection survives a parse error — framing was intact.
  EXPECT_EQ(response_type(client.request("{\"type\": \"ping\"}")), "pong");
  server.drain();
}

TEST(Protocol, BadRequestsAndUnknownTypes) {
  Server server(base_options("badreq"));
  server.start();
  Client client(server.options().unix_path);
  std::string code;
  EXPECT_EQ(response_type(client.request("[1, 2]"), &code), "error");
  EXPECT_EQ(code, kErrBadRequest);
  EXPECT_EQ(response_type(client.request("{\"x\": 1}"), &code), "error");
  EXPECT_EQ(code, kErrBadRequest);
  EXPECT_EQ(response_type(client.request("{\"type\": \"frobnicate\"}"), &code),
            "error");
  EXPECT_EQ(code, kErrUnknownType);
  EXPECT_EQ(response_type(client.request("{\"type\": \"submit\"}"), &code),
            "error");
  EXPECT_EQ(code, kErrBadRequest);  // submit without an object-valued job
  server.drain();
}

TEST(Protocol, BadJobsAreNamed) {
  Server server(base_options("badjob"));
  server.start();
  Client client(server.options().unix_path);
  std::string code;
  // Missing required keys.
  EXPECT_EQ(response_type(
                client.request(submit_body("{\"algorithm\": \"nope\"}")),
                &code),
            "error");
  EXPECT_EQ(code, kErrBadJob);
  // Axis arrays are manifest syntax, not job syntax: a job is one cell.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"routing_balanced\", \"family\": "
                        "\"gnp\", \"p\": 0.25, \"n\": [16, 32], \"plane\": "
                        "\"flat\", \"backend\": \"pooled\", "
                        "\"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrBadJob);
  // The removed legacy plane is a bad job, like in a manifest.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"routing_balanced\", \"family\": "
                        "\"gnp\", \"p\": 0.25, \"n\": 16, \"plane\": "
                        "\"legacy\", \"backend\": \"pooled\", "
                        "\"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrBadJob);
  // Unknown algorithm names are caught at cell-parse time, like manifests.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"no_such_algorithm\", \"family\": "
                        "\"gnp\", \"p\": 0.25, \"n\": 16, \"plane\": "
                        "\"flat\", \"backend\": \"pooled\", "
                        "\"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrBadJob);
  // A job that parses but fails in the executor (edge list file that does
  // not exist) must be a named job_failed response, not a dead worker.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"routing_balanced\", \"family\": "
                        "\"edgelist\", \"path\": \"/nonexistent.edges\", "
                        "\"n\": 16, \"plane\": \"flat\", \"backend\": "
                        "\"pooled\", \"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrJobFailed);
  // The server still works after all of the above.
  EXPECT_EQ(response_type(client.request(submit_body(kGoodJob))), "result");
  server.drain();
}

TEST(Protocol, OversizedLengthPrefixIsRefused) {
  Server server(base_options("oversize"));
  server.start();
  Client client(server.options().unix_path);
  const int fd = client.fd();
  // Declare a 256 MiB frame; the server must refuse before buffering it.
  const unsigned char prefix[4] = {0x10, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(fd, prefix, sizeof prefix, MSG_NOSIGNAL), 4);
  std::string response;
  ASSERT_EQ(read_frame(fd, &response), FrameStatus::kOk);
  std::string code;
  EXPECT_EQ(response_type(response, &code), "error");
  EXPECT_EQ(code, kErrFrameTooLarge);
  // Framing is untrusted after that: the server closes the connection.
  std::string next;
  EXPECT_EQ(read_frame(fd, &next), FrameStatus::kClosed);
  // A new connection is unaffected.
  Client fresh(server.options().unix_path);
  EXPECT_EQ(response_type(fresh.request("{\"type\": \"ping\"}")), "pong");
  server.drain();
}

TEST(Protocol, TruncatedFramesDoNotWedgeTheServer) {
  Server server(base_options("trunc"));
  server.start();
  {
    // Half a length prefix, then hang up.
    Client client(server.options().unix_path);
    const unsigned char half[2] = {0x00, 0x00};
    ASSERT_EQ(::send(client.fd(), half, sizeof half, MSG_NOSIGNAL), 2);
  }
  {
    // A full prefix declaring 100 bytes, then only 3 bytes, then hang up.
    Client client(server.options().unix_path);
    const unsigned char prefix[4] = {0x00, 0x00, 0x00, 0x64};
    ASSERT_EQ(::send(client.fd(), prefix, sizeof prefix, MSG_NOSIGNAL), 4);
    ASSERT_EQ(::send(client.fd(), "abc", 3, MSG_NOSIGNAL), 3);
  }
  // The server is still fully alive.
  Client client(server.options().unix_path);
  EXPECT_EQ(response_type(client.request(submit_body(kGoodJob))), "result");
  const Server::Stats stats = server.stats();
  EXPECT_GE(stats.protocol_errors, 1u);
  server.drain();
}

TEST(Protocol, MidJobClientDisconnectDoesNotKillTheWorker) {
  Server::Options opts = base_options("midjob");
  opts.job_delay_ms = 100;  // hold the job so the disconnect lands mid-run
  Server server(opts);
  server.start();
  {
    Client client(server.options().unix_path);
    ASSERT_TRUE(write_frame(client.fd(), submit_body(kGoodJob)));
    // Destructor closes the socket with the job still queued/running.
  }
  // Give the executor time to finish the orphaned job and hit the dead
  // socket, then prove the worker survived by running another job.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Client client(server.options().unix_path);
  EXPECT_EQ(response_type(client.request(submit_body(kGoodJob))), "result");
  EXPECT_GE(server.stats().jobs_ok, 1u);
  server.drain();
}

TEST(Protocol, QueueFullIsRejectedNotParked) {
  Server::Options opts = base_options("quefull");
  opts.executors = 1;
  opts.queue_capacity = 1;
  opts.job_delay_ms = 150;  // the single executor sits on the first job
  Server server(opts);
  server.start();

  // Enough concurrent submits that admission control must trip: 1 can run,
  // 1 can queue, the rest must be answered queue_full immediately.
  constexpr int kClients = 6;
  std::atomic<int> results{0}, queue_full{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client client(server.options().unix_path);
      std::string code;
      const std::string type =
          response_type(client.request(submit_body(kGoodJob)), &code);
      if (type == "result") {
        ++results;
      } else if (code == kErrQueueFull) {
        ++queue_full;
      } else {
        ++other;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every client got exactly one answer (the loop above would hang
  // otherwise); with a 1-deep queue and one delayed executor at least one
  // submit must have been rejected, and rejected ones were answered fast.
  EXPECT_EQ(results + queue_full + other, kClients);
  EXPECT_GE(results.load(), 1);
  EXPECT_GE(queue_full.load(), 1);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(server.stats().jobs_rejected,
            static_cast<std::uint64_t>(queue_full.load()));
  server.drain();
}

TEST(Protocol, ConcurrentClientsOnOneWarmKeyAgreeBitForBit) {
  Server server(base_options("warmkey"));
  server.start();
  constexpr int kClients = 8;
  constexpr int kJobsEach = 4;
  std::mutex mu;
  std::set<std::string> fingerprints;
  std::atomic<int> results{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client client(server.options().unix_path);
      for (int j = 0; j < kJobsEach; ++j) {
        const std::string response =
            client.request(submit_body(kGoodJob));
        ASSERT_EQ(response_type(response), "result") << response;
        const json::Value v = json::parse(response, "result");
        std::lock_guard<std::mutex> lk(mu);
        fingerprints.insert(v.find("output_fp")->str + "/" +
                            v.find("ledger_fp")->str);
        ++results;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(results.load(), kClients * kJobsEach);
  // One cache key, one result — every job measured the identical bits.
  EXPECT_EQ(fingerprints.size(), 1u);
  const Server::Stats stats = server.stats();
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_EQ(stats.jobs_ok, static_cast<std::uint64_t>(kClients * kJobsEach));
  server.drain();
}

// A result frame minus the fields allowed to differ between two runs of
// one cell (wall clock, cache warmth), as comparable key=value text.
std::string frame_without_timing(const std::string& frame) {
  const json::Value v = json::parse(frame, "result");
  std::ostringstream os;
  for (const auto& [key, value] : v.obj) {
    if (key == "wall_ms" || key == "warm") continue;
    os << key << "=" << static_cast<int>(value.kind) << ":" << value.num
       << ":" << value.str << ":" << value.b << ";";
  }
  return os.str();
}

TEST(Protocol, TeamSizeDoesNotReachResults) {
  // One client alone gets the whole pool; four concurrent clients split it.
  // The job delay holds each job in flight until all four are, so the
  // dispatch of the concurrent jobs sees them running.
  Server::Options opts = base_options("team");
  opts.executors = 4;
  opts.job_delay_ms = 100;
  Server server(opts);
  server.start();
  const std::string& path = server.options().unix_path;

  std::string solo;
  {
    Client client(path);
    solo = client.request(submit_body(kGoodJob));
  }
  ASSERT_EQ(response_type(solo), "result") << solo;

  constexpr int kClients = 4;
  std::vector<std::string> replies(kClients);
  std::latch start(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(path);
      start.arrive_and_wait();
      replies[static_cast<std::size_t>(i)] =
          client.request(submit_body(kGoodJob));
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& r : replies) {
    ASSERT_EQ(response_type(r), "result") << r;
    EXPECT_EQ(frame_without_timing(r), frame_without_timing(solo));
  }

  // The stats frame carries jobs_running and the per-team-size counts.
  Client client(path);
  const json::Value stats =
      json::parse(client.request("{\"type\": \"stats\"}"), "stats");
  ASSERT_NE(stats.find("jobs_running"), nullptr);
  EXPECT_EQ(stats.find("jobs_running")->num, 0.0);
  const json::Value* teams = stats.find("team_sizes");
  ASSERT_NE(teams, nullptr);
  std::map<std::size_t, std::uint64_t> counts;
  std::uint64_t jobs = 0;
  for (const auto& [team, n] : teams->obj) {
    counts[std::stoul(team)] = static_cast<std::uint64_t>(n.num);
    jobs += static_cast<std::uint64_t>(n.num);
  }
  EXPECT_EQ(counts, server.stats().team_sizes);
  EXPECT_EQ(jobs, 1u + kClients);
  const std::size_t whole = std::min<std::size_t>(16, pool_threads());
  EXPECT_GE(counts[whole], 1u);  // the solo job
  if (whole > 1) {
    // At least one concurrent job ran on a smaller team.
    EXPECT_LT(counts.begin()->first, whole);
  } else {
    EXPECT_EQ(counts.size(), 1u);  // a one-thread pool has one team size
  }
  server.drain();
}

TEST(Protocol, DrainRejectsNewSubmitsAndFinishesQueuedOnes) {
  Server::Options opts = base_options("drain");
  opts.executors = 1;
  opts.job_delay_ms = 200;
  Server server(opts);
  server.start();

  // A slow job in flight...
  std::thread slow([&] {
    Client client(server.options().unix_path);
    EXPECT_EQ(response_type(client.request(submit_body(kGoodJob))), "result");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...a second client already connected (the ping forces the accept to
  // complete — a connection still sitting in the listen backlog when the
  // drain begins is legitimately dropped, which is not what this test is
  // about)...
  Client bystander(server.options().unix_path);
  ASSERT_EQ(response_type(bystander.request("{\"type\": \"ping\"}")), "pong");
  // ...then a drain starts while the slow job runs.
  std::thread drainer([&] { server.drain(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(server.draining());
  // The connected bystander's submit is rejected by name, not hung.
  std::string code;
  EXPECT_EQ(response_type(bystander.request(submit_body(kGoodJob)), &code),
            "error");
  EXPECT_EQ(code, kErrDraining);
  slow.join();     // the in-flight job still completed with a result
  drainer.join();
  EXPECT_FALSE(server.running());
}

TEST(Protocol, ShutdownRequestDrainsTheServer) {
  Server server(base_options("shutdown"));
  server.start();
  {
    Client client(server.options().unix_path);
    EXPECT_EQ(response_type(client.request("{\"type\": \"shutdown\"}")), "ok");
  }
  for (int i = 0; i < 200 && server.running(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(server.running());
}

TEST(Jobs, DaemonResultEqualsLibraryPath) {
  // The acceptance gate in miniature: a deterministic job through run_job
  // (the daemon's execution path, warm cache) yields bit-identical outputs
  // and trace ledger to the plain library path.
  const json::Value job = json::parse(kGoodJob, "job");
  const harness::CellSpec spec = harness::parse_job_cell(job, "job");

  EngineCache cache(/*session_capacity=*/2);
  const JobResult cold = run_job(spec, /*trials=*/2, &cache);
  ASSERT_TRUE(cold.ok) << cold.fail_reason;
  EXPECT_FALSE(cold.warm);
  const JobResult warm = run_job(spec, /*trials=*/2, &cache);
  ASSERT_TRUE(warm.ok) << warm.fail_reason;
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(cold.output_fp, warm.output_fp);
  EXPECT_EQ(cold.ledger_fp, warm.ledger_fp);

  // kGoodJob says "pooled", an alias of "sharded": the job spelled
  // "sharded" is the same cell, hits the session the runs above left warm,
  // and measures the identical bits.
  std::string sharded_job = kGoodJob;
  const std::string alias = "\"pooled\"";
  sharded_job.replace(sharded_job.find(alias), alias.size(), "\"sharded\"");
  const harness::CellSpec sharded =
      harness::parse_job_cell(json::parse(sharded_job, "job"), "job");
  EXPECT_EQ(sharded.id(), spec.id());
  EXPECT_NE(spec.id().find("/sharded/"), std::string::npos) << spec.id();
  const JobResult same = run_job(sharded, /*trials=*/2, &cache);
  ASSERT_TRUE(same.ok) << same.fail_reason;
  EXPECT_TRUE(same.warm);
  EXPECT_EQ(same.output_fp, cold.output_fp);
  EXPECT_EQ(same.ledger_fp, cold.ledger_fp);

  // Library path: fresh Engine::run with the identical cell config.
  const Graph g = corpus::make_family(spec.family, spec.n);
  Engine::Config cfg = harness::cell_engine_config(spec);
  RoundTrace trace;
  cfg.trace = &trace;
  const RunResult res =
      Engine::run(g, harness::find_algorithm(spec.algorithm), cfg);
  EXPECT_EQ(harness::outputs_fp(res.outputs), cold.output_fp);
  EXPECT_EQ(harness::ledger_fingerprint(trace), cold.ledger_fp);
  EXPECT_TRUE(harness::meters_equal(res.cost, cold.cost));
}

EngineSession::Shape shape_of_n(NodeId n) {
  EngineSession::Shape shape;
  shape.n = n;
  return shape;
}

// Leases sessions of n = 4, 5, 6, 7 on a cache with capacity 2 and 2
// executors, never more than two at once and with the leased count
// dipping between acquires, then returns them all (released in n order).
void cycle_four_sessions(EngineCache& cache) {
  std::optional<EngineCache::Lease> x, y;
  x.emplace(cache.acquire(shape_of_n(4)));
  y.emplace(cache.acquire(shape_of_n(5)));
  x.reset();  // leased 1, idle 1
  x.emplace(cache.acquire(shape_of_n(6)));
  y.reset();  // leased 1, idle 2
  y.emplace(cache.acquire(shape_of_n(7)));
  x.reset();
  y.reset();
}

TEST(EngineCache, IdlePlusLeasedCapKeepsOneSessionPerExecutor) {
  // Idle + leased ≤ capacity + executors = 4: all four sessions survive
  // although idle alone reaches 4 > capacity.
  EngineCache cache(/*session_capacity=*/2, /*executors=*/2);
  cycle_four_sessions(cache);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (NodeId n = 4; n <= 7; ++n)
    EXPECT_TRUE(cache.acquire(shape_of_n(n)).warm()) << "n = " << n;
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(EngineCache, FifthSessionEvictsTheLeastRecentlyUsedIdleOne) {
  EngineCache cache(/*session_capacity=*/2, /*executors=*/2);
  cycle_four_sessions(cache);  // idle, oldest first: 4, 5, 6, 7
  EXPECT_FALSE(cache.acquire(shape_of_n(8)).warm());
  EXPECT_EQ(cache.stats().evictions, 1u);
  for (NodeId n = 5; n <= 8; ++n)
    EXPECT_TRUE(cache.acquire(shape_of_n(n)).warm()) << "n = " << n;
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.acquire(shape_of_n(4)).warm());  // it was evicted
}

TEST(EngineCache, CapacityZeroIsTheColdBaseline) {
  // Disabled cache: every release destroys, so nothing is ever warm.
  EngineCache cache(/*session_capacity=*/0, /*executors=*/2);
  for (int i = 0; i < 3; ++i) {
    std::optional<EngineCache::Lease> a, b;
    a.emplace(cache.acquire(shape_of_n(4)));
    b.emplace(cache.acquire(shape_of_n(4)));
    EXPECT_FALSE(a->warm());
    EXPECT_FALSE(b->warm());
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 6u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace ccq::service
