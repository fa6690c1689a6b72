// Determinism regression suite for the execution backends.
//
// The scheduler contract (clique/scheduler.hpp) promises bit-for-bit
// identical RunResults across backends and shard counts. These tests pin
// that down over a fixed mix of collectives (round / exchange / broadcast /
// share_bit / any / all / route_balanced / route_blocks), and lock in the
// abort/unwind behaviour when a node throws mid-collective.

#include "clique/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "clique/chaos.hpp"
#include "clique/engine.hpp"
#include "clique/routing.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

struct BackendSetup {
  ExecutionBackend backend;
  std::size_t workers;  // shard count; 0 = hw
  const char* name;
};

const BackendSetup kSetups[] = {
    {ExecutionBackend::kThreadPerNode, 0, "thread-per-node"},
    {ExecutionBackend::kSharded, 1, "sharded/1"},
    {ExecutionBackend::kSharded, 2, "sharded/2"},
    {ExecutionBackend::kSharded, 5, "sharded/5"},  // non-dividing shard count
    {ExecutionBackend::kSharded, 0, "sharded/hw"},
};

Engine::Config config_for(const BackendSetup& s) {
  Engine::Config cfg;
  cfg.backend = s.backend;
  cfg.workers = s.workers;
  return cfg;
}

void expect_same_result(const RunResult& ref, const RunResult& got,
                        const char* name) {
  EXPECT_EQ(ref.outputs, got.outputs) << name;
  EXPECT_EQ(ref.cost.rounds, got.cost.rounds) << name;
  EXPECT_EQ(ref.cost.messages, got.cost.messages) << name;
  EXPECT_EQ(ref.cost.bits, got.cost.bits) << name;
  EXPECT_EQ(ref.cost.collectives, got.cost.collectives) << name;
  EXPECT_EQ(ref.cost.max_node_sent, got.cost.max_node_sent) << name;
  EXPECT_EQ(ref.cost.max_node_received, got.cost.max_node_received) << name;
}

// A fixed mix of every collective the engine offers, with per-node skew so
// scheduling order would show up in the result if it could leak.
void mixed_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::uint64_t fp = 0xcbf29ce484222325ull;
  auto mix = [&fp](std::uint64_t v) { fp = (fp ^ v) * 0x100000001b3ull; };

  // round(): a ring send.
  std::vector<std::pair<NodeId, Word>> sends;
  if (n > 1) sends.emplace_back((ctx.id() + 1) % n, Word(ctx.id() % 2, 1));
  auto in = ctx.round(sends);
  for (NodeId v = 0; v < n; ++v) {
    if (in[v]) mix(in[v]->value + v);
  }

  // exchange(): skewed queue lengths.
  WordQueues out(n);
  for (NodeId v = 0; v < n; ++v) {
    if (v == ctx.id()) continue;
    for (NodeId i = 0; i <= (ctx.id() + v) % 3; ++i) {
      out[v].emplace_back((i + v) % 2, 1);
    }
  }
  auto ex = ctx.exchange(out);
  for (NodeId v = 0; v < n; ++v) mix(ex[v].size());

  // broadcast(): everyone shares its adjacency row.
  auto rows = ctx.broadcast(ctx.adj_row());
  for (const auto& r : rows) mix(r.popcount());

  // share_bit / any / all.
  auto bits = ctx.share_bit(ctx.id() % 2 == 0);
  for (bool b : bits) mix(b ? 1 : 2);
  mix(ctx.any(ctx.id() == 0) ? 3 : 4);
  mix(ctx.all(true) ? 5 : 6);

  // route_balanced(): n messages to pseudorandom destinations.
  SplitMix64 rng(ctx.id() * 7919 + 13);
  std::vector<RoutedMessage> msgs;
  for (NodeId i = 0; i < n; ++i) {
    NodeId dst;
    do {
      dst = static_cast<NodeId>(rng.next_below(n));
    } while (n > 1 && dst == ctx.id());
    msgs.push_back({dst, Word(i % 2, 1)});
  }
  for (const auto& [src, w] : route_balanced(ctx, msgs)) mix(src + w.value);

  // route_blocks(): one small block to the next node.
  BitVector payload(5);
  payload.set(ctx.id() % 5);
  std::vector<RoutedBlock> blocks;
  if (n > 1) blocks.push_back({(ctx.id() + 1) % n, payload});
  for (const auto& [src, bv] : route_blocks(ctx, blocks)) {
    mix(src + bv.popcount());
  }

  mix(ctx.rounds_so_far());
  ctx.output(fp);
}

TEST(SchedulerDeterminism, IdenticalResultsAcrossBackendsAndWorkerCounts) {
  const Graph g = gen::gnp(24, 0.5, 99);
  const auto ref =
      Engine::run(g, mixed_program, config_for(kSetups[0]));
  EXPECT_GT(ref.cost.rounds, 0u);
  EXPECT_GT(ref.cost.messages, 0u);
  for (const BackendSetup& s : kSetups) {
    expect_same_result(ref, Engine::run(g, mixed_program, config_for(s)),
                       s.name);
  }
}

// "Pooled" in the names below is the default fiber backend: kSharded, which
// manifests and job frames still select under the alias "pooled".
TEST(SchedulerDeterminism, RepeatedPooledRunsAreIdentical) {
  const Graph g = gen::gnp(17, 0.4, 5);
  const auto r1 = Engine::run(g, mixed_program);
  const auto r2 = Engine::run(g, mixed_program);
  expect_same_result(r1, r2, "default-backend repeat");
}

TEST(SchedulerDeterminism, WorkerCapBeyondPoolSizeIsClamped) {
  // workers may legally exceed the machine's pool size (just not n — that
  // is rejected at run() entry); the scheduler must clamp, not deadlock.
  const Graph g = gen::gnp(64, 0.5, 3);
  Engine::Config cfg;
  cfg.workers = 64;  // == n, far beyond any pool on CI hardware
  const auto ref = Engine::run(g, mixed_program);
  expect_same_result(ref, Engine::run(g, mixed_program, cfg), "clamped");
}

TEST(SchedulerDeterminism, ManyNodesOnPooledBackend) {
  // Exercise fiber multiplexing well past the worker count.
  const Graph g = gen::empty(300);
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    auto bits = ctx.share_bit(ctx.id() % 3 == 0);
    std::uint64_t count = 0;
    for (bool b : bits) count += b ? 1 : 0;
    ctx.output(count);
  });
  EXPECT_EQ(r.outputs[0], 100u);
  EXPECT_EQ(r.cost.rounds, 1u);
}

// ---- abort / unwind ------------------------------------------------------

std::atomic<int> live_guards{0};

struct UnwindGuard {
  UnwindGuard() { live_guards.fetch_add(1); }
  ~UnwindGuard() { live_guards.fetch_sub(1); }
};

// Node 3 throws between two collectives while every other node is parked
// inside the second one; all stacks must unwind (guards destroyed) and the
// program exception must surface from Engine::run.
void mid_collective_crash(NodeCtx& ctx) {
  UnwindGuard guard;
  ctx.round({});
  if (ctx.id() == 3) throw std::runtime_error("node crash");
  ctx.round({});
  ctx.output(0);
}

TEST(SchedulerAbort, MidCollectiveExceptionUnwindsAllNodes) {
  const Graph g = gen::empty(8);
  for (const BackendSetup& s : kSetups) {
    live_guards.store(0);
    EXPECT_THROW(Engine::run(g, mid_collective_crash, config_for(s)),
                 std::runtime_error)
        << s.name;
    EXPECT_EQ(live_guards.load(), 0) << s.name;
  }
}

TEST(SchedulerAbort, DivergentOperationsDetectedOnEveryBackend) {
  const Graph g = gen::empty(6);
  for (const BackendSetup& s : kSetups) {
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       if (ctx.id() == 0) {
                         ctx.round({});
                       } else {
                         ctx.broadcast(BitVector(3));
                       }
                       ctx.output(0);
                     },
                     config_for(s)),
                 ModelViolation)
        << s.name;
  }
}

TEST(SchedulerAbort, EarlyFinishDetectedOnEveryBackend) {
  const Graph g = gen::empty(6);
  for (const BackendSetup& s : kSetups) {
    live_guards.store(0);
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       UnwindGuard guard;
                       ctx.output(0);
                       if (ctx.id() == 0) return;  // skips the collective
                       ctx.round({});
                     },
                     config_for(s)),
                 ModelViolation)
        << s.name;
    EXPECT_EQ(live_guards.load(), 0) << s.name;
  }
}

// A chaos-duplicated broadcast word makes the receiver reassemble more
// bits than the collective's framing declares — a ModelViolation raised
// inside the node program (clique/chaos.hpp). Every backend must unwind
// all node stacks, release the chaos plan on the throw path, and leave the
// engine serviceable for the next run.
TEST(SchedulerAbort, ChaosCorruptedCollectiveUnwindsCleanly) {
  const Graph g = gen::empty(6);
  for (const BackendSetup& s : kSetups) {
    ChaosPlan::Config ccfg;
    ccfg.seed = 21;
    ccfg.p_dup = 1.0;
    ChaosPlan plan(ccfg);
    Engine::Config cfg = config_for(s);
    cfg.chaos = &plan;
    live_guards.store(0);
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       UnwindGuard guard;
                       ctx.broadcast(BitVector(5, true));
                       ctx.output(0);
                     },
                     cfg),
                 ModelViolation)
        << s.name;
    EXPECT_EQ(live_guards.load(), 0) << s.name;
    EXPECT_GT(plan.fault_count(FaultKind::kDuplicate), 0u) << s.name;
    // The abort path must have released the plan...
    EXPECT_TRUE(plan.try_acquire()) << s.name;
    plan.release();
    // ...and left the backend reusable.
    const auto r = Engine::run(
        g, [](NodeCtx& ctx) { ctx.decide(ctx.all(true)); }, config_for(s));
    EXPECT_TRUE(r.accepted()) << s.name;
  }
}

TEST(SchedulerAbort, RoundLimitEnforcedOnPooledBackend) {
  const Graph g = gen::empty(2);
  Engine::Config cfg;
  cfg.max_rounds = 10;
  EXPECT_THROW(Engine::run(
                   g,
                   [](NodeCtx& ctx) {
                     for (int i = 0; i < 100; ++i) ctx.round({});
                     ctx.output(0);
                   },
                   cfg),
               ModelViolation);
}

}  // namespace
}  // namespace ccq
