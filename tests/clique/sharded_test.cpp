// The sharded owner-computes backend (ExecutionBackend::kSharded), the
// engine's fiber scheduler.
//
// The node id space is cut into contiguous shards, each pool worker owns a
// fixed set of shards, and the per-node resume loop is a plain id-ordered
// walk with no shared claim counter (DESIGN.md §7). None of that may be
// observable: this suite pins bit-for-bit result equality against the
// default configuration and the thread-per-node reference across shard
// counts (dividing and not), degenerate clique sizes around the worker
// count, abort/unwind mid-round, and composition with the trace and chaos
// layers. It also holds the engine-config boundary: the n cap that the
// sharded backend raised, and workers > n rejection.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "clique/chaos.hpp"
#include "clique/engine.hpp"
#include "clique/routing.hpp"
#include "clique/trace.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

void expect_same_result(const RunResult& ref, const RunResult& got,
                        const std::string& name) {
  EXPECT_EQ(ref.outputs, got.outputs) << name;
  EXPECT_EQ(ref.cost.rounds, got.cost.rounds) << name;
  EXPECT_EQ(ref.cost.messages, got.cost.messages) << name;
  EXPECT_EQ(ref.cost.bits, got.cost.bits) << name;
  EXPECT_EQ(ref.cost.collectives, got.cost.collectives) << name;
  EXPECT_EQ(ref.cost.max_node_sent, got.cost.max_node_sent) << name;
  EXPECT_EQ(ref.cost.max_node_received, got.cost.max_node_received) << name;
}

// Every collective, with per-node skew, so any ownership or scheduling
// leak shows up in the output fingerprints.
void mixed_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::uint64_t fp = 0xcbf29ce484222325ull;
  auto mix = [&fp](std::uint64_t v) { fp = (fp ^ v) * 0x100000001b3ull; };

  std::vector<std::pair<NodeId, Word>> sends;
  if (n > 1) sends.emplace_back((ctx.id() + 1) % n, Word(ctx.id() % 2, 1));
  auto in = ctx.round(sends);
  for (NodeId v = 0; v < n; ++v) {
    if (in[v]) mix(in[v]->value + v);
  }

  WordQueues out(n);
  for (NodeId v = 0; v < n; ++v) {
    if (v == ctx.id()) continue;
    for (NodeId i = 0; i <= (ctx.id() + v) % 3; ++i) {
      out[v].emplace_back((i + v) % 2, 1);
    }
  }
  auto ex = ctx.exchange(out);
  for (NodeId v = 0; v < n; ++v) mix(ex[v].size());

  SplitMix64 rng(ctx.id() * 6151 + 3);
  std::vector<std::pair<NodeId, Word>> flat_sends;
  for (NodeId i = 0; i < 2 * n; ++i) {
    flat_sends.emplace_back(static_cast<NodeId>(rng.next_below(n)),
                            Word(i % 2, 1));
  }
  FlatInbox fin = ctx.exchange_flat(flat_sends);
  for (NodeId v = 0; v < n; ++v) {
    auto run = fin.from(v);
    mix(run.size() * 31 + (run.empty() ? 0 : run.front().value));
  }

  for (const BitVector& r : ctx.broadcast(ctx.adj_row())) mix(r.popcount());
  for (bool b : ctx.share_bit(ctx.id() % 2 == 0)) mix(b ? 1 : 2);
  mix(ctx.any(ctx.id() == 0) ? 3 : 4);
  mix(ctx.all(true) ? 5 : 6);

  std::vector<RoutedMessage> msgs;
  for (NodeId i = 0; i < n; ++i) {
    NodeId dst;
    do {
      dst = static_cast<NodeId>(rng.next_below(n));
    } while (n > 1 && dst == ctx.id());
    msgs.push_back({dst, Word(i % 2, 1)});
  }
  for (const auto& [src, w] : route_balanced(ctx, msgs)) mix(src + w.value);

  mix(ctx.rounds_so_far());
  ctx.output(fp);
}

Engine::Config sharded(std::size_t shards) {
  Engine::Config cfg;
  cfg.backend = ExecutionBackend::kSharded;
  cfg.workers = shards;
  return cfg;
}

// ---- determinism across shard counts -------------------------------------

TEST(ShardedDeterminism, BitForBitAcrossShardCounts) {
  const Graph g = gen::gnp(26, 0.5, 17);
  Engine::Config tpn;
  tpn.backend = ExecutionBackend::kThreadPerNode;
  const auto ref = Engine::run(g, mixed_program, tpn);
  EXPECT_GT(ref.cost.rounds, 0u);

  expect_same_result(ref, Engine::run(g, mixed_program), "default");

  // Dividing (1, 2, 13), non-dividing (3, 5), over-subscribed (26 = n,
  // one node per shard) and hardware-default (0) shard counts.
  for (std::size_t shards : {1u, 2u, 3u, 5u, 13u, 26u, 0u}) {
    expect_same_result(
        ref, Engine::run(g, mixed_program, sharded(shards)),
        "sharded/" + std::to_string(shards));
  }
}

TEST(ShardedDeterminism, RepeatedRunsIdentical) {
  const Graph g = gen::gnp(19, 0.4, 7);
  const auto r1 = Engine::run(g, mixed_program, sharded(3));
  const auto r2 = Engine::run(g, mixed_program, sharded(3));
  expect_same_result(r1, r2, "sharded repeat");
}

// ---- degenerate clique sizes ---------------------------------------------

// n around the worker/shard count: {1, 2, workers-1, workers, workers+1}
// with workers = 4 where n allows (clamped to n below that — workers > n is
// rejected by config validation, which is its own test).
TEST(ShardedDeterminism, DegenerateCliqueSizes) {
  for (NodeId n : {1u, 2u, 3u, 4u, 5u}) {
    const Graph g = gen::gnp(n, 0.6, 11 + n);
    Engine::Config tpn;
    tpn.backend = ExecutionBackend::kThreadPerNode;
    const auto ref = Engine::run(g, mixed_program, tpn);
    const std::size_t workers = std::min<std::size_t>(4, n);
    expect_same_result(ref, Engine::run(g, mixed_program, sharded(workers)),
                       "sharded/n=" + std::to_string(n));
    // Non-dividing shard count whenever one exists below n.
    if (n >= 3) {
      expect_same_result(
          ref, Engine::run(g, mixed_program, sharded(n - 1)),
          "sharded/n=" + std::to_string(n) + "/shards=" + std::to_string(n - 1));
    }
  }
}

// ---- abort / unwind -------------------------------------------------------

std::atomic<int> live_guards{0};
struct UnwindGuard {
  UnwindGuard() { live_guards.fetch_add(1); }
  ~UnwindGuard() { live_guards.fetch_sub(1); }
};

TEST(ShardedAbort, MidRoundExceptionUnwindsAllShards) {
  const Graph g = gen::empty(10);
  for (std::size_t shards : {1u, 3u, 10u}) {  // 3 does not divide 10
    live_guards.store(0);
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       UnwindGuard guard;
                       ctx.round({});
                       // A node mid-shard: its owner has resumed neighbours
                       // before it and still holds unresumed ones after.
                       if (ctx.id() == 6) throw std::runtime_error("boom");
                       ctx.round({});
                       ctx.output(0);
                     },
                     sharded(shards)),
                 std::runtime_error)
        << "shards=" << shards;
    EXPECT_EQ(live_guards.load(), 0) << "shards=" << shards;
    // The pool and plane must be serviceable immediately afterwards.
    const auto r = Engine::run(
        g, [](NodeCtx& ctx) { ctx.decide(ctx.all(true)); }, sharded(shards));
    EXPECT_TRUE(r.accepted()) << "shards=" << shards;
  }
}

TEST(ShardedAbort, DivergentCollectivesDetected) {
  const Graph g = gen::empty(7);
  EXPECT_THROW(Engine::run(
                   g,
                   [](NodeCtx& ctx) {
                     if (ctx.id() == 2) {
                       ctx.round({});
                     } else {
                       ctx.share_bit(true);
                     }
                     ctx.output(0);
                   },
                   sharded(3)),
               ModelViolation);
}

// ---- composition with trace and chaos ------------------------------------

// "Pooled" is the manifest alias of the default fiber backend, so the
// reference here is the default configuration (one shard per pool thread).
TEST(ShardedTrace, LedgerIdenticalToPooledBackend) {
  const Graph g = gen::gnp(15, 0.5, 23);
  RoundTrace ref_trace;
  Engine::Config ref_cfg;
  ref_cfg.trace = &ref_trace;
  const auto ref = Engine::run(g, mixed_program, ref_cfg);
  ASSERT_FALSE(ref_trace.records().empty());
  ASSERT_TRUE(ref_trace.totals_match());

  for (std::size_t shards : {2u, 4u}) {
    RoundTrace trace;
    Engine::Config cfg = sharded(shards);
    cfg.trace = &trace;
    const auto got = Engine::run(g, mixed_program, cfg);
    expect_same_result(ref, got, "traced sharded");
    EXPECT_TRUE(ref_trace.deterministic_eq(trace)) << "shards=" << shards;
    EXPECT_TRUE(trace.totals_match()) << "shards=" << shards;
  }
}

TEST(ShardedChaos, FaultScheduleIndependentOfSharding) {
  const Graph g = gen::empty(9);
  auto run_with = [&](Engine::Config cfg, ChaosPlan& plan) {
    cfg.chaos = &plan;
    return Engine::run(
        g,
        [](NodeCtx& ctx) {
          WordQueues out(ctx.n());
          for (NodeId v = 0; v < ctx.n(); ++v) {
            if (v != ctx.id()) out[v].emplace_back(ctx.id() % 2, 1);
          }
          auto in = ctx.exchange(out);
          std::uint64_t fp = 0;
          for (NodeId v = 0; v < ctx.n(); ++v) {
            for (const Word& w : in[v]) fp = fp * 131 + w.value + v;
          }
          ctx.output(fp);
        },
        cfg);
  };
  ChaosPlan::Config ccfg;
  ccfg.seed = 77;
  ccfg.p_flip = 0.3;
  ccfg.p_dup = 0.2;

  ChaosPlan ref_plan(ccfg);
  const auto ref = run_with(Engine::Config{}, ref_plan);
  ASSERT_GT(ref_plan.total_faults(), 0u);

  ChaosPlan plan(ccfg);
  const auto got = run_with(sharded(4), plan);
  expect_same_result(ref, got, "chaos sharded");
  ASSERT_EQ(ref_plan.ledger().size(), plan.ledger().size());
  for (std::size_t i = 0; i < plan.ledger().size(); ++i) {
    EXPECT_TRUE(ref_plan.ledger()[i] == plan.ledger()[i]) << "event " << i;
  }
}

// A chaos duplicate must keep the plane's max_node_in report consistent
// with the trace's independent per-node delta scan (the engine
// cross-checks them and throws on mismatch).
TEST(ShardedChaos, DuplicateAgreesWithTraceCrossCheck) {
  const Graph g = gen::empty(6);
  ChaosPlan::Config ccfg;
  ccfg.seed = 5;
  ccfg.p_dup = 1.0;  // every word doubled
  ChaosPlan plan(ccfg);
  RoundTrace trace;
  Engine::Config cfg;
  cfg.chaos = &plan;
  cfg.trace = &trace;
  // exchange (not broadcast): raw queues carry no framing, so duplicated
  // words arrive as extra words instead of tripping reassembly checks —
  // the run must complete with the inflated traffic fully accounted.
  const auto r = Engine::run(
      g,
      [](NodeCtx& ctx) {
        WordQueues out(ctx.n());
        for (NodeId v = 0; v < ctx.n(); ++v) {
          if (v != ctx.id()) out[v].emplace_back(1, 1);
        }
        auto in = ctx.exchange(out);
        std::uint64_t words = 0;
        for (const auto& q : in) words += q.size();
        ctx.output(words);
      },
      cfg);
  EXPECT_GT(plan.fault_count(FaultKind::kDuplicate), 0u);
  ASSERT_TRUE(trace.totals_match());
  // Every word was duplicated: each node received 2 words from each of the
  // other 5 nodes, and the trace's per-collective receiver max must agree.
  for (auto w : r.outputs) EXPECT_EQ(w, 10u);
  ASSERT_EQ(trace.records().size(), 1u);
  EXPECT_EQ(trace.records()[0].max_received, 10u);
}

// ---- the raised n cap -----------------------------------------------------

TEST(ShardedScale, CliqueAbovePreviousCapRuns) {
  // 4097 was rejected before the sharded backend raised the cap to 8192.
  const NodeId n = 4097;
  const auto r = Engine::run(
      gen::empty(n),
      [](NodeCtx& ctx) {
        auto bits = ctx.share_bit(ctx.id() % 7 == 0);
        std::uint64_t count = 0;
        for (bool b : bits) count += b ? 1 : 0;
        ctx.output(count);
      },
      sharded(0));
  EXPECT_EQ(r.outputs[0], (n + 6) / 7);
  EXPECT_EQ(r.cost.rounds, 1u);
}

TEST(ShardedScale, CliqueBeyondCapRejected) {
  EXPECT_THROW(Engine::run(gen::empty(8193),
                           [](NodeCtx& ctx) { ctx.output(0); }, sharded(0)),
               ModelViolation);
}

}  // namespace
}  // namespace ccq
