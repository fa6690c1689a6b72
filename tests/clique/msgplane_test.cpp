// Property suite for the message plane (clique/msgplane.hpp).
//
// The plane contract promises that delivery is invisible to the cost
// model: outputs and every CostMeter field are a function of the send
// lists alone, on any execution backend and any worker count. The property
// test below drives ~100 randomised traffic patterns (skewed all-to-all,
// single hot pair, empty, random sparse with self-sends) through every
// backend setup and requires each result to equal an engine-free oracle
// that derives the expected inboxes and meters directly from the send
// lists. Targeted tests pin the arena-specific behaviours: span views
// matching queue views, FIFO order, free self-delivery, validation at
// deposit time.

#include "clique/msgplane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "clique/engine.hpp"
#include "clique/trace.hpp"
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
    {ExecutionBackend::kSharded, 2, "sharded-2"},
    {ExecutionBackend::kSharded, 5, "sharded-5"},  // non-dividing shards
    {ExecutionBackend::kSharded, 0, "sharded-hw"},
};

Engine::Config config_for(const BackendSetup& s) {
  Engine::Config cfg;
  cfg.backend = s.backend;
  cfg.workers = s.workers;
  return cfg;
}

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

// One traffic pattern = (seed, kind). Sends are (dst, word) lists, possibly
// with repeats per destination and self-sends (legal in exchange).
enum PatternKind : int {
  kSkewedAllToAll = 0,
  kSingleHotPair = 1,
  kEmpty = 2,
  kRandomSparse = 3,
  kPatternKinds = 4,
};

std::vector<std::pair<NodeId, Word>> make_sends(NodeId id, NodeId n,
                                                unsigned B,
                                                std::uint64_t seed,
                                                int kind) {
  SplitMix64 rng(seed * 1000003 + id * 7919 + kind);
  std::vector<std::pair<NodeId, Word>> sends;
  auto word = [&] {
    const unsigned bits = 1 + static_cast<unsigned>(rng.next_below(B));
    return Word(rng.next() & ((bits == 64 ? ~0ull : (1ull << bits) - 1)),
                bits);
  };
  switch (kind) {
    case kSkewedAllToAll:
      for (NodeId dst = 0; dst < n; ++dst) {
        const NodeId reps = (id + dst) % 4;
        for (NodeId i = 0; i < reps; ++i) sends.emplace_back(dst, word());
      }
      break;
    case kSingleHotPair:
      if (id == static_cast<NodeId>(seed % n)) {
        const NodeId dst = static_cast<NodeId>((seed + 1) % n);
        for (NodeId i = 0; i < 3 * n; ++i) sends.emplace_back(dst, word());
      }
      break;
    case kEmpty:
      break;
    case kRandomSparse: {
      const std::uint64_t count = rng.next_below(2 * n + 1);
      for (std::uint64_t i = 0; i < count; ++i) {
        sends.emplace_back(static_cast<NodeId>(rng.next_below(n)), word());
      }
      break;
    }
  }
  return sends;
}

// The ring send of round_flat(): node id sends one bit to its successor.
std::optional<Word> ring_word(NodeId id, NodeId n, std::uint64_t seed) {
  if (n > 1 && (seed + id) % 3 != 0) return Word((seed ^ id) & 1, 1);
  return std::nullopt;
}

// The broadcast() payload: seed % 9 bits, bit i = bit i of seed.
BitVector broadcast_bits(std::uint64_t seed) {
  BitVector mine(seed % 9);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if ((seed >> i) & 1) mine.set(i);
  }
  return mine;
}

struct Fingerprint {
  std::uint64_t fp = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) { fp = (fp ^ v) * 0x100000001b3ull; }
};

// Fingerprints every word received — source, position, value, width — so
// any divergence in content, FIFO order, or metering shows up in outputs.
void traffic_program(NodeCtx& ctx, std::uint64_t seed, int kind) {
  const NodeId n = ctx.n();
  Fingerprint f;
  const auto sends = make_sends(ctx.id(), n, ctx.bandwidth(), seed, kind);

  // The same pattern through both exchange APIs.
  // 1) exchange() with per-destination queues.
  WordQueues out(n);
  for (const auto& [dst, w] : sends) out[dst].push_back(w);
  const WordQueues in = ctx.exchange(out);
  for (NodeId src = 0; src < n; ++src) {
    for (const Word& w : in[src]) f.mix(src * 131 + w.value * 31 + w.bits);
  }

  // 2) exchange_flat() with the raw pair list.
  const FlatInbox fin = ctx.exchange_flat(sends);
  for (NodeId src = 0; src < n; ++src) {
    for (const Word& w : fin.from(src)) {
      f.mix(src * 139 + w.value * 37 + w.bits);
    }
  }

  // round_flat(): a seed-dependent ring send.
  std::vector<std::pair<NodeId, Word>> ring;
  if (const auto w = ring_word(ctx.id(), n, seed)) {
    ring.emplace_back((ctx.id() + 1) % n, *w);
  }
  const FlatInbox rin = ctx.round_flat(ring);
  for (NodeId src = 0; src < n; ++src) {
    const auto got = rin.from(src);
    if (!got.empty()) f.mix(src * 149 + got.front().value);
  }

  // broadcast(): same length on every node (engine-checked), varied by seed.
  for (const BitVector& r : ctx.broadcast(broadcast_bits(seed))) {
    f.mix(r.popcount() + 7);
  }

  f.mix(ctx.rounds_so_far());
  ctx.output(f.fp);
}

// Engine-free oracle for traffic_program: each node's output fingerprint
// and all seven CostMeter fields, computed from the send lists alone under
// the model's rules (FIFO per ordered pair, one word per pair per round,
// self-delivery free and unmetered).
RunResult traffic_oracle(NodeId n, std::uint64_t seed, int kind) {
  const unsigned B = node_id_bits(n);
  RunResult r;
  CostMeter& c = r.cost;
  std::vector<std::uint64_t> sent(n, 0), received(n, 0);
  auto charge = [&](NodeId src, NodeId dst, const Word& w) {
    c.messages += 1;
    c.bits += w.bits;
    sent[src] += 1;
    received[dst] += 1;
  };

  // inbox[v][u]: the words u sent to v, in send order.
  std::vector<WordQueues> inbox(n, WordQueues(n));
  std::uint64_t drain = 0;  // longest non-self queue
  for (NodeId u = 0; u < n; ++u) {
    for (const auto& [dst, w] : make_sends(u, n, B, seed, kind)) {
      auto& q = inbox[dst][u];
      q.push_back(w);
      if (dst != u) drain = std::max<std::uint64_t>(drain, q.size());
    }
  }
  // exchange() and exchange_flat() each deliver this traffic once.
  for (int pass = 0; pass < 2; ++pass) {
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId u = 0; u < n; ++u) {
        if (u == v) continue;
        for (const Word& w : inbox[v][u]) charge(u, v, w);
      }
    }
    c.rounds += drain;
    c.collectives += 1;
  }

  // round_flat(): exactly one round, occupied or not.
  for (NodeId u = 0; u < n; ++u) {
    if (const auto w = ring_word(u, n, seed)) charge(u, (u + 1) % n, *w);
  }
  c.rounds += 1;
  c.collectives += 1;

  // broadcast(): every node sends its ⌈L/B⌉ words to every other node.
  const BitVector mine = broadcast_bits(seed);
  const std::vector<Word> words = encode_bits(mine, B);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) continue;
      for (const Word& w : words) charge(u, v, w);
    }
  }
  c.rounds += ceil_div(mine.size(), B);
  c.collectives += 1;

  c.max_node_sent = *std::max_element(sent.begin(), sent.end());
  c.max_node_received = *std::max_element(received.begin(), received.end());

  for (NodeId v = 0; v < n; ++v) {
    Fingerprint f;
    for (NodeId src = 0; src < n; ++src) {
      for (const Word& w : inbox[v][src]) {
        f.mix(src * 131 + w.value * 31 + w.bits);
      }
    }
    for (NodeId src = 0; src < n; ++src) {
      for (const Word& w : inbox[v][src]) {
        f.mix(src * 139 + w.value * 37 + w.bits);
      }
    }
    const NodeId pred = (v + n - 1) % n;
    if (const auto w = ring_word(pred, n, seed)) {
      f.mix(pred * 149 + w->value);
    }
    for (NodeId src = 0; src < n; ++src) f.mix(mine.popcount() + 7);
    f.mix(c.rounds);
    r.outputs.push_back(f.fp);
  }
  return r;
}

TEST(MsgPlaneProperty, RandomTrafficIdenticalAcrossPlanesAndBackends) {
  const Graph g = gen::gnp(16, 0.4, 7);
  int patterns = 0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    for (int kind = 0; kind < kPatternKinds; ++kind) {
      ++patterns;
      const auto program = [seed, kind](NodeCtx& ctx) {
        traffic_program(ctx, seed, kind);
      };
      const RunResult want = traffic_oracle(g.n(), seed, kind);
      for (const BackendSetup& s : kSetups) {
        const std::string name = std::string(s.name) + " seed=" +
                                 std::to_string(seed) + " kind=" +
                                 std::to_string(kind);
        expect_same_result(want, Engine::run(g, program, config_for(s)),
                           name);
      }
    }
  }
  EXPECT_EQ(patterns, 100);
}

// Per-run sanity on a larger clique, on every backend setup.
TEST(MsgPlaneProperty, LargerCliqueMatchesOracle) {
  const Graph g = gen::gnp(96, 0.3, 11);
  const auto program = [](NodeCtx& ctx) { traffic_program(ctx, 42, 0); };
  const RunResult want = traffic_oracle(g.n(), 42, 0);
  for (const BackendSetup& s : kSetups) {
    expect_same_result(want, Engine::run(g, program, config_for(s)),
                       std::string("n=96 ") + s.name);
  }
}

// ---- targeted arena-plane behaviours -------------------------------------

TEST(MsgPlaneFlat, BroadcastOnlyCollectiveDeliversEachSourcesOwnRun) {
  // The broadcast-only delivery keeps one copy of each source's run. Every
  // node broadcasts a payload unique to it, twice (both histogram
  // parities) around a ring exchange that reuses the arena; each node
  // counts the runs that differ from the sender's payload. n = 40 spans
  // two delivery chunks. Traced, so the plane's receiver-side max is
  // cross-checked against the per-node totals.
  constexpr NodeId n = 40;
  constexpr std::size_t kBits = 20;  // 4 words at B = 6
  const auto payload = [](NodeId id, std::uint64_t salt) {
    BitVector b(kBits);
    for (std::size_t i = 0; i < kBits; ++i)
      if (mix64(id * 1000 + salt * 100 + i) & 1) b.set(i);
    return b;
  };
  const auto program = [&](NodeCtx& ctx) {
    std::uint64_t wrong = 0;
    for (const std::uint64_t salt : {1, 2}) {
      const std::vector<BitVector> all =
          ctx.broadcast(payload(ctx.id(), salt));
      for (NodeId src = 0; src < n; ++src)
        if (!(all[src] == payload(src, salt))) ++wrong;
      if (salt == 1) {
        const std::pair<NodeId, Word> ring[] = {
            {(ctx.id() + 1) % n, Word(ctx.id(), 6)}};
        const FlatInbox in = ctx.exchange_flat(ring);
        const NodeId pred = (ctx.id() + n - 1) % n;
        const auto got = in.from(pred);
        if (got.size() != 1 || got[0].value != pred) ++wrong;
      }
    }
    ctx.output(wrong);
  };
  RunResult want;
  want.outputs.assign(n, 0);
  want.cost.rounds = 4 + 1 + 4;
  want.cost.messages = 2 * n * (n - 1) * 4 + n;
  want.cost.bits = 2 * n * (n - 1) * kBits + n * 6;
  want.cost.collectives = 3;
  want.cost.max_node_sent = 2 * (n - 1) * 4 + 1;
  want.cost.max_node_received = want.cost.max_node_sent;
  for (const BackendSetup& s : kSetups) {
    RoundTrace trace;
    Engine::Config cfg = config_for(s);
    cfg.trace = &trace;
    expect_same_result(want, Engine::run(gen::empty(n), program, cfg),
                       s.name);
    EXPECT_TRUE(trace.totals_match()) << s.name;
  }
}

TEST(MsgPlaneFlat, SpanViewMatchesQueueViewPerSourceFifo) {
  const Graph g = gen::empty(8);
  Engine::Config cfg;
  cfg.bandwidth_multiplier = 2;  // B = 6: room for the id*2+1 tags below
  auto run = Engine::run(
      g,
      [](NodeCtx& ctx) {
        const NodeId n = ctx.n();
        // Two words to every node (self included), tagged with sender and
        // position so order is observable.
        std::vector<std::pair<NodeId, Word>> sends;
        for (NodeId dst = 0; dst < n; ++dst) {
          sends.emplace_back(dst, Word(ctx.id() * 2 + 0, 6));
          sends.emplace_back(dst, Word(ctx.id() * 2 + 1, 6));
        }
        const FlatInbox flat = ctx.exchange_flat(sends);
        WordQueues out(n);
        for (const auto& [dst, w] : sends) out[dst].push_back(w);
        const WordQueues queued = ctx.exchange(out);
        bool equal = true;
        for (NodeId src = 0; src < n; ++src) {
          const auto s = flat.from(src);
          equal = equal && s.size() == queued[src].size();
          for (std::size_t i = 0; equal && i < s.size(); ++i) {
            equal = equal && s[i] == queued[src][i];
          }
          // FIFO: sender's first word first.
          equal = equal && s.size() == 2 &&
                  s[0].value == std::uint64_t{src} * 2 &&
                  s[1].value == std::uint64_t{src} * 2 + 1;
        }
        ctx.output(equal ? 1 : 0);
      },
      cfg);
  EXPECT_TRUE(run.accepted());
}

TEST(MsgPlaneFlat, SelfDeliveryIsFreeThroughTheArena) {
  const Graph g = gen::empty(4);
  auto run = Engine::run(
      g,
      [](NodeCtx& ctx) {
        std::vector<std::pair<NodeId, Word>> sends;
        for (int i = 0; i < 5; ++i) sends.emplace_back(ctx.id(), Word(i, 3));
        const FlatInbox in = ctx.exchange_flat(sends);
        const auto own = in.from(ctx.id());
        bool ok = own.size() == 5;
        for (std::size_t i = 0; ok && i < own.size(); ++i) {
          ok = own[i].value == i;
        }
        ctx.output(ok ? 1 : 0);
      });
  EXPECT_TRUE(run.accepted());
  EXPECT_EQ(run.cost.rounds, 0u);    // self-only traffic drains for free
  EXPECT_EQ(run.cost.messages, 0u);  // and is not metered as communication
}

TEST(MsgPlaneFlat, BandwidthValidatedAtDeposit) {
  const Graph g = gen::empty(3);
  // Pair deposits (exchange_flat).
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             std::vector<std::pair<NodeId, Word>> sends;
                             sends.emplace_back((ctx.id() + 1) % ctx.n(),
                                                Word(0, 64));
                             ctx.exchange_flat(sends);
                             ctx.output(0);
                           }),
               ModelViolation);
  // Queue-shaped outboxes (exchange), flattened to the same pair deposit.
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             WordQueues out(ctx.n());
                             out[(ctx.id() + 1) % ctx.n()].emplace_back(0,
                                                                        64);
                             ctx.exchange(out);
                             ctx.output(0);
                           }),
               ModelViolation);
}

TEST(MsgPlaneFlat, RoundFlatEnforcesRoundRules) {
  const Graph g = gen::empty(4);
  // Two words to one destination.
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             std::vector<std::pair<NodeId, Word>> sends;
                             sends.emplace_back((ctx.id() + 1) % ctx.n(),
                                                Word(0, 1));
                             sends.emplace_back((ctx.id() + 1) % ctx.n(),
                                                Word(1, 1));
                             ctx.round_flat(sends);
                             ctx.output(0);
                           }),
               ModelViolation);
  // Self-send.
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             std::vector<std::pair<NodeId, Word>> sends;
                             sends.emplace_back(ctx.id(), Word(0, 1));
                             ctx.round_flat(sends);
                             ctx.output(0);
                           }),
               ModelViolation);
}

TEST(MsgPlaneFlat, RoundFlatCostsOneRoundEvenWhenSilent) {
  const Graph g = gen::empty(5);
  auto run = Engine::run(
      g,
      [](NodeCtx& ctx) {
        for (int i = 0; i < 3; ++i) ctx.round_flat({});
        ctx.output(0);
      });
  EXPECT_EQ(run.cost.rounds, 3u);
}

TEST(MsgPlaneFlat, WarmArenaGrowsAndShrinksWithoutStaleWords) {
  // The arena is raw storage that grows without copying, so every slot a
  // collective reads must have been written by that collective. One warm
  // session per backend runs small traffic, large traffic (the arena
  // grows), small traffic again (stale words from the large run sit past
  // the live range), then a broadcast-only run larger still (the arena
  // grows again, through the broadcast path).
  constexpr NodeId n = 40;
  const Graph g = gen::empty(n);
  constexpr std::size_t kWords = 64;  // > the all-to-all arena, at B = 6
  const std::size_t bits = kWords * node_id_bits(n);
  const auto payload = [bits](NodeId id) {
    BitVector b(bits);
    for (std::size_t i = 0; i < bits; ++i)
      if (mix64(id * 7919 + i) & 1) b.set(i);
    return b;
  };
  const auto broadcast_only = [&](NodeCtx& ctx) {
    std::uint64_t wrong = 0;
    const std::vector<BitVector> all = ctx.broadcast(payload(ctx.id()));
    for (NodeId src = 0; src < n; ++src)
      if (!(all[src] == payload(src))) ++wrong;
    ctx.output(wrong);
  };
  RunResult want_bcast;
  want_bcast.outputs.assign(n, 0);
  want_bcast.cost.rounds = kWords;
  want_bcast.cost.messages = n * (n - 1) * kWords;
  want_bcast.cost.bits = n * (n - 1) * bits;
  want_bcast.cost.collectives = 1;
  want_bcast.cost.max_node_sent = (n - 1) * kWords;
  want_bcast.cost.max_node_received = (n - 1) * kWords;

  for (const BackendSetup& s : kSetups) {
    const Engine::Config cfg = config_for(s);
    EngineSession session(
        EngineSession::Shape{.n = n, .backend = cfg.backend});
    for (const int kind : {kSingleHotPair, kSkewedAllToAll, kSingleHotPair}) {
      const auto program = [kind](NodeCtx& ctx) {
        traffic_program(ctx, 5, kind);
      };
      expect_same_result(traffic_oracle(n, 5, kind),
                         session.run(Instance::of(g), program, cfg),
                         std::string(s.name) + " kind=" +
                             std::to_string(kind));
    }
    expect_same_result(want_bcast,
                       session.run(Instance::of(g), broadcast_only, cfg),
                       std::string(s.name) + " broadcast-only");
  }
}

TEST(MsgPlaneFlat, ArenaViewSurvivesUntilNextCollectiveOnly) {
  // A node may lag behind the others by one collective while still reading
  // its spans: nodes deposit for collective k+1 while a straggler reads
  // collective k. The double-buffered histogram makes this safe; this test
  // stresses it with per-node skewed local work on the default backend.
  const Graph g = gen::empty(32);
  auto run = Engine::run(
      g,
      [](NodeCtx& ctx) {
        const NodeId n = ctx.n();
        std::uint64_t acc = 0;
        for (int r = 0; r < 20; ++r) {
          std::vector<std::pair<NodeId, Word>> sends;
          for (NodeId dst = 0; dst < n; ++dst) {
            sends.emplace_back(dst, Word((ctx.id() + r) % 2, 1));
          }
          const FlatInbox in = ctx.exchange_flat(sends);
          // Skewed local work: high-id nodes linger on their spans longer.
          volatile std::uint64_t sink = 0;
          for (NodeId i = 0; i < ctx.id() * 50; ++i) sink = sink + i;
          for (NodeId src = 0; src < n; ++src) {
            for (const Word& w : in.from(src)) acc += w.value;
          }
        }
        ctx.output(acc);
      });
  // Every node receives sum over r of n/2 ones from each parity class.
  for (NodeId v = 0; v < 32; ++v) {
    EXPECT_EQ(run.outputs[v], run.outputs[0]);
  }
}

}  // namespace
}  // namespace ccq
