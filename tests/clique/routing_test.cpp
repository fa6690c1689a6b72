#include "clique/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

using Delivery = std::map<std::pair<NodeId, NodeId>, std::vector<std::uint64_t>>;

// Runs a router on a demand pattern and returns (per (src,dst): payload
// multiset) plus the cost. demand(src) yields that node's messages.
template <typename Router, typename DemandFn>
std::pair<Delivery, CostMeter> run_router(NodeId n, Router router,
                                          DemandFn demand) {
  Graph g = gen::empty(n);
  std::mutex mu;
  Delivery got;
  auto res = Engine::run(g, [&](NodeCtx& ctx) {
    std::vector<RoutedMessage> msgs = demand(ctx.id(), ctx.n());
    auto received = router(ctx, msgs);
    {
      std::lock_guard<std::mutex> lk(mu);
      for (auto& [src, w] : received) {
        got[{src, ctx.id()}].push_back(w.value);
      }
    }
    ctx.output(0);
  });
  for (auto& [k, v] : got) std::sort(v.begin(), v.end());
  return {std::move(got), res.cost};
}

template <typename DemandFn>
Delivery expected_delivery(NodeId n, DemandFn demand) {
  Delivery want;
  for (NodeId src = 0; src < n; ++src) {
    for (const RoutedMessage& m : demand(src, n)) {
      want[{src, m.dst}].push_back(m.payload.value);
    }
  }
  for (auto& [k, v] : want) std::sort(v.begin(), v.end());
  return want;
}

auto direct = [](NodeCtx& c, const std::vector<RoutedMessage>& m) {
  return route_direct(c, m);
};
auto balanced = [](NodeCtx& c, const std::vector<RoutedMessage>& m) {
  return route_balanced(c, m);
};

// Random demand: each node sends `per_node` messages to random destinations.
auto random_demand(std::uint64_t seed, std::size_t per_node) {
  return [seed, per_node](NodeId id, NodeId n) {
    SplitMix64 rng(seed ^ (id * 0x9e37ULL));
    std::vector<RoutedMessage> out;
    for (std::size_t i = 0; i < per_node; ++i) {
      NodeId dst;
      do {
        dst = static_cast<NodeId>(rng.next_below(n));
      } while (dst == id);
      out.push_back({dst, Word(rng.next_below(4), 2)});
    }
    return out;
  };
}

TEST(RouteDirect, DeliversEverything) {
  const NodeId n = 8;
  auto demand = random_demand(1, 12);
  auto [got, cost] = run_router(n, direct, demand);
  EXPECT_EQ(got, expected_delivery(n, demand));
}

TEST(RouteDirect, CostEqualsMaxPairLoad) {
  // Node 0 sends 9 messages all to node 1 → 9 rounds.
  auto demand = [](NodeId id, NodeId) {
    std::vector<RoutedMessage> out;
    if (id == 0)
      for (int i = 0; i < 9; ++i) out.push_back({1, Word(1, 1)});
    return out;
  };
  auto [got, cost] = run_router(4, direct, demand);
  EXPECT_EQ(cost.rounds, 9u);
}

TEST(RouteDirect, EmptyDemandCostsNothing) {
  auto demand = [](NodeId, NodeId) { return std::vector<RoutedMessage>{}; };
  auto [got, cost] = run_router(5, direct, demand);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(cost.rounds, 0u);
}

TEST(RouteBalanced, DeliversEverything) {
  const NodeId n = 9;
  auto demand = random_demand(2, 15);
  auto [got, cost] = run_router(n, balanced, demand);
  EXPECT_EQ(got, expected_delivery(n, demand));
}

TEST(RouteBalanced, DeliversSkewedHotspot) {
  // Every node sends n messages, all to node 0: S = n sent, R = n^2... no —
  // receiver load must be ≤ about n for Lenzen's regime, so send n messages
  // spread as "all nodes → node 0, one message each, times n batches" is
  // out of regime; instead: each node sends 1 message to node 0 (R = n-1).
  auto demand = [](NodeId id, NodeId) {
    std::vector<RoutedMessage> out;
    if (id != 0) out.push_back({0, Word(id % 2, 1)});
    return out;
  };
  const NodeId n = 16;
  auto [got, cost] = run_router(n, balanced, demand);
  EXPECT_EQ(got, expected_delivery(n, demand));
}

TEST(RouteBalanced, SingleHeavyPairBeatsDirect) {
  // Node 0 sends m = n/2·n messages to node 1. Direct: m rounds on one
  // link. Balanced: stripes across n intermediaries.
  const NodeId n = 16;
  const std::size_t m = 64;
  auto demand = [m](NodeId id, NodeId) {
    std::vector<RoutedMessage> out;
    if (id == 0)
      for (std::size_t i = 0; i < m; ++i)
        out.push_back({1, Word(i % 2, 1)});
    return out;
  };
  auto [got_d, cost_d] = run_router(n, direct, demand);
  auto [got_b, cost_b] = run_router(n, balanced, demand);
  EXPECT_EQ(got_d, got_b);
  EXPECT_EQ(cost_d.rounds, m);  // 64 rounds over the single pair
  // Balanced: phase 1 ⌈m/n⌉·2 = 8, phase 2: node 1 receives m messages
  // from n intermediaries ≈ ⌈m/n⌉·2 = 8; far below direct.
  EXPECT_LT(cost_b.rounds, cost_d.rounds / 2);
}

TEST(RouteBalanced, LenzenRegimeIsConstantRounds) {
  // Lenzen's regime: every node sends ≤ n and receives ≤ n messages.
  // Random balanced demand: each node sends exactly n messages to random
  // destinations. Rounds must be O(1)·(S/n + 1) — assert a fixed budget.
  for (NodeId n : {8u, 16u, 32u}) {
    auto demand = [](NodeId id, NodeId nn) {
      SplitMix64 rng(id * 7919 + 13);
      std::vector<RoutedMessage> out;
      for (NodeId i = 0; i < nn; ++i) {
        NodeId dst;
        do {
          dst = static_cast<NodeId>(rng.next_below(nn));
        } while (dst == id);
        out.push_back({dst, Word(1, 1)});
      }
      return out;
    };
    auto [got, cost] = run_router(n, balanced, demand);
    EXPECT_EQ(got, expected_delivery(n, demand));
    // Phase 1: ⌈n/n⌉·2 = 2 word-rounds; phase 2 load concentration on a
    // random pattern stays within a small constant factor.
    EXPECT_LE(cost.rounds, 24u) << "n=" << n;
  }
}

TEST(RouteBalanced, ReportsOriginalSources) {
  // Message payloads encode the source so we can cross-check attribution.
  const NodeId n = 8;
  auto demand = [](NodeId id, NodeId nn) {
    std::vector<RoutedMessage> out;
    out.push_back({static_cast<NodeId>((id + 1) % nn), Word(id, 3)});
    return out;
  };
  Graph g = gen::empty(n);
  Engine::run(g, [&](NodeCtx& ctx) {
    auto received = route_balanced(ctx, demand(ctx.id(), ctx.n()));
    ASSERT_EQ(received.size(), 1u);
    const NodeId expect_src = (ctx.id() + n - 1) % n;
    EXPECT_EQ(received[0].first, expect_src);
    EXPECT_EQ(received[0].second.value, expect_src);
    ctx.output(0);
  });
}

TEST(RouteDirect, PreservesPerSourceOrder) {
  const NodeId n = 4;
  Graph g = gen::empty(n);
  Engine::run(g, [&](NodeCtx& ctx) {
    std::vector<RoutedMessage> msgs;
    if (ctx.id() == 2) {
      for (std::uint64_t i = 0; i < 5; ++i)
        msgs.push_back({0, Word(i % 4, 2)});
    }
    auto received = route_direct(ctx, msgs);
    if (ctx.id() == 0) {
      ASSERT_EQ(received.size(), 5u);
      for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(received[i].second.value, i % 4);
    }
    ctx.output(0);
  });
}


TEST(RouteBalanced, PerNodeLoadsStayLinearInLenzenRegime) {
  // The quantitative content of the substitution (DESIGN.md §1): in the
  // ≤n-sent regime the relay keeps every node's total traffic O(n) words
  // (2 words per message and per relay hop), so the drain is O(1) rounds.
  const NodeId n = 32;
  auto demand = [](NodeId id, NodeId nn) {
    SplitMix64 rng(id * 31 + 5);
    std::vector<RoutedMessage> out;
    for (NodeId i = 0; i < nn; ++i) {
      NodeId dst;
      do {
        dst = static_cast<NodeId>(rng.next_below(nn));
      } while (dst == id);
      out.push_back({dst, Word(1, 1)});
    }
    return out;
  };
  auto res = Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
    auto got = route_balanced(ctx, demand(ctx.id(), ctx.n()));
    ctx.output(got.size());
  });
  // Each node sends n messages → 2n words in phase 1, relays ≈ n messages
  // → 2n words in phase 2: ≤ ~4n sent; receiving is symmetric plus
  // balls-in-bins slack.
  EXPECT_LE(res.cost.max_node_sent, 5u * n);
  EXPECT_LE(res.cost.max_node_received, 7u * n);
}

// ---- order pinning ---------------------------------------------------------
//
// route_balanced promises a deterministic received order (by source, then
// relay order). The workload digests are order-insensitive, so this suite
// is the guard on order: the router must reproduce, pair for pair and
// meter for meter, the straightforward stable_sort formulation below.

std::vector<std::pair<NodeId, Word>> route_balanced_by_stable_sort(
    NodeCtx& ctx, const std::vector<RoutedMessage>& messages) {
  const NodeId n = ctx.n();
  const unsigned idb = node_id_bits(n);
  std::vector<RoutedMessage> sorted = messages;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const RoutedMessage& a, const RoutedMessage& b) {
                     return a.dst < b.dst;
                   });
  const NodeId offset = static_cast<NodeId>(mix64_below(
      ctx.common_seed() ^ (static_cast<std::uint64_t>(ctx.id()) + 1), n));
  std::vector<std::pair<NodeId, Word>> phase1;
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    const NodeId mid = static_cast<NodeId>((offset + j) % n);
    phase1.emplace_back(mid, Word(sorted[j].dst, idb));
    phase1.emplace_back(mid, sorted[j].payload);
  }
  const FlatInbox relay_in = ctx.exchange_flat(phase1);
  std::vector<std::pair<NodeId, Word>> phase2;
  for (NodeId src = 0; src < n; ++src) {
    const auto q = relay_in.from(src);
    for (std::size_t i = 0; i < q.size(); i += 2) {
      const NodeId dst = static_cast<NodeId>(q[i].value);
      phase2.emplace_back(dst, Word(src, idb));
      phase2.emplace_back(dst, q[i + 1]);
    }
  }
  const FlatInbox final_in = ctx.exchange_flat(phase2);
  std::vector<std::pair<NodeId, Word>> received;
  for (NodeId mid = 0; mid < n; ++mid) {
    const auto q = final_in.from(mid);
    for (std::size_t i = 0; i < q.size(); i += 2) {
      received.emplace_back(static_cast<NodeId>(q[i].value), q[i + 1]);
    }
  }
  std::stable_sort(received.begin(), received.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  return received;
}

// Runs `router` on every node and returns each node's received list
// (order kept) with the run's meter.
template <typename Router, typename DemandFn>
std::pair<std::vector<std::vector<std::pair<NodeId, Word>>>, CostMeter>
run_ordered(NodeId n, const Engine::Config& cfg, Router router,
            DemandFn demand) {
  std::vector<std::vector<std::pair<NodeId, Word>>> got(n);
  auto res = Engine::run(
      gen::empty(n),
      [&](NodeCtx& ctx) {
        got[ctx.id()] = router(ctx, demand(ctx.id(), ctx.n()));
        ctx.output(0);
      },
      cfg);
  return {std::move(got), res.cost};
}

// Payloads vary per message so that any reordering shows.
Word order_word(SplitMix64& rng, NodeId n) {
  const unsigned b = node_id_bits(n);
  return Word(rng.next() & ((std::uint64_t{1} << b) - 1), b);
}

TEST(RouteBalanced, OrderAndMetersMatchStableSortFormulation) {
  using Demand = std::function<std::vector<RoutedMessage>(NodeId, NodeId)>;
  const std::pair<const char*, Demand> demands[] = {
      {"empty", [](NodeId, NodeId) { return std::vector<RoutedMessage>{}; }},
      // Random destinations, self included: plenty of duplicates.
      {"duplicates",
       [](NodeId id, NodeId n) {
         SplitMix64 rng(id * 0x9e37ULL + n);
         std::vector<RoutedMessage> out;
         const std::uint64_t count = rng.next_below(2 * n + 1);
         for (std::uint64_t i = 0; i < count; ++i) {
           const auto dst = static_cast<NodeId>(rng.next_below(n));
           out.push_back({dst, order_word(rng, n)});
         }
         return out;
       }},
      // Every node sends a burst to node n/2; half the nodes send nothing.
      {"hotspot",
       [](NodeId id, NodeId n) {
         SplitMix64 rng(id * 7919 + 3);
         std::vector<RoutedMessage> out;
         if (id % 2 == 0) {
           for (NodeId i = 0; i < 5; ++i)
             out.push_back({n / 2, order_word(rng, n)});
         }
         return out;
       }},
  };
  const std::pair<ExecutionBackend, const char*> backends[] = {
      {ExecutionBackend::kThreadPerNode, "thread-per-node"},
      {ExecutionBackend::kSharded, "sharded"},
  };
  for (const NodeId n : {1u, 2u, 3u, 37u, 128u, 256u}) {
    for (const auto& [dname, demand] : demands) {
      for (const auto& [backend, bname] : backends) {
        Engine::Config cfg;
        cfg.backend = backend;
        const std::string what = "n=" + std::to_string(n) + " " + dname +
                                 " " + bname;
        const auto [want, want_cost] =
            run_ordered(n, cfg, route_balanced_by_stable_sort, demand);
        const auto [got, cost] = run_ordered(n, cfg, balanced, demand);
        EXPECT_EQ(got, want) << what;
        EXPECT_EQ(cost.rounds, want_cost.rounds) << what;
        EXPECT_EQ(cost.messages, want_cost.messages) << what;
        EXPECT_EQ(cost.bits, want_cost.bits) << what;
        EXPECT_EQ(cost.collectives, want_cost.collectives) << what;
        EXPECT_EQ(cost.max_node_sent, want_cost.max_node_sent) << what;
        EXPECT_EQ(cost.max_node_received, want_cost.max_node_received)
            << what;
      }
    }
  }
}

TEST(RouteBalanced, RejectsOutOfRangeDestination) {
  const NodeId n = 6;
  try {
    Engine::run(gen::empty(n), [](NodeCtx& ctx) {
      std::vector<RoutedMessage> msgs{{0, Word(1, 1)}};
      if (ctx.id() == 4) msgs.push_back({ctx.n(), Word(1, 1)});
      route_balanced(ctx, msgs);
      ctx.output(0);
    });
    FAIL() << "destination n was accepted";
  } catch (const ModelViolation& e) {
    EXPECT_NE(std::string(e.what()).find("route_balanced: destination range"),
              std::string::npos)
        << e.what();
  }
}

TEST(Engine, PerNodeLoadMetersExact) {
  // Node 0 sends 3 words to node 1 and 2 to node 2; meters must report
  // exactly max_sent = 5 (node 0) and max_received = 3 (node 1).
  auto res = Engine::run(gen::empty(4), [](NodeCtx& ctx) {
    WordQueues out(4);
    if (ctx.id() == 0) {
      for (int i = 0; i < 3; ++i) out[1].emplace_back(1, 1);
      for (int i = 0; i < 2; ++i) out[2].emplace_back(1, 1);
    }
    ctx.exchange(out);
    ctx.output(0);
  });
  EXPECT_EQ(res.cost.max_node_sent, 5u);
  EXPECT_EQ(res.cost.max_node_received, 3u);
}

}  // namespace
}  // namespace ccq
