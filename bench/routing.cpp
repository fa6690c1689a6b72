// SEC7.1 dependency — the routing layer standing in for Lenzen [43]
// (DESIGN.md §1). Measures both routers on the load regimes the paper's
// algorithms generate: balanced all-to-all (Lenzen's regime: ≤ n sent and
// received per node ⇒ O(1) rounds) and a skewed single-hot-pair load where
// indirection is mandatory.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_json.hpp"
#include "clique/routing.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace ccq;

namespace {

// Machine-readable mirror of the comparison tables; written to
// BENCH_routing.json at exit so CI can diff runs.
benchjson::Writer g_json;

void record(NodeId n, const char* backend, double ms, const RunResult& r) {
  g_json.add({{"n", n},
              {"backend", backend},
              {"wall_ms", ms},
              {"rounds", r.cost.rounds},
              {"messages", r.cost.messages},
              {"bits", r.cost.bits}});
}

template <typename Router>
std::uint64_t measure(NodeId n, Router router,
                      const std::function<std::vector<RoutedMessage>(
                          NodeId, NodeId)>& demand) {
  auto res = Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
    auto msgs = demand(ctx.id(), ctx.n());
    auto got = router(ctx, msgs);
    ctx.output(got.size());
  });
  return res.cost.rounds;
}

// Wall-clock of the rendezvous-bound regime — many light supersteps, the
// load the fiber scheduler targets — under a given execution backend. The
// cost meters must be byte-identical across backends, which we assert here.
// (Delivery-compute-bound loads like route_balanced at large n spend their
// time in the shared serial delivery step, identical across backends, so
// they cannot tell the schedulers apart.)
struct BackendSample {
  double millis = 0;
  RunResult result;
};

BackendSample run_backend(NodeId n, ExecutionBackend backend, int trials) {
  Engine::Config cfg;
  cfg.backend = backend;
  const auto program = [](NodeCtx& ctx) {
    std::uint64_t got = 0;
    for (int r = 0; r < 8; ++r) {
      std::vector<std::pair<NodeId, Word>> sends;
      if (ctx.n() > 1)
        sends.emplace_back((ctx.id() + 1) % ctx.n(), Word(r % 2, 1));
      auto in = ctx.round(sends);
      for (NodeId v = 0; v < ctx.n(); ++v) {
        if (in[v]) got += in[v]->value + 1;
      }
    }
    ctx.output(got);
  };
  // Best-of-k to shed scheduler noise on a shared machine; the RunResult is
  // required to be identical on every trial, so any of them can be kept.
  BackendSample s;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    auto res = Engine::run(gen::empty(n), program, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t == 0 || ms < s.millis) s.millis = ms;
    s.result = std::move(res);
  }
  return s;
}

void backend_comparison() {
  std::printf(
      "\nExecution backends (rendezvous-bound load: 8 light ring supersteps,\n"
      "best of 3 trials): sharded fiber scheduler vs thread-per-node\n"
      "reference. Cost meters must be byte-identical; only wall-clock may\n"
      "differ:\n");
  Table t({"n", "thread/node ms", "sharded ms", "speedup", "counts equal"});
  for (NodeId n : {128u, 256u, 512u}) {
    const auto tpn = run_backend(n, ExecutionBackend::kThreadPerNode, 3);
    const auto fib = run_backend(n, ExecutionBackend::kSharded, 3);
    const bool same =
        tpn.result.outputs == fib.result.outputs &&
        tpn.result.cost.rounds == fib.result.cost.rounds &&
        tpn.result.cost.messages == fib.result.cost.messages &&
        tpn.result.cost.bits == fib.result.cost.bits &&
        tpn.result.cost.collectives == fib.result.cost.collectives &&
        tpn.result.cost.max_node_sent == fib.result.cost.max_node_sent &&
        tpn.result.cost.max_node_received ==
            fib.result.cost.max_node_received;
    if (!same) {
      std::printf("FATAL: backends disagree on metered cost at n=%u\n", n);
      std::exit(1);
    }
    record(n, "thread-per-node", tpn.millis, tpn.result);
    record(n, "sharded", fib.millis, fib.result);
    t.add_row({std::to_string(n), Table::fmt(tpn.millis, 1),
               Table::fmt(fib.millis, 1),
               Table::fmt(tpn.millis / fib.millis, 1), "yes"});
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  // --trace=<path>: record every run below into one chrome://tracing
  // timeline + JSONL ledger (see EXPERIMENTS.md "Reading a trace").
  benchjson::TraceSession trace_session(&argc, argv);
  std::printf("Routing substrate (Lenzen-regime loads)\n\n");

  std::printf(
      "Balanced load: every node sends exactly n messages to random\n"
      "destinations (paper regime: O(1) rounds expected, n-independent):\n");
  Table tb({"n", "direct rounds", "balanced rounds"});
  for (NodeId n : {16u, 32u, 64u, 128u}) {
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
    const auto dr = measure(n, [](NodeCtx& c, const auto& m) {
      return route_direct(c, m);
    }, demand);
    const auto br = measure(n, [](NodeCtx& c, const auto& m) {
      return route_balanced(c, m);
    }, demand);
    tb.add_row({std::to_string(n), std::to_string(dr), std::to_string(br)});
  }
  tb.print();

  std::printf(
      "\nSkewed load: node 0 sends m = 4n messages to node 1 (direct pays\n"
      "m rounds on one link; indirection spreads it):\n");
  Table ts({"n", "m", "direct rounds", "balanced rounds"});
  for (NodeId n : {16u, 32u, 64u}) {
    const std::size_t m = 4u * n;
    auto demand = [m](NodeId id, NodeId) {
      std::vector<RoutedMessage> out;
      if (id == 0)
        for (std::size_t i = 0; i < m; ++i)
          out.push_back({1, Word(i % 2, 1)});
      return out;
    };
    const auto dr = measure(n, [](NodeCtx& c, const auto& m_) {
      return route_direct(c, m_);
    }, demand);
    const auto br = measure(n, [](NodeCtx& c, const auto& m_) {
      return route_balanced(c, m_);
    }, demand);
    ts.add_row({std::to_string(n), std::to_string(m), std::to_string(dr),
                std::to_string(br)});
  }
  ts.print();

  backend_comparison();

  // Flush the trace (if any) before BENCH_routing.json so the per-phase
  // breakdown rows land in the artifact; a failed self-check (per-record
  // sums != metered totals) fails the bench.
  if (!trace_session.finish(&g_json)) return 1;

  if (g_json.write("BENCH_routing.json")) {
    std::printf("\nwrote BENCH_routing.json\n");
  }

  std::printf(
      "\nShape check: balanced-load rounds stay O(1) as n grows; skewed "
      "direct grows\nlinearly in m while the two-phase router stays near "
      "2·⌈m/n⌉·2; the fiber\nscheduler wins wall-clock on rendezvous-bound "
      "loads without moving a single\nmetered count.\n");
  return 0;
}
