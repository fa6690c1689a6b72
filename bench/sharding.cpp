// Sharded owner-computes backend (ExecutionBackend::kSharded) scaling.
//
// The fiber backend (DESIGN.md §7) cuts the node id space into static
// contiguous shards, one plain id-ordered resume loop per owning worker,
// no shared claim counter. This bench measures how it scales with the
// shard count on the two loads it targets:
//
//  * routing — a balanced-router batch (n messages per node, Lenzen's
//    regime) plus light ring supersteps, swept up to n = 8192;
//  * distributed MM — the 3-D semiring algorithm's subcube collectives
//    (algebra/distributed_mm.hpp), the paper's §7 workload, at n ≤ 1024.
//
// Cost meters and outputs must be byte-identical across every shard count
// (sharded/1, a single worker, is the reference) — the bench exits
// non-zero on any divergence, in or out of --check mode; wall-clock is the
// only column allowed to move.
//
// Usage: bench_sharding [--n=N] [--check] [--trace=PATH]
//   --n=N     run a single clique size instead of the default sweep
//   --check   CI smoke mode: exit non-zero if sharded/hw (one shard per
//             pool thread) is slower than sharded/1 beyond kCheckTolerance
//             (shared runners jitter best-of-k timings by ~10%, so an
//             exact comparison would flake on timer noise alone)
//   --trace=PATH  record a round trace of every run (chrome://tracing)
//
// Writes BENCH_sharding.json ({n, load, backend, shards, wall_ms, rounds,
// messages, bits} per row) into the current directory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "algebra/distributed_mm.hpp"
#include "bench_json.hpp"
#include "clique/engine.hpp"
#include "clique/routing.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace ccq;

namespace {

// --check fails only when sharded/hw exceeds sharded/1 by this factor: a
// full team must never lose to a single worker (on a one-core runner the
// two are the same run), so the gate catches real regressions in the
// parallel phases, not CI wall-clock jitter.
constexpr double kCheckTolerance = 1.15;

benchjson::Writer g_json;

struct Sample {
  double millis = 0;
  RunResult result;
};

struct Setup {
  std::size_t shards;  // 0 = one per pool thread
  const char* name;
};

// The first setup is the meter reference every other one must match.
const Setup kSetups[] = {
    {1, "sharded/1"},
    {2, "sharded/2"},
    {4, "sharded/4"},
    {0, "sharded/hw"},
};

// Balanced-router batch + light ring supersteps: the mixed load the
// backend's resume loop sees in real protocols — one heavy delivery and a
// string of rendezvous-bound collectives.
void routing_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::uint64_t acc = 0;

  SplitMix64 rng(ctx.id() * 7919 + 13);
  std::vector<RoutedMessage> msgs;
  msgs.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    NodeId dst;
    do {
      dst = static_cast<NodeId>(rng.next_below(n));
    } while (n > 1 && dst == ctx.id());
    msgs.push_back({dst, Word(i % 2, 1)});
  }
  for (const auto& [src, w] : route_balanced(ctx, msgs)) acc += src + w.value;

  for (int r = 0; r < 4; ++r) {
    std::vector<std::pair<NodeId, Word>> sends;
    if (n > 1) sends.emplace_back((ctx.id() + 1) % n, Word(r % 2, 1));
    const FlatInbox in = ctx.round_flat(sends);
    for (NodeId v = 0; v < n; ++v) acc += in.from(v).size();
  }
  ctx.output(acc);
}

// The 3-D MM's subcube collectives over a seeded Boolean instance; output
// is a fingerprint of row v of C, so any delivery divergence is visible.
void mm_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  SplitMix64 rng(ctx.id() * 6151 + 29);
  std::vector<std::uint8_t> row_a(n), row_b(n);
  for (NodeId j = 0; j < n; ++j) {
    row_a[j] = rng.next_below(4) == 0 ? 1 : 0;
    row_b[j] = rng.next_below(4) == 0 ? 1 : 0;
  }
  const auto row_c = mm_distributed_3d<BoolSemiring>(ctx, row_a, row_b, 1);
  std::uint64_t fp = 0xcbf29ce484222325ull;
  for (NodeId j = 0; j < n; ++j) fp = (fp ^ row_c[j]) * 0x100000001b3ull;
  ctx.output(fp);
}

Sample run_setup(NodeId n, const NodeProgram& program, const Setup& s,
                 int trials) {
  Engine::Config cfg;
  cfg.workers = std::min<std::size_t>(s.shards, n);
  Sample out;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    auto res = Engine::run(gen::empty(n), program, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t == 0 || ms < out.millis) out.millis = ms;
    out.result = std::move(res);
  }
  return out;
}

bool same_metered(const RunResult& a, const RunResult& b) {
  return a.outputs == b.outputs && a.cost.rounds == b.cost.rounds &&
         a.cost.messages == b.cost.messages && a.cost.bits == b.cost.bits &&
         a.cost.collectives == b.cost.collectives &&
         a.cost.max_node_sent == b.cost.max_node_sent &&
         a.cost.max_node_received == b.cost.max_node_received;
}

void record(NodeId n, const char* load, const Setup& s, const Sample& smp) {
  g_json.add({{"n", n},
              {"load", load},
              {"backend", "sharded"},
              {"shards", std::uint64_t{s.shards}},
              {"wall_ms", smp.millis},
              {"rounds", smp.result.cost.rounds},
              {"messages", smp.result.cost.messages},
              {"bits", smp.result.cost.bits}});
}

// Runs `program` at each n under every setup, prints the scaling table,
// returns {sharded/1 ms, sharded/hw ms} of the largest n for the check gate.
std::pair<double, double> sweep(const char* load, const NodeProgram& program,
                                const std::vector<NodeId>& sizes,
                                int trials) {
  std::printf(
      "\n%s load (best of %d): sharded fiber scheduler across shard\n"
      "counts. Meters must be byte-identical; only wall-clock may differ:\n",
      load, trials);
  std::vector<std::string> header = {"n"};
  for (const Setup& s : kSetups) header.emplace_back(std::string(s.name) + " ms");
  header.emplace_back("counts equal");
  Table t(header);
  std::pair<double, double> gate{0, 0};
  for (NodeId n : sizes) {
    std::vector<std::string> cells = {std::to_string(n)};
    Sample ref;
    for (const Setup& s : kSetups) {
      const Sample smp = run_setup(n, program, s, trials);
      if (&s == &kSetups[0]) {
        ref = smp;
        gate.first = smp.millis;
      } else if (!same_metered(ref.result, smp.result)) {
        std::printf("FATAL: %s meters diverge from %s at n=%u\n", s.name,
                    kSetups[0].name, n);
        std::exit(1);
      }
      if (s.shards == 0) gate.second = smp.millis;
      record(n, load, s, smp);
      cells.push_back(Table::fmt(smp.millis, 1));
    }
    cells.emplace_back("yes");
    t.add_row(cells);
  }
  t.print();
  return gate;
}

int run_bench(std::vector<NodeId> sizes, bool check,
              benchjson::TraceSession& trace_session) {
  // More trials in check mode: the gate compares two near-equal code paths,
  // so best-of-k needs a few extra draws to shed shared-runner jitter.
  const int trials = check ? 5 : 2;

  // The MM load is capped at n = 1024 (the 3-D algorithm's subcube
  // collectives are delivery-dense; larger sizes belong to bench_mm).
  std::vector<NodeId> mm_sizes;
  for (NodeId n : sizes) {
    const NodeId m = std::min<NodeId>(n, 1024);
    if (mm_sizes.empty() || mm_sizes.back() != m) mm_sizes.push_back(m);
  }

  const auto routing_gate =
      sweep("routing", NodeProgram(routing_program), sizes, trials);
  const auto mm_gate = sweep("3-D MM", NodeProgram(mm_program), mm_sizes,
                             trials);

  if (!trace_session.finish(&g_json)) return 1;
  if (g_json.write("BENCH_sharding.json")) {
    std::printf("\nwrote BENCH_sharding.json\n");
  }

  if (check) {
    bool ok = true;
    if (routing_gate.second > routing_gate.first * kCheckTolerance) {
      std::printf("CHECK FAILED: sharded/hw routing %.1f ms vs sharded/1 "
                  "%.1f ms (> %.0f%% tolerance)\n",
                  routing_gate.second, routing_gate.first,
                  (kCheckTolerance - 1) * 100);
      ok = false;
    }
    if (mm_gate.second > mm_gate.first * kCheckTolerance) {
      std::printf("CHECK FAILED: sharded/hw MM %.1f ms vs sharded/1 %.1f ms "
                  "(> %.0f%% tolerance)\n",
                  mm_gate.second, mm_gate.first, (kCheckTolerance - 1) * 100);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("CHECK OK: sharded/hw within %.0f%% of sharded/1 on both "
                "loads\n",
                (kCheckTolerance - 1) * 100);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::TraceSession trace_session(&argc, argv);
  std::vector<NodeId> sizes = {1024, 4096, 8192};
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      sizes = {static_cast<NodeId>(
          benchjson::parse_uint(argv[0], "--n", argv[i] + 4, 1, 8192))};
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--n=N] [--check] [--trace=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  std::printf("Sharded backend scaling (owner-computes, DESIGN.md §7)\n");
  return run_bench(std::move(sizes), check, trace_session);
}
