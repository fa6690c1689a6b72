// Message-plane micro-benchmark: allocation-bound exchange loads.
//
// The workload is many supersteps of skewed all-to-all exchange through
// the arena plane (DESIGN.md "Message plane"), once through the
// queue-shaped exchange() adapter (rows "flat") and once through the
// span-shaped exchange_flat() fast path (rows "flat_span"). Cost meters
// must be byte-identical between the two APIs; only wall-clock may differ.
//
// Usage: bench_exchange [--n=N] [--check] [--trace=PATH]
//   --n=N     run a single clique size instead of the 128/256/512 sweep
//   --check   CI smoke mode: exit non-zero if enabled tracing costs more
//             than 50% on top of delivery
//   --trace=PATH  record a round trace (see clique/trace.hpp) of every
//             run into PATH (chrome://tracing) + PATH's .jsonl sibling
//
// Writes BENCH_exchange.json ({n, backend, plane, wall_ms, rounds,
// messages, bits} per row; "plane" names the API, flat or flat_span) into
// the current directory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_json.hpp"
#include "clique/engine.hpp"
#include "graph/generators.hpp"
#include "util/table.hpp"

using namespace ccq;

namespace {

constexpr int kSupersteps = 16;

struct Sample {
  double millis = 0;
  RunResult result;
};

// Skewed all-to-all through the queue-shaped exchange() API: per superstep
// each node sends (id + dst + r) % 4 one-bit words to every destination.
void exchange_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::uint64_t acc = 0;
  WordQueues out(n);
  for (int r = 0; r < kSupersteps; ++r) {
    for (NodeId v = 0; v < n; ++v) {
      out[v].clear();
      const NodeId reps = (ctx.id() + v + r) % 4;
      for (NodeId i = 0; i < reps; ++i) out[v].emplace_back((i + r) % 2, 1);
    }
    const WordQueues in = ctx.exchange(out);
    for (NodeId v = 0; v < n; ++v) acc += in[v].size();
  }
  ctx.output(acc);
}

// The same traffic through the span-shaped fast path (exchange_flat):
// measures what a caller gains by skipping the queue adapter.
void exchange_flat_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::uint64_t acc = 0;
  std::vector<std::pair<NodeId, Word>> sends;
  for (int r = 0; r < kSupersteps; ++r) {
    sends.clear();
    for (NodeId v = 0; v < n; ++v) {
      const NodeId reps = (ctx.id() + v + r) % 4;
      for (NodeId i = 0; i < reps; ++i) sends.emplace_back(v, Word((i + r) % 2, 1));
    }
    const FlatInbox in = ctx.exchange_flat(sends);
    for (NodeId v = 0; v < n; ++v) acc += in.from(v).size();
  }
  ctx.output(acc);
}

Sample run_config(NodeId n, bool flat_api, int trials) {
  const NodeProgram program =
      flat_api ? NodeProgram(exchange_flat_program)
               : NodeProgram(exchange_program);
  Sample s;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    auto res = Engine::run(gen::empty(n), program);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t == 0 || ms < s.millis) s.millis = ms;
    s.result = std::move(res);
  }
  return s;
}

// The tracing overhead gate. The "flat" rows above are the
// compiled-in-but-disabled numbers the acceptance baseline diffs against —
// a disabled trace costs one pointer test per collective, so those rows
// must not move between PRs. Here we additionally measure the *enabled*
// cost (per-collective O(n) delta scans + record append) so a future
// change cannot silently make --trace unusable on big sweeps. Each trial
// records into a throwaway local trace (Config::trace overrides the
// session's global one, keeping the gate out of the user's timeline).
Sample run_traced(NodeId n, int trials) {
  Sample s;
  for (int t = 0; t < trials; ++t) {
    RoundTrace tr;
    Engine::Config cfg;
    cfg.trace = &tr;
    const auto t0 = std::chrono::steady_clock::now();
    auto res = Engine::run(gen::empty(n), NodeProgram(exchange_program), cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t == 0 || ms < s.millis) s.millis = ms;
    s.result = std::move(res);
    if (!tr.totals_match()) {
      std::printf("FATAL: trace records do not sum to metered totals\n");
      std::exit(1);
    }
  }
  return s;
}

bool same_meters(const RunResult& a, const RunResult& b) {
  return a.outputs == b.outputs && a.cost.rounds == b.cost.rounds &&
         a.cost.messages == b.cost.messages && a.cost.bits == b.cost.bits &&
         a.cost.collectives == b.cost.collectives &&
         a.cost.max_node_sent == b.cost.max_node_sent &&
         a.cost.max_node_received == b.cost.max_node_received;
}

void add_record(benchjson::Writer& json, NodeId n, const char* plane,
                const Sample& s) {
  json.add({{"n", n},
            {"backend", "sharded"},
            {"plane", plane},
            {"wall_ms", s.millis},
            {"rounds", s.result.cost.rounds},
            {"messages", s.result.cost.messages},
            {"bits", s.result.cost.bits}});
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::TraceSession trace_session(&argc, argv);
  NodeId only_n = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      only_n = static_cast<NodeId>(
          benchjson::parse_uint(argv[0], "--n", argv[i] + 4, 1, 8192));
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--n=N] [--check] [--trace=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  const int trials = check ? 5 : 3;

  std::printf("Message plane (allocation-bound load: %d skewed all-to-all\n"
              "exchange supersteps, best of %d trials, sharded backend):\n\n",
              kSupersteps, trials);

  std::vector<NodeId> sizes = {128, 256, 512};
  if (only_n != 0) sizes = {only_n};

  benchjson::Writer json;
  Table t({"n", "exchange() ms", "exchange_flat() ms", "speedup",
           "counts equal"});
  for (NodeId n : sizes) {
    const auto flat = run_config(n, false, trials);
    const auto flat_api = run_config(n, true, trials);
    if (!same_meters(flat.result, flat_api.result)) {
      std::printf("FATAL: exchange APIs disagree on metered cost at n=%u\n",
                  n);
      return 1;
    }
    add_record(json, n, "flat", flat);
    add_record(json, n, "flat_span", flat_api);
    t.add_row({std::to_string(n), Table::fmt(flat.millis, 1),
               Table::fmt(flat_api.millis, 1),
               Table::fmt(flat.millis / flat_api.millis, 1), "yes"});
  }
  t.print();

  std::printf(
      "\nTracing overhead (exchange(); \"off\" is the disabled-trace path —\n"
      "one pointer test per collective — \"on\" attaches a RoundTrace and\n"
      "pays the per-collective O(n) record scan):\n");
  Table to({"n", "trace off ms", "trace on ms", "overhead", "counts equal"});
  bool trace_gate_failed = false;
  for (NodeId n : sizes) {
    const auto off = run_config(n, false, trials);
    const auto on = run_traced(n, trials);
    if (!same_meters(off.result, on.result)) {
      std::printf("FATAL: tracing changed the metered cost at n=%u\n", n);
      return 1;
    }
    json.add({{"n", n},
              {"backend", "sharded"},
              {"plane", "flat"},
              {"trace", "on"},
              {"wall_ms", on.millis},
              {"rounds", on.result.cost.rounds},
              {"messages", on.result.cost.messages},
              {"bits", on.result.cost.bits}});
    to.add_row({std::to_string(n), Table::fmt(off.millis, 1),
                Table::fmt(on.millis, 1),
                Table::fmt(on.millis / off.millis, 2), "yes"});
    // Enabled tracing must stay cheap relative to delivery itself; 1.5x is
    // far above the measured ~1.0-1.1x but catches an accidental O(n²)
    // scan or per-word work sneaking into the record path.
    if (check && on.millis > 1.5 * off.millis) trace_gate_failed = true;
  }
  to.print();

  if (!trace_session.finish(&json)) return 1;

  if (json.write("BENCH_exchange.json")) {
    std::printf("\nwrote BENCH_exchange.json\n");
  }

  if (check) {
    if (trace_gate_failed) {
      std::printf("CHECK FAILED: enabled tracing costs >50%% on top of "
                  "delivery\n");
      return 1;
    }
    std::printf("CHECK OK: tracing overhead in bounds\n");
  }
  return 0;
}
