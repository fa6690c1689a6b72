#include "harness/sweep.hpp"

#include <chrono>
#include <sstream>

#include "algebra/distributed_mm.hpp"
#include "clique/chaos.hpp"
#include "clique/engine.hpp"
#include "clique/routing.hpp"
#include "clique/trace.hpp"
#include "util/rng.hpp"

namespace ccq::harness {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv_fold(std::uint64_t fp, std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i) {
    fp = (fp ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return fp;
}

// ---- registered node programs -------------------------------------------
//
// Each program reads only the cell's instance (adjacency row + id) so a
// cell is a pure function of its CellSpec. Outputs are per-node
// fingerprints: any delivery or compute divergence is visible in output_fp.

// One payload word per incident edge, delivered link-direct. Payloads are
// single bits, so the program is insensitive to chaos bit-flips' *framing*
// (a flipped payload changes outputs, never the collective structure).
void routing_direct_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::vector<RoutedMessage> msgs;
  const BitVector& adj = ctx.adj_row();
  for (NodeId v = 0; v < n; ++v)
    if (adj.get(v)) msgs.push_back({v, Word((ctx.id() + v) & 1, 1)});
  std::uint64_t fp = kFnvOffset;
  for (const auto& [src, w] : route_direct(ctx, msgs))
    fp = fnv_fold(fp, (std::uint64_t{src} << 8) | w.value);
  ctx.output(fp);
}

// The same per-edge load through the two-phase balanced router (relay
// headers + salted stripes — the Lenzen-regime collective).
void routing_balanced_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::vector<RoutedMessage> msgs;
  const BitVector& adj = ctx.adj_row();
  for (NodeId v = 0; v < n; ++v)
    if (adj.get(v)) msgs.push_back({v, Word((ctx.id() + v) & 1, 1)});
  std::uint64_t fp = kFnvOffset;
  for (const auto& [src, w] : route_balanced(ctx, msgs))
    fp = fnv_fold(fp, (std::uint64_t{src} << 8) | w.value);
  ctx.output(fp);
}

// Learn-everything primitive: every node broadcasts its adjacency row
// (⌈n/B⌉ rounds) and fingerprints the full graph it received.
void broadcast_adj_program(NodeCtx& ctx) {
  std::uint64_t fp = kFnvOffset;
  for (const BitVector& row : ctx.broadcast(ctx.adj_row()))
    for (std::uint64_t w : row.words()) fp = fnv_fold(fp, w);
  ctx.output(fp);
}

// Boolean A² of the adjacency matrix via the 3-D semiring schedule
// (§7 / Censor-Hillel et al.); node v ends with row v of A².
void mm_bool_3d_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  const BitVector& adj = ctx.adj_row();
  std::vector<std::uint8_t> row(n);
  for (NodeId j = 0; j < n; ++j) row[j] = adj.get(j) ? 1 : 0;
  const auto row_c = mm_distributed_3d<BoolSemiring>(ctx, row, row, 1);
  std::uint64_t fp = kFnvOffset;
  for (NodeId j = 0; j < n; ++j) fp = fnv_fold(fp, row_c[j]);
  ctx.output(fp);
}

// Triangle count through v: |{ j : (A²)[v][j] ∧ A[v][j] }| — the MM-based
// detector pattern, output-sensitive to the family's clustering.
void triangle_mm_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  const BitVector& adj = ctx.adj_row();
  std::vector<std::uint8_t> row(n);
  for (NodeId j = 0; j < n; ++j) row[j] = adj.get(j) ? 1 : 0;
  const auto row_c = mm_distributed_3d<BoolSemiring>(ctx, row, row, 1);
  std::uint64_t count = 0;
  for (NodeId j = 0; j < n; ++j)
    if (row_c[j] != 0 && adj.get(j)) ++count;
  ctx.output(count);
}

struct Algo {
  const char* name;
  void (*fn)(NodeCtx&);
};

constexpr Algo kAlgos[] = {
    {"routing_direct", routing_direct_program},
    {"routing_balanced", routing_balanced_program},
    {"broadcast_adj", broadcast_adj_program},
    {"mm_bool_3d", mm_bool_3d_program},
    {"triangle_mm", triangle_mm_program},
};

}  // namespace

NodeProgram find_algorithm(const std::string& name) {
  for (const Algo& a : kAlgos)
    if (name == a.name) return NodeProgram(a.fn);
  std::ostringstream os;
  os << "unknown sweep algorithm '" << name << "'";
  throw ModelViolation(os.str());
}

bool meters_equal(const CostMeter& a, const CostMeter& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.bits == b.bits && a.collectives == b.collectives &&
         a.max_node_sent == b.max_node_sent &&
         a.max_node_received == b.max_node_received;
}

std::uint64_t outputs_fp(const std::vector<std::uint64_t>& outputs) {
  std::uint64_t fp = kFnvOffset;
  for (std::uint64_t v : outputs) fp = fnv_fold(fp, v);
  return fp;
}

std::uint64_t ledger_fingerprint(const RoundTrace& trace) {
  std::uint64_t fp = kFnvOffset;
  auto fold_str = [&](const std::string& s) {
    for (unsigned char c : s) fp = (fp ^ c) * kFnvPrime;
    fp = (fp ^ 0xff) * kFnvPrime;  // terminator: "ab","c" != "a","bc"
  };
  for (const TraceRecord& r : trace.records()) {
    fold_str(r.op);
    fold_str(r.phase);
    fp = fnv_fold(fp, r.run);
    fp = fnv_fold(fp, r.collective);
    fp = fnv_fold(fp, r.round_begin);
    fp = fnv_fold(fp, r.rounds);
    fp = fnv_fold(fp, r.messages);
    fp = fnv_fold(fp, r.bits);
    fp = fnv_fold(fp, r.max_sent);
    fp = fnv_fold(fp, r.max_received);
    for (std::uint32_t b : r.sent_hist.bucket) fp = fnv_fold(fp, b);
    for (std::uint32_t b : r.received_hist.bucket) fp = fnv_fold(fp, b);
  }
  return fp;
}

Engine::Config cell_engine_config(const CellSpec& spec) {
  Engine::Config cfg;
  cfg.backend = spec.backend;
  cfg.workers = std::min<std::size_t>(spec.workers, spec.n);
  cfg.bandwidth_multiplier = spec.bandwidth;
  cfg.seed = mix64(spec.seed ^ 0x5ce9a11ceull);
  return cfg;
}

ChaosPlan::Config cell_chaos_config(const CellSpec& spec) {
  ChaosPlan::Config ch;
  ch.seed = mix64(spec.seed ^ 0xc4a05ull);
  ch.p_flip = spec.chaos_flip;
  ch.p_drop = spec.chaos_drop;
  ch.p_dup = spec.chaos_dup;
  return ch;
}

const std::vector<std::string>& algorithm_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Algo& a : kAlgos) v.emplace_back(a.name);
    return v;
  }();
  return names;
}

CellResult run_cell(const CellSpec& spec, int trials) {
  CCQ_CHECK_MSG(trials >= 1, "run_cell requires trials >= 1");
  CellResult out;
  out.spec = spec;

  const Graph g = corpus::make_family(spec.family, spec.n);
  const NodeProgram program = find_algorithm(spec.algorithm);
  Engine::Config cfg = cell_engine_config(spec);

  bool have_ref = false;
  std::vector<std::uint64_t> ref_outputs;
  for (int t = 0; t < trials; ++t) {
    RoundTrace trace;
    cfg.trace = &trace;
    ChaosPlan plan(cell_chaos_config(spec));
    cfg.chaos = spec.chaos ? &plan : nullptr;

    RunResult res;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      res = Engine::run(g, program, cfg);
    } catch (const std::exception& e) {
      out.ok = false;
      out.fail_reason = std::string("engine run failed: ") + e.what();
      return out;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t == 0 || ms < out.wall_ms) out.wall_ms = ms;

    // Per-cell ledger cross-check: the trace's per-record sums must
    // reproduce its own metered totals, and those totals must be exactly
    // the run's CostMeter — the meter and the ledger are two independent
    // accountings of the same collectives.
    if (!trace.totals_match()) {
      out.ok = false;
      out.fail_reason = "trace ledger does not sum to its metered totals";
      return out;
    }
    if (!meters_equal(trace.metered_totals(), res.cost)) {
      out.ok = false;
      out.fail_reason = "trace metered totals diverge from the run's meter";
      return out;
    }

    if (!have_ref) {
      have_ref = true;
      ref_outputs = res.outputs;
      out.cost = res.cost;
      out.output_fp = outputs_fp(res.outputs);
      out.faults = plan.total_faults();
    } else {
      if (res.outputs != ref_outputs || !meters_equal(res.cost, out.cost)) {
        out.ok = false;
        out.fail_reason = "trials disagree (nondeterministic cell)";
        return out;
      }
      if (plan.total_faults() != out.faults) {
        out.ok = false;
        out.fail_reason = "fault schedule not reproducible across trials";
        return out;
      }
    }
  }
  out.ok = true;
  return out;
}

std::string check_worker_determinism(const CellSpec& spec) {
  CellSpec alt = spec;
  // Pick a genuinely different worker/shard count (clamped to n inside
  // cell_config); determinism across team sizes is the engine contract
  // every backend pins.
  alt.workers = spec.workers == 3 ? 2 : 3;
  const CellResult a = run_cell(spec, 1);
  const CellResult b = run_cell(alt, 1);
  if (!a.ok) return "base cell failed: " + a.fail_reason;
  if (!b.ok) return "alt-workers cell failed: " + b.fail_reason;
  if (a.output_fp != b.output_fp)
    return "outputs differ across worker counts";
  if (!meters_equal(a.cost, b.cost))
    return "meters differ across worker counts";
  if (a.faults != b.faults)
    return "fault counts differ across worker counts";
  return "";
}

}  // namespace ccq::harness
