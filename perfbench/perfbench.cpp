// perfbench — the program behind the repository benchmark (BENCHMARK.json).
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--scratch DIR] [--spans PATH]
//
//   route-4096  one route_balanced batch per run at n = 4096 on a warm
//               EngineSession (sharded backend, a shard per pool thread)
//   apsp-512    apsp_clique on a seeded weighted G(512, 0.3), w ∈ [1, 1000];
//               every call is a cold Engine::run
//   ccqd-4c     in-process ccqd Server (4 executors, warm cache) driven by 4
//               closed-loop clients submitting a fixed four-cell mix
//   ccqd-1c     the same server and mix with one client (runnable by name,
//               not in BENCHMARK.json: see README.md)
//
// --smoke shrinks every workload to seconds (route n = 256, apsp n = 64,
// 50 ccqd jobs) and runs the same output checks. --scratch names the
// directory for the ccqd socket (default "."); --spans writes the traced
// run's spans as JSONL.
//
// Inputs are a pure function of --seed. Every output is checked against a
// reference computed independently of the measured path; a failed check
// counts the operation as failed, sets "correct": false and makes the
// process exit 1. The last stdout line is one JSON object {"correct",
// "attempted", "failed", "metrics"}: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1 (README.md in this directory maps each
// layer metric to the end-to-end metric it should move).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algebra/kernels.hpp"
#include "algebra/matrix.hpp"
#include "algebra/mm.hpp"
#include "algebra/simd.hpp"
#include "clique/engine.hpp"
#include "clique/routing.hpp"
#include "clique/trace.hpp"
#include "graph/corpus.hpp"
#include "graph/generators.hpp"
#include "graphalg/apsp.hpp"
#include "graphalg/sssp.hpp"
#include "harness/manifest.hpp"
#include "harness/sweep.hpp"
#include "ledger.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

using namespace ccq;
using perfbench::Clock;
using perfbench::ms_between;
using perfbench::SpanLog;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  std::string scratch = ".";
  std::string spans_path;
};

// ---- reporting --------------------------------------------------------------

struct Report {
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  std::vector<std::pair<std::string, std::uint64_t>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.emplace_back(name, value, unit);
  }
  void sample_count(const char* what, std::uint64_t n) {
    samples.emplace_back(what, n);
  }
  /// One operation's output check. Returns `ok` so callers can branch.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  /// A check that is not an operation (cross-run or ledger invariant).
  void require(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double elapsed_s(Clock::time_point since) {
  return ms_between(since, Clock::now()) / 1000.0;
}

struct Counts {
  std::uint64_t rounds = 0, messages = 0, bits = 0, collectives = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const CostMeter& c) {
  return {c.rounds, c.messages, c.bits, c.collectives};
}

struct TraceSums {
  double delivery_ms = 0;
  std::uint64_t fiber_switches = 0, parallel_jobs = 0, parallel_chunks = 0;
};

TraceSums sum_records(const RoundTrace& t) {
  TraceSums s;
  for (const TraceRecord& r : t.records()) {
    s.delivery_ms += r.delivery_ms;
    s.fiber_switches += r.fiber_switches;
    s.parallel_jobs += r.parallel_jobs;
    s.parallel_chunks += r.parallel_chunks;
  }
  return s;
}

/// The RoundTrace's own ledger must reproduce the run's meter.
void check_trace(Report& rep, const RoundTrace& t, const CostMeter& cost) {
  rep.require(
      t.totals_match() && harness::meters_equal(t.metered_totals(), cost),
      "trace ledger does not reproduce the run's cost meter");
}

// Per-layer values every workload reports; layers a workload leaves idle
// stay 0 (README.md lists which are idle where).
struct LayerMetrics {
  double generate_ms = 0, session_build_ms = 0, first_run_extra_ms = 0;
  double delivery_ms = 0, service_start_ms = 0, service_overhead_ms = 0;
  double service_engine_ms = 0, unattributed_ms = 0, traced_wall_ms = 0;
  double ns_per_msg = 0, trace_overhead = 0;
  Counts counts;
  double fiber_switches = 0, parallel_jobs = 0, parallel_chunks = 0;
  double mm_local_us = 0, closure_ms = 0;
  double engine_ms_p50 = 0, overhead_ms_p50 = 0, engine_share = 0;
  double latency_p99_ms = 0;
  service::Server::Stats service;  ///< over the traced window only
  std::uint64_t setup_cache_misses = 0;
};

/// Folds the span ledger into the layer metrics: every named layer's self
/// time, and the remainder (container spans' self time) as unattributed.
void apply_ledger(Report& rep, const SpanLog& log, const std::string& path,
                  LayerMetrics* m) {
  const perfbench::Ledger l = perfbench::self_times(log.spans());
  rep.require(l.problem.empty(), "span ledger: " + l.problem);
  auto self = [&](const char* name) {
    const auto it = l.self_ms.find(name);
    return it == l.self_ms.end() ? 0.0 : it->second;
  };
  m->generate_ms = self("graph.generate");
  m->session_build_ms = self("clique.session_build");
  m->delivery_ms = self("clique.delivery");
  m->service_start_ms = self("service.start");
  m->service_overhead_ms = self("service.request");
  m->service_engine_ms = self("service.engine");
  m->traced_wall_ms = l.wall_ms;
  m->unattributed_ms = l.wall_ms - m->generate_ms - m->session_build_ms -
                       m->delivery_ms - m->service_start_ms -
                       m->service_overhead_ms - m->service_engine_ms;
  if (!path.empty() && !log.write_jsonl(path))
    rep.require(false, "cannot write spans to " + path);
}

void emit_layer_metrics(Report& rep, const LayerMetrics& m) {
  rep.metric("graph.generate_ms", m.generate_ms, "ms");
  rep.metric("clique.session_build_ms", m.session_build_ms, "ms");
  rep.metric("clique.first_run_extra_ms", m.first_run_extra_ms, "ms");
  rep.metric("clique.delivery_ms", m.delivery_ms, "ms");
  rep.metric("service.start_ms", m.service_start_ms, "ms");
  rep.metric("service.overhead_ms", m.service_overhead_ms, "ms");
  rep.metric("service.engine_ms", m.service_engine_ms, "ms");
  rep.metric("clique.unattributed_ms", m.unattributed_ms, "ms");
  rep.metric("traced_wall_ms", m.traced_wall_ms, "ms");
  rep.metric("clique.ns_per_msg", m.ns_per_msg, "ns");
  rep.metric("clique.trace_overhead", m.trace_overhead, "ratio");
  rep.metric("clique.rounds", static_cast<double>(m.counts.rounds), "count");
  rep.metric("clique.messages", static_cast<double>(m.counts.messages),
             "count");
  rep.metric("clique.bits", static_cast<double>(m.counts.bits), "count");
  rep.metric("clique.collectives", static_cast<double>(m.counts.collectives),
             "count");
  rep.metric("clique.fiber_switches", m.fiber_switches, "count");
  rep.metric("clique.parallel_jobs", m.parallel_jobs, "count");
  rep.metric("clique.parallel_chunks", m.parallel_chunks, "count");
  rep.metric("algebra.mm_local_us", m.mm_local_us, "us");
  rep.metric("algebra.closure_ms", m.closure_ms, "ms");
  rep.metric("service.engine_ms_p50", m.engine_ms_p50, "ms");
  rep.metric("service.overhead_ms_p50", m.overhead_ms_p50, "ms");
  rep.metric("service.engine_share", m.engine_share, "ratio");
  rep.metric("service.latency_p99_ms", m.latency_p99_ms, "ms");
  const service::CacheStats& c = m.service.cache;
  rep.metric("service.cache_hits", static_cast<double>(c.hits), "count");
  rep.metric("service.cache_misses", static_cast<double>(c.misses), "count");
  rep.metric("service.instance_hits", static_cast<double>(c.instance_hits),
             "count");
  rep.metric("service.instance_misses",
             static_cast<double>(c.instance_misses), "count");
  rep.metric("service.evictions", static_cast<double>(c.evictions), "count");
  rep.metric("service.setup_cache_misses",
             static_cast<double>(m.setup_cache_misses), "count");
  rep.metric("service.rejected", static_cast<double>(m.service.jobs_rejected),
             "count");
  rep.metric("service.failed", static_cast<double>(m.service.jobs_failed),
             "count");
  rep.metric("service.protocol_errors",
             static_cast<double>(m.service.protocol_errors), "count");
}

void emit_end_to_end(Report& rep, const std::vector<double>& run_ms,
                     const std::vector<double>& setup_s,
                     const std::vector<double>& job_ms, double jobs_per_s,
                     double rss_mib) {
  rep.metric("run_s", median(run_ms) / 1000.0, "s");
  rep.metric("setup_s", median(setup_s), "s");
  rep.metric("jobs_per_s", jobs_per_s, "1/s");
  rep.metric("job_p50_ms", median(job_ms), "ms");
  rep.metric("peak_rss_mib", rss_mib, "MiB");
  rep.sample_count("run_s", run_ms.size());
  rep.sample_count("setup_s", setup_s.size());
  rep.sample_count("jobs", job_ms.size());
}

/// route-4096 and apsp-512: a job is one run, so job_p50_ms is run_s in
/// ms and jobs_per_s its inverse.
void emit_runs(Report& rep, const std::vector<double>& run_ms,
               const std::vector<double>& setup_s) {
  emit_end_to_end(rep, run_ms, setup_s, run_ms, 1000.0 / median(run_ms),
                  peak_rss_mib());
}

// Repetitions of set-up per untraced run; setup_s reports their median.
// Cheap set-ups repeat more, so that their median is steady too.
constexpr int kRouteSetupReps = 5;   // ~3 s each at n = 4096
constexpr int kApspSetupReps = 3;    // ~2 ms each, after every run
constexpr int kCcqdSetupReps = 31;   // 15-50 ms each
// Traced runs per traced process: a fixed count, so that the ledger's
// totals compare across runs of the benchmark.
constexpr int kTracedRuns = 3;

// ---- algebra layer probes (every workload, traced run only) -----------------

using MinPlusMatrix = Matrix<MinPlusSemiring::Value>;

// Keeps the probed kernels' results observable.
volatile std::uint64_t g_sink = 0;

MinPlusMatrix weight_matrix(const Graph& g) {
  const std::size_t n = g.n();
  MinPlusMatrix w(n, n, MinPlusSemiring::infinity());
  for (std::size_t v = 0; v < n; ++v) w.at(v, v) = 0;
  for (const Edge& e : g.edges()) {
    w.at(e.u, e.v) = e.w;
    w.at(e.v, e.u) = e.w;
  }
  return w;
}

Graph apsp_graph(NodeId n, std::uint64_t seed) {
  return gen::gnp_weighted(n, 0.3, 1000, mix64(seed ^ 0xa5b5u));
}

/// mm_local<MinPlus> at the 3-D block shape of apsp at size n, and the
/// centralized closure of the same weight matrix (medians).
void probe_algebra(const MinPlusMatrix& w, LayerMetrics* m) {
  const std::size_t n = w.rows();
  const std::size_t d = std::max<std::uint64_t>(1, floor_root(n, 3));
  const std::size_t q = ceil_div(n, d);
  MinPlusMatrix a(q, q), b(q, q);
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t j = 0; j < q; ++j) {
      a.at(i, j) = w.at(i, j);
      b.at(i, j) = w.at(std::min(n - 1, q + i), j);
    }
  std::vector<double> us;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 201; ++rep) {
    const auto t0 = Clock::now();
    const MinPlusMatrix c = kernels::mm_local<MinPlusSemiring>(a, b);
    us.push_back(1000.0 * ms_between(t0, Clock::now()));
    sink += c.at(rep % q, 0);
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const MinPlusMatrix c = semiring_closure<MinPlusSemiring>(w);
    ms.push_back(ms_between(t0, Clock::now()));
    sink += c.at(0, n - 1);
  }
  g_sink = sink;
  m->mm_local_us = median(us);
  m->closure_ms = median(ms);
}

// ---- the run loop shared by route-4096 and apsp-512 -------------------------

/// One timed operation: its wall time, meter and outputs.
struct OpRun {
  double ms = 0;
  CostMeter cost;
  std::vector<std::uint64_t> out;
};
/// Runs the workload's operation once, with `trace` attached when not null.
using TimedOp = std::function<OpRun(RoundTrace* trace)>;

/// Checks outputs against the reference, and rounds, messages and bits
/// against the first run's.
class RunChecker {
 public:
  RunChecker(Report& rep, const char* what) : rep_(rep), what_(what) {}
  void expect(std::vector<std::uint64_t> out) { expect_ = std::move(out); }
  void operator()(const OpRun& r) {
    const Counts c = counts_of(r.cost);
    if (!first_) first_ = c;
    rep_.check(r.out == expect_ && c == *first_,
               std::string(what_) + ": outputs differ from the reference "
                                    "or counts moved between runs");
  }
  const Counts& counts() const { return *first_; }

 private:
  Report& rep_;
  const char* what_;
  std::vector<std::uint64_t> expect_;
  std::optional<Counts> first_;
};

/// Untraced runs until `seconds` have passed (at least one); wall times.
/// `between`, when set, is called after every run.
std::vector<double> run_for(double seconds, const TimedOp& op,
                            RunChecker& check,
                            const std::function<void()>& between = {}) {
  std::vector<double> ms;
  const auto start = Clock::now();
  do {
    const OpRun r = op(nullptr);
    ms.push_back(r.ms);
    check(r);
    if (between) between();
  } while (elapsed_s(start) < seconds);
  return ms;
}

/// The traced run after set-up: untraced runs for half of --seconds (the
/// denominators of ns_per_msg and trace_overhead), then kTracedRuns traced
/// runs, each a `span` with its delivery time as a measured child; then the
/// ledger and the per-run layer metrics. Returns the traced runs' median.
double traced_runs(Report& rep, const Options& opt, SpanLog& log,
                   const char* span, const TimedOp& op, RunChecker& check,
                   LayerMetrics* m) {
  const std::vector<double> plain_ms = run_for(opt.seconds / 2, op, check);
  std::vector<double> traced_ms;
  TraceSums sums;
  const int runs = log.open("bench.runs");
  for (int i = 0; i < kTracedRuns; ++i) {
    RoundTrace trace;
    const int s = log.open(span, runs);
    const OpRun r = op(&trace);
    log.close(s);
    const TraceSums t = sum_records(trace);
    log.add_measured("clique.delivery", s, t.delivery_ms);
    sums.fiber_switches += t.fiber_switches;
    sums.parallel_jobs += t.parallel_jobs;
    sums.parallel_chunks += t.parallel_chunks;
    traced_ms.push_back(r.ms);
    check(r);
    check_trace(rep, trace, r.cost);
  }
  log.close(runs);

  apply_ledger(rep, log, opt.spans_path, m);
  m->counts = check.counts();
  m->ns_per_msg = median(plain_ms) * 1e6 /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, m->counts.messages));
  m->trace_overhead = median(traced_ms) / median(plain_ms);
  m->fiber_switches = static_cast<double>(sums.fiber_switches) / kTracedRuns;
  m->parallel_jobs = static_cast<double>(sums.parallel_jobs) / kTracedRuns;
  m->parallel_chunks = static_cast<double>(sums.parallel_chunks) / kTracedRuns;
  rep.sample_count("untraced_runs", plain_ms.size());
  rep.sample_count("traced_runs", traced_ms.size());
  return median(traced_ms);
}

// ---- route-4096 -------------------------------------------------------------

using RouteSends = std::vector<std::vector<RoutedMessage>>;  // per source

/// Order-independent digest term: route_balanced reports several messages
/// from one source in relay order, so outputs are sums of per-message terms.
std::uint64_t route_term(NodeId src, std::uint64_t payload) {
  return mix64((static_cast<std::uint64_t>(src) << 32) ^ payload);
}

/// The seeded message lists: the benchmark's own input, made before set-up.
RouteSends make_route_sends(NodeId n, std::uint64_t seed) {
  const unsigned bits = node_id_bits(n);  // B at bandwidth multiplier 1
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  RouteSends sends(n);
  for (NodeId v = 0; v < n; ++v) {
    SplitMix64 rng(mix64(seed) ^ mix64(v + 1));
    auto& out = sends[v];
    out.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
      auto dst = static_cast<NodeId>(rng.next_below(n - 1));
      if (dst >= v) ++dst;  // no self-sends
      out.push_back({dst, Word(rng.next() & mask, bits)});
    }
  }
  return sends;
}

std::vector<std::uint64_t> route_reference(const RouteSends& sends) {
  std::vector<std::uint64_t> expect(sends.size(), 0);
  for (NodeId v = 0; v < sends.size(); ++v)
    for (const RoutedMessage& m : sends[v])
      expect[m.dst] += route_term(v, m.payload.value);
  return expect;
}

void run_route(const Options& opt, Report& rep) {
  const NodeId n = opt.smoke ? 256 : 4096;
  EngineSession::Shape shape;
  shape.n = n;
  shape.backend = ExecutionBackend::kSharded;  // workers 0: a shard per
                                               // pool thread
  Engine::Config cfg;
  cfg.backend = shape.backend;

  const RouteSends sends = make_route_sends(n, opt.seed);
  Instance instance;
  std::unique_ptr<EngineSession> session;
  const NodeProgram program = [&sends](NodeCtx& ctx) {
    std::uint64_t acc = 0;
    for (const auto& [src, w] : route_balanced(ctx, sends[ctx.id()]))
      acc += route_term(src, w.value);
    ctx.output(acc);
  };
  const TimedOp op = [&](RoundTrace* trace) {
    cfg.trace = trace;
    const auto t0 = Clock::now();
    RunResult r = session->run(instance, program, cfg);
    return OpRun{ms_between(t0, Clock::now()), r.cost, std::move(r.outputs)};
  };
  RunChecker check(rep, "route");
  check.expect(route_reference(sends));

  if (!opt.trace) {
    std::vector<double> setup_s;
    for (int i = 0; i < kRouteSetupReps; ++i) {
      session.reset();
      instance = Instance{};
      const auto t0 = Clock::now();
      instance = Instance::of(gen::empty(n));
      session = std::make_unique<EngineSession>(shape);
      const OpRun warm = op(nullptr);
      setup_s.push_back(elapsed_s(t0));
      check(warm);
    }
    emit_runs(rep, run_for(opt.seconds, op, check), setup_s);
    return;
  }

  LayerMetrics m;
  SpanLog log(Clock::now());
  const int setup = log.open("bench.setup");
  int s = log.open("graph.generate", setup);
  instance = Instance::of(gen::empty(n));
  log.close(s);
  s = log.open("clique.session_build", setup);
  session = std::make_unique<EngineSession>(shape);
  log.close(s);
  RoundTrace first_trace;
  s = log.open("clique.session_run", setup);
  const OpRun first = op(&first_trace);
  log.close(s);
  log.add_measured("clique.delivery", s, sum_records(first_trace).delivery_ms);
  log.close(setup);
  check(first);
  check_trace(rep, first_trace, first.cost);

  const double steady_ms =
      traced_runs(rep, opt, log, "clique.session_run", op, check, &m);
  m.first_run_extra_ms = first.ms - steady_ms;
  session.reset();
  probe_algebra(weight_matrix(apsp_graph(opt.smoke ? 64 : 512, opt.seed)), &m);
  emit_layer_metrics(rep, m);
}

// ---- apsp-512 ---------------------------------------------------------------

std::vector<std::uint64_t> apsp_reference(const Graph& g) {
  const MinPlusMatrix closure =
      semiring_closure<MinPlusSemiring>(weight_matrix(g));
  std::vector<std::uint64_t> expect(closure.data());
  for (std::uint64_t& d : expect)
    if (d >= MinPlusSemiring::infinity()) d = kUnreachable;
  return expect;
}

void run_apsp(const Options& opt, Report& rep) {
  const NodeId n = opt.smoke ? 64 : 512;
  Graph g;
  // apsp_clique builds its own Engine::Config; a global trace is how an
  // outside caller attaches a RoundTrace to that run.
  const TimedOp op = [&](RoundTrace* trace) {
    trace::set_global(trace);
    const auto t0 = Clock::now();
    ApspResult r = apsp_clique(g);
    const double ms = ms_between(t0, Clock::now());
    trace::set_global(nullptr);
    return OpRun{ms, r.cost, std::move(r.dist)};
  };
  RunChecker check(rep, "apsp");

  if (!opt.trace) {
    // Set-up is cheap, so it repeats after every run as well: its median
    // then samples the whole window rather than one instant of it.
    std::vector<double> setup_s;
    auto set_up = [&] {
      const auto t0 = Clock::now();
      g = apsp_graph(n, opt.seed);
      setup_s.push_back(elapsed_s(t0));
    };
    set_up();
    check.expect(apsp_reference(g));
    const std::vector<double> run_ms = run_for(opt.seconds, op, check, [&] {
      for (int i = 0; i < kApspSetupReps; ++i) set_up();
    });
    emit_runs(rep, run_ms, setup_s);
    return;
  }

  LayerMetrics m;
  SpanLog log(Clock::now());
  const int setup = log.open("bench.setup");
  const int s = log.open("graph.generate", setup);
  g = apsp_graph(n, opt.seed);
  log.close(s);
  log.close(setup);
  check.expect(apsp_reference(g));

  // Every call is a cold Engine::run, so a first call's extra is the
  // process's own first-touch cost (pool threads, page faults). It is
  // traced, as the runs it is compared with are.
  RoundTrace first_trace;
  const OpRun first = op(&first_trace);
  check(first);
  check_trace(rep, first_trace, first.cost);
  m.first_run_extra_ms =
      first.ms - traced_runs(rep, opt, log, "graphalg.apsp_clique", op,
                             check, &m);
  probe_algebra(weight_matrix(g), &m);
  emit_layer_metrics(rep, m);
}

// ---- ccqd-4c / ccqd-1c ------------------------------------------------------

struct Cell {
  std::string request;  // the submit frame
  harness::CellSpec spec;
  std::string output_fp, ledger_fp;
  Counts counts;
};

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The four-cell mix. Cell seeds derive from the benchmark seed; the
/// reference is the library path: harness::run_cell for outputs and
/// meters, plus a traced Engine::run for the ledger fingerprint.
std::vector<Cell> make_cells(std::uint64_t seed, Report& rep) {
  const char* bodies[] = {
      "\"algorithm\": \"routing_balanced\", \"family\": \"gnp\", \"p\": 0.25, "
      "\"n\": 128, \"backend\": \"pooled\"",
      "\"algorithm\": \"mm_bool_3d\", \"family\": \"gnp\", \"p\": 0.1, "
      "\"n\": 64, \"backend\": \"pooled\"",
      "\"algorithm\": \"triangle_mm\", \"family\": \"community\", \"k\": 4, "
      "\"p_in\": 0.5, \"p_out\": 0.05, \"n\": 128, \"backend\": \"pooled\"",
      "\"algorithm\": \"broadcast_adj\", \"family\": \"powerlaw\", "
      "\"exponent\": 2.5, \"avg_degree\": 8, \"n\": 128, "
      "\"backend\": \"sharded\""};
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < 4; ++i) {
    // Seeds stay below 2^53 so they survive the JSON number round trip.
    const std::uint64_t cell_seed = mix64(seed * 4 + i) >> 12;
    const std::string job = std::string("{") + bodies[i] +
                            ", \"plane\": \"flat\", \"chaos\": false, "
                            "\"seed\": " + std::to_string(cell_seed) + "}";
    Cell c;
    c.request = "{\"type\": \"submit\", \"job\": " + job + "}";
    c.spec = harness::parse_job_cell(json::parse(job, "cell"), "cell");

    const harness::CellResult ref = harness::run_cell(c.spec, 1);
    rep.require(ref.ok, "reference run_cell failed: " + ref.fail_reason);
    c.output_fp = hex16(ref.output_fp);
    c.counts = counts_of(ref.cost);

    Engine::Config cfg = harness::cell_engine_config(c.spec);
    RoundTrace trace;
    cfg.trace = &trace;
    const RunResult lib =
        Engine::run(corpus::make_family(c.spec.family, c.spec.n),
                    harness::find_algorithm(c.spec.algorithm), cfg);
    rep.require(harness::outputs_fp(lib.outputs) == ref.output_fp &&
                    counts_of(lib.cost) == c.counts,
                "library replay disagrees with run_cell");
    c.ledger_fp = hex16(harness::ledger_fingerprint(trace));
    cells.push_back(std::move(c));
  }
  return cells;
}

struct Reply {
  std::size_t cell = 0;
  Clock::time_point start, end;
  double engine_ms = 0;  ///< the result's wall_ms; 0 when not a result
  std::string failure;   ///< the reply, when it failed its check
};

struct ClientLog {
  std::vector<Reply> replies;
  std::string error;
};

/// Checks one reply against its cell's reference and records the engine
/// wall time the result reports. A reply that is not a well-formed result
/// fails the check.
void check_reply(const std::string& body, const Cell& c, Reply* r) {
  bool ok = false;
  try {
    const json::Value v = json::parse(body, "reply");
    auto field = [&](const char* k) -> const json::Value& {
      const json::Value* f = v.find(k);
      if (f == nullptr) throw std::runtime_error(std::string("no ") + k);
      return *f;
    };
    auto str = [&](const char* k) {
      return json::as_string(field(k), k, "reply");
    };
    auto num = [&](const char* k) {
      return json::as_uint(field(k), 0, ~0ull, k, "reply");
    };
    if (str("type") == "result") {
      r->engine_ms = json::as_number(field("wall_ms"), "wall_ms", "reply");
      ok = str("output_fp") == c.output_fp &&
           str("ledger_fp") == c.ledger_fp &&
           num("rounds") == c.counts.rounds &&
           num("messages") == c.counts.messages &&
           num("bits") == c.counts.bits;
    }
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) r->failure = body.empty() ? "<empty reply>" : body.substr(0, 200);
}

/// One timed request of cell k, checked after the clock stops.
Reply submit(service::Client& client, const std::vector<Cell>& cells,
             std::size_t k) {
  Reply r;
  r.cell = k % cells.size();
  r.start = Clock::now();
  const std::string body = client.request(cells[r.cell].request);
  r.end = Clock::now();
  check_reply(body, cells[r.cell], &r);
  return r;
}

/// One closed-loop client: the four cells round-robin from `first`, until
/// `stop` says so. Only a compact record of each reply is kept.
void client_loop(const std::string& path, const std::vector<Cell>& cells,
                 std::size_t first, const std::function<bool()>& stop,
                 ClientLog* log) {
  try {
    service::Client client(path);
    for (std::size_t k = first; !stop(); ++k)
      log->replies.push_back(submit(client, cells, k));
  } catch (const std::exception& e) {
    log->error = e.what();
  }
}

/// Cache priming: every client submits each cell once, all clients at the
/// same moment, so the cache builds the sessions a burst of concurrent
/// jobs of one shape needs before anything is timed. Priming one cell at a
/// time from one client would leave that to a race in the measured window,
/// and the peak session count (and memory) would differ run to run.
std::vector<ClientLog> prime(const std::string& path,
                             const std::vector<Cell>& cells, int clients) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  std::barrier sync(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      try {
        service::Client client(path);
        for (std::size_t k = 0; k < cells.size(); ++k) {
          sync.arrive_and_wait();
          log.replies.push_back(submit(client, cells, k));
        }
      } catch (const std::exception& e) {
        log.error = e.what();
        sync.arrive_and_drop();  // release the clients still priming
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

/// Counts one reply as an operation; returns its engine time.
double count_reply(const Reply& r, const std::vector<Cell>& cells,
                   Report& rep) {
  rep.check(r.failure.empty(), "ccqd reply differs from the library path "
                               "for " + cells[r.cell].spec.id() + ": " +
                                   r.failure);
  return r.engine_ms;
}

/// The server's counters between two stats() snapshots.
service::Server::Stats stats_delta(const service::Server::Stats& after,
                                   const service::Server::Stats& before) {
  service::Server::Stats d = after;
  d.connections -= before.connections;
  d.jobs_ok -= before.jobs_ok;
  d.jobs_failed -= before.jobs_failed;
  d.jobs_rejected -= before.jobs_rejected;
  d.protocol_errors -= before.protocol_errors;
  d.cache.hits -= before.cache.hits;
  d.cache.misses -= before.cache.misses;
  d.cache.evictions -= before.cache.evictions;
  d.cache.instance_hits -= before.cache.instance_hits;
  d.cache.instance_misses -= before.cache.instance_misses;
  return d;
}

std::unique_ptr<service::Server> start_server(const Options& opt,
                                              int index) {
  service::Server::Options so;
  so.unix_path = opt.scratch + "/ccqd-" + std::to_string(::getpid()) + "-" +
                 std::to_string(index) + ".sock";
  so.executors = 4;
  so.queue_capacity = 64;  // above any client count: nothing is rejected
  auto server = std::make_unique<service::Server>(so);
  server->start();
  return server;
}

void run_ccqd(const Options& opt, Report& rep, int clients) {
  const std::vector<Cell> cells = make_cells(opt.seed, rep);
  // >= 1000 jobs per measured window: the traced one has exactly this
  // many, so 10 samples lie beyond its p99.
  const std::uint64_t min_jobs = opt.smoke ? 50 : 1000;

  const auto epoch = Clock::now();
  SpanLog log(epoch);
  std::unique_ptr<service::Server> server;

  // One measured window: `clients` closed loops until both the time and
  // the job floor are reached (smoke: exactly the job floor).
  auto window = [&](double seconds, std::uint64_t jobs,
                    std::vector<ClientLog>* logs) {
    logs->assign(static_cast<std::size_t>(clients), ClientLog{});
    std::atomic<std::uint64_t> issued{0};
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    auto stop = [&] {
      const std::uint64_t k = issued.fetch_add(1);
      if (seconds > 0 && Clock::now() < deadline) return false;
      return k >= jobs;
    };
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (int c = 0; c < clients; ++c)
      threads.emplace_back(client_loop, server->options().unix_path,
                           std::cref(cells), static_cast<std::size_t>(c),
                           std::cref(stop),
                           &(*logs)[static_cast<std::size_t>(c)]);
    for (std::thread& t : threads) t.join();
    return t0;
  };

  struct Tally {
    std::vector<double> latency_ms, engine_ms, pass_ms;
    std::vector<Clock::time_point> done;  // completion times
  };
  auto tally = [&](const std::vector<ClientLog>& logs, SpanLog* spans,
                   const char* root_name) {
    Tally t;
    for (std::size_t c = 0; c < logs.size(); ++c) {
      const ClientLog& cl = logs[c];
      rep.require(cl.error.empty(), "client " + std::to_string(c) + ": " +
                                        cl.error);
      SpanLog lane(epoch, static_cast<int>(c) + 1);
      const int root =
          cl.replies.empty()
              ? -1
              : lane.add(root_name, -1, cl.replies.front().start,
                         cl.replies.back().end);
      for (std::size_t i = 0; i < cl.replies.size(); ++i) {
        const Reply& r = cl.replies[i];
        const double engine = count_reply(r, cells, rep);
        t.latency_ms.push_back(ms_between(r.start, r.end));
        t.engine_ms.push_back(engine);
        t.done.push_back(r.end);
        if (spans != nullptr) {
          const int req = lane.add("service.request", root, r.start, r.end);
          lane.add_measured("service.engine", req, engine);
        }
        // A pass: one client's four consecutive jobs, one of each cell.
        if (i % cells.size() == cells.size() - 1)
          t.pass_ms.push_back(
              ms_between(cl.replies[i + 1 - cells.size()].start, r.end));
      }
      if (spans != nullptr) spans->append(lane);
    }
    return t;
  };

  // Set-up: server start plus cache priming (the previous server, if any,
  // is drained first, untimed). Returns seconds.
  auto set_up = [&](int index) {
    if (server) server->drain();
    const auto t0 = Clock::now();
    const int setup = log.open("bench.setup");
    const int s = log.open("service.start", setup);
    server = start_server(opt, index);
    log.close(s);
    log.close(setup);
    const std::vector<ClientLog> primed =
        prime(server->options().unix_path, cells, clients);
    const double seconds = elapsed_s(t0);
    tally(primed, opt.trace ? &log : nullptr, "service.prime");
    return seconds;
  };

  if (!opt.trace) {
    std::vector<double> setup_s = {set_up(0)};
    std::vector<ClientLog> logs;
    const auto start = window(opt.smoke ? 0 : opt.seconds, min_jobs, &logs);
    Tally t = tally(logs, nullptr, "service.client");
    const service::Server::Stats st = server->stats();
    rep.require(st.jobs_rejected == 0 && st.jobs_failed == 0 &&
                    st.protocol_errors == 0,
                "server counted rejected, failed or malformed jobs");
    // Memory of one set-up plus the window; the further set-ups for the
    // setup_s median run after it, so their drained servers' heap residue
    // does not count.
    const double rss_mib = peak_rss_mib();
    for (int i = 1; i < kCcqdSetupReps; ++i) setup_s.push_back(set_up(i));
    server->drain();
    // Throughput is the median over consecutive blocks of min_jobs jobs in
    // completion order, so a burst of outside interference moves one
    // block rather than the result.
    std::sort(t.done.begin(), t.done.end());
    std::vector<double> rates;
    auto block_start = start;
    for (std::size_t b = min_jobs; b <= t.done.size(); b += min_jobs) {
      const auto block_end = t.done[b - 1];
      rates.push_back(1000.0 * static_cast<double>(min_jobs) /
                      ms_between(block_start, block_end));
      block_start = block_end;
    }
    rep.sample_count("job_blocks", rates.size());
    emit_end_to_end(rep, t.pass_ms, setup_s, t.latency_ms, median(rates),
                    rss_mib);
    return;
  }

  set_up(0);
  LayerMetrics m;
  m.setup_cache_misses = server->stats().cache.misses;
  std::vector<ClientLog> plain_logs, traced_logs;
  window(opt.smoke ? 0 : opt.seconds / 2, min_jobs, &plain_logs);
  const Tally plain = tally(plain_logs, nullptr, "service.client");
  // The traced window is a fixed job count, so its totals, the server's
  // counters included, compare across runs of the benchmark.
  const service::Server::Stats before = server->stats();
  window(0, min_jobs, &traced_logs);
  const Tally traced = tally(traced_logs, &log, "service.client");
  m.service = stats_delta(server->stats(), before);
  server->drain();

  apply_ledger(rep, log, opt.spans_path, &m);
  for (const Cell& c : cells) {
    m.counts.rounds += c.counts.rounds;
    m.counts.messages += c.counts.messages;
    m.counts.bits += c.counts.bits;
    m.counts.collectives += c.counts.collectives;
  }
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced.latency_ms.size(); ++i)
    overhead.push_back(traced.latency_ms[i] - traced.engine_ms[i]);
  m.engine_ms_p50 = median(traced.engine_ms);
  m.overhead_ms_p50 = median(overhead);
  m.engine_share = sum(traced.engine_ms) / sum(traced.latency_ms);
  // Exactly min_jobs traced jobs: 10 samples lie beyond the p99.
  m.latency_p99_ms = percentile(traced.latency_ms, 0.99);
  // Engine time per delivered message over the whole mix.
  m.ns_per_msg = sum(traced.engine_ms) * 1e6 * cells.size() /
                 (static_cast<double>(traced.engine_ms.size()) *
                  static_cast<double>(
                      std::max<std::uint64_t>(1, m.counts.messages)));
  m.trace_overhead = median(traced.latency_ms) / median(plain.latency_ms);
  probe_algebra(weight_matrix(apsp_graph(opt.smoke ? 64 : 512, opt.seed)), &m);
  emit_layer_metrics(rep, m);
  rep.sample_count("untraced_jobs", plain.latency_ms.size());
  rep.sample_count("traced_jobs", traced.latency_ms.size());
}

// ---- main -------------------------------------------------------------------

std::string env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "unset" : v;
}

void print_result(const Options& opt, const Report& rep) {
  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"smoke\": %s, \"trace\": %d, \"nproc\": %u, \"simd\": \"%s\", "
              "\"CCQ_POOL_THREADS\": \"%s\", \"CCQ_KERNEL_THREADS\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"samples\": {",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.smoke ? "true" : "false", opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(),
              simd::level_name(simd::active()),
              env_or_unset("CCQ_POOL_THREADS").c_str(),
              env_or_unset("CCQ_KERNEL_THREADS").c_str(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  for (std::size_t i = 0; i < rep.samples.size(); ++i)
    std::printf("%s\"%s\": %llu", i ? ", " : "", rep.samples[i].first.c_str(),
                static_cast<unsigned long long>(rep.samples[i].second));
  std::printf("}}}\n");
  for (const auto& [name, value, unit] : rep.metrics)
    std::printf("%-28s %16.6f %s\n", name.c_str(), value, unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& [name, value, unit] = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i ? ", " : "",
                name.c_str(), std::isfinite(value) ? value : 0.0,
                unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload route-4096|apsp-512|ccqd-4c|"
               "ccqd-1c --seed N --seconds S --trace 0|1 [--smoke] "
               "[--scratch DIR] [--spans PATH]\n",
               argv0, why, argv0);
  std::exit(2);
}

std::uint64_t parse_number(const char* argv0, const char* flag,
                           const char* text, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] == '\0' || text[0] == '-' || *end != '\0' || errno != 0 || v > hi)
    usage(argv0, (std::string("bad value for ") + flag).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], ("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = parse_number(argv[0], "--seed", value(), ~0ull);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(
          parse_number(argv[0], "--seconds", value(), 3600));
      have_seconds = true;
    } else if (a == "--trace") {
      opt.trace = parse_number(argv[0], "--trace", value(), 1) == 1;
      have_trace = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--scratch") {
      opt.scratch = value();
    } else if (a == "--spans") {
      opt.spans_path = value();
    } else {
      usage(argv[0], ("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage(argv[0], "--seed, --seconds and --trace are required");

  Report rep;
  try {
    if (opt.workload == "route-4096") {
      run_route(opt, rep);
    } else if (opt.workload == "apsp-512") {
      run_apsp(opt, rep);
    } else if (opt.workload == "ccqd-4c") {
      run_ccqd(opt, rep, 4);
    } else if (opt.workload == "ccqd-1c") {
      run_ccqd(opt, rep, 1);
    } else {
      usage(argv[0], ("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(opt, rep);
  return rep.correct ? 0 : 1;
}
