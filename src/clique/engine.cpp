#include "clique/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "clique/chaos.hpp"
#include "clique/scheduler.hpp"
#include "clique/trace.hpp"

namespace ccq {

namespace detail {

enum OpCode : int {
  kOpRound = 1,
  kOpExchange = 2,
  kOpBroadcast = 3,
};

struct SharedState {
  // Immutable run parameters.
  const Instance* instance = nullptr;
  NodeId n = 0;
  unsigned bandwidth = 1;
  std::uint64_t max_rounds = 0;
  std::uint64_t seed = 0;
  std::vector<BitVector> in_rows;  // transposed adjacency (directed)
  // Resolved §3 encoding: instance-provided bits are borrowed (no per-run
  // O(n²) copy — warm-path instances precompute them once), the fallback
  // encoding is computed into the owned storage.
  const std::vector<BitVector>* private_bits = nullptr;
  std::vector<BitVector> private_bits_storage;

  // Rendezvous backend; provides the ordering guarantees for the plane and
  // accounting below (deposits write only node-owned slots; the serial
  // leader step reads and writes everything).
  Scheduler* sched = nullptr;

  // Delivery substrate. Owns outbox slots, the inbox arena and the
  // persistent counting-sort arrays, so steady-state collectives allocate
  // nothing. `plane` is the active substrate for this run: either
  // `owned_plane` (plain Engine::run), a session's warm plane
  // (EngineSession::run), or — for chaos runs — the `chaos_wrapper`
  // borrowing one of those.
  MessagePlane* plane = nullptr;
  std::unique_ptr<MessagePlane> owned_plane;
  std::unique_ptr<MessagePlane> chaos_wrapper;

  // Results. `cost` and the per-node totals are mutated only by the serial
  // leader; `rounds_committed` mirrors cost.rounds for mid-run reads
  // (NodeCtx::rounds_so_far) without racing the leader.
  CostMeter cost;
  std::atomic<std::uint64_t> rounds_committed{0};
  std::vector<std::uint64_t> sent_words;  // per-node totals (run-wide)
  std::vector<std::uint64_t> received_words;
  std::vector<std::uint64_t> outputs;
  std::vector<std::uint8_t> has_output;

  // Round-trace recorder (null = untraced; the common case). Record fields
  // are filled in the serial leader step; span push/pop from node fibers
  // touch only node-owned slots inside the trace. `collectives_committed`
  // mirrors the trace's collective counter for mid-run reads from node
  // fibers (span coordinates), like rounds_committed does for rounds.
  RoundTrace* trace = nullptr;
  std::atomic<std::uint64_t> collectives_committed{0};
  std::vector<std::uint64_t> trace_prev_sent;  // per-node snapshots for
  std::vector<std::uint64_t> trace_prev_recv;  // per-collective deltas
  SchedulerStats trace_prev_sched{};
};

namespace {

const char* op_name(int opcode) {
  switch (opcode) {
    case kOpRound:
      return "round";
    case kOpExchange:
      return "exchange";
    case kOpBroadcast:
      return "broadcast";
  }
  return "op";
}

// Traced delivery tail: build the per-collective TraceRecord from the
// accounting and the per-node total deltas. Leader-only, and only reached
// when a trace is attached — the O(n) scans below never run untraced.
void trace_collective(SharedState& st, const DeliveryAccounting& acc,
                      int opcode, double delivery_ms) {
  TraceRecord rec;
  rec.op = op_name(opcode);
  // A collective's phase is node 0's innermost open span at deposit time:
  // collective sequences are identical across nodes (engine-enforced), so
  // node 0's label is as canonical as any, and one node's stack keeps the
  // record single-valued when nodes nest spans differently.
  rec.phase = st.trace->current_phase(0);
  rec.messages = acc.messages;
  rec.bits = acc.bits;
  std::uint64_t max_sent = 0, max_recv = 0;
  for (NodeId v = 0; v < st.n; ++v) {
    const std::uint64_t ds = st.sent_words[v] - st.trace_prev_sent[v];
    const std::uint64_t dr = st.received_words[v] - st.trace_prev_recv[v];
    st.trace_prev_sent[v] = st.sent_words[v];
    st.trace_prev_recv[v] = st.received_words[v];
    rec.sent_hist.add(ds);
    rec.received_hist.add(dr);
    max_sent = std::max(max_sent, ds);
    max_recv = std::max(max_recv, dr);
  }
  rec.max_sent = max_sent;
  // The plane reports the receiver-side max itself (max_node_in); it must
  // agree with the delta scan or the plane delivered an impossible inbox.
  CCQ_CHECK_MSG(acc.max_node_in == max_recv,
                "message plane reported a receiver-side max of "
                    << acc.max_node_in << " words but per-node totals say "
                    << max_recv);
  rec.max_received = acc.max_node_in;
  rec.delivery_ms = delivery_ms;
  const SchedulerStats ss = st.sched->stats();
  rec.fiber_switches = ss.fiber_switches - st.trace_prev_sched.fiber_switches;
  rec.parallel_jobs = ss.parallel_jobs - st.trace_prev_sched.parallel_jobs;
  rec.parallel_chunks =
      ss.parallel_chunks - st.trace_prev_sched.parallel_chunks;
  st.trace_prev_sched = ss;
  st.trace->on_collective(std::move(rec));
}

// Deliver all deposits through the message plane; cost = max over ordered
// (u,v), u != v, of the queue length (one word per ordered pair per
// synchronous round). Returns the number of rounds charged. Leader-only:
// the plane may fan the delivery passes out via sched->leader_parallel_for.
std::uint64_t deliver(SharedState& st, int opcode) {
  DeliveryAccounting acc;
  acc.sent_words = st.sent_words.data();
  acc.received_words = st.received_words.data();
  if (st.trace == nullptr) {  // the only per-collective cost of tracing off
    st.plane->deliver(*st.sched, acc);
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    st.plane->deliver(*st.sched, acc);
    const auto t1 = std::chrono::steady_clock::now();
    trace_collective(
        st, acc, opcode,
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  // CostMeter::add checks for 64-bit wrap — the meter is the experimental
  // instrument, so a silently wrapped total would poison every table built
  // on it (the per-collective increments themselves cannot wrap: they are
  // bounded by words actually materialised in memory).
  CostMeter delta;
  delta.messages = acc.messages;
  delta.bits = acc.bits;
  delta.collectives = 1;
  st.cost.add(delta);
  return acc.max_queue;
}

// Leader-only: commit rounds and enforce the runaway guard (throwing from
// the leader aborts the run through the scheduler).
void charge_rounds(SharedState& st, std::uint64_t rounds) {
  const std::uint64_t begin = st.cost.rounds;
  st.cost.rounds += rounds;
  // A wrapped counter would sail under the max_rounds check below and keep
  // the run alive with a corrupt meter; fail loudly instead.
  CCQ_CHECK_MSG(st.cost.rounds >= begin,
                "round counter overflowed 64 bits");
  st.rounds_committed.store(st.cost.rounds, std::memory_order_release);
  if (st.trace != nullptr) {
    // Finalise the record before the runaway check so an aborting run's
    // last collective still carries its rounds.
    st.trace->on_rounds_charged(begin, rounds);
    st.collectives_committed.fetch_add(1, std::memory_order_release);
  }
  if (st.cost.rounds > st.max_rounds) {
    throw ModelViolation("round limit exceeded (runaway algorithm?)");
  }
}

}  // namespace
}  // namespace detail

using detail::OpTag;
using detail::SharedState;

NodeId NodeCtx::n() const { return st_->n; }
unsigned NodeCtx::bandwidth() const { return st_->bandwidth; }
std::uint64_t NodeCtx::common_seed() const { return st_->seed; }

const BitVector& NodeCtx::adj_row() const {
  return st_->instance->graph.row(id_);
}

const BitVector& NodeCtx::in_row() const {
  return st_->instance->graph.is_directed() ? st_->in_rows[id_]
                                            : st_->instance->graph.row(id_);
}

bool NodeCtx::directed() const { return st_->instance->graph.is_directed(); }
bool NodeCtx::weighted() const { return st_->instance->graph.is_weighted(); }

std::uint32_t NodeCtx::edge_weight(NodeId u) const {
  // Incident edges in either orientation are local knowledge (§3).
  const Graph& g = st_->instance->graph;
  if (g.has_edge(id_, u)) return g.weight(id_, u);
  return g.weight(u, id_);  // throws for a non-edge
}

const BitVector& NodeCtx::private_bits() const {
  return (*st_->private_bits)[id_];
}

const BitVector& NodeCtx::label(std::size_t i) const {
  CCQ_CHECK_MSG(i < st_->instance->labels.size(),
                "label index " << i << " out of range");
  return st_->instance->labels[i][id_];
}

std::size_t NodeCtx::label_count() const {
  return st_->instance->labels.size();
}

std::uint64_t NodeCtx::rounds_so_far() const {
  return st_->rounds_committed.load(std::memory_order_acquire);
}

bool NodeCtx::tracing() const { return st_->trace != nullptr; }

void NodeCtx::trace_push(const char* label) {
  if (st_->trace == nullptr) return;
  // Span coordinates are (collectives committed, rounds committed) at push
  // time — serial-phase values, stable through the parallel phase, and
  // pure functions of the program, so spans are backend-independent.
  st_->trace->node_push(
      id_, label, st_->collectives_committed.load(std::memory_order_acquire),
      st_->rounds_committed.load(std::memory_order_acquire));
}

void NodeCtx::trace_pop() {
  if (st_->trace == nullptr) return;
  st_->trace->node_pop(
      id_, st_->collectives_committed.load(std::memory_order_acquire),
      st_->rounds_committed.load(std::memory_order_acquire));
}

WordQueues NodeCtx::exchange(const WordQueues& out) {
  const NodeId nn = st_->n;
  CCQ_CHECK_MSG(out.size() == nn, "outbox must have one queue per node");
  std::size_t total = 0;
  for (const auto& q : out) total += q.size();
  std::vector<std::pair<NodeId, Word>> sends;
  sends.reserve(total);
  for (NodeId dst = 0; dst < nn; ++dst) {
    for (const Word& w : out[dst]) sends.emplace_back(dst, w);
  }
  const FlatInbox in = exchange_flat(sends);
  WordQueues received(nn);
  for (NodeId src = 0; src < nn; ++src) {
    const auto words = in.from(src);
    received[src].assign(words.begin(), words.end());
  }
  return received;
}

FlatInbox NodeCtx::exchange_flat(
    std::span<const std::pair<NodeId, Word>> sends) {
  st_->sched->collective(
      id_, OpTag{detail::kOpExchange, 0},
      [&] { st_->plane->deposit_pairs(id_, sends, /*unique_dst=*/false); },
      [st = st_] {
        detail::charge_rounds(*st, detail::deliver(*st, detail::kOpExchange));
      });
  return st_->plane->inbox(id_);
}

FlatInbox NodeCtx::round_flat(
    std::span<const std::pair<NodeId, Word>> sends) {
  st_->sched->collective(
      id_, OpTag{detail::kOpRound, 0},
      [&] { st_->plane->deposit_pairs(id_, sends, /*unique_dst=*/true); },
      [st = st_] {
        // A round costs exactly 1 regardless of occupancy.
        detail::deliver(*st, detail::kOpRound);
        detail::charge_rounds(*st, 1);
      });
  return st_->plane->inbox(id_);
}

std::vector<std::optional<Word>> NodeCtx::round(
    std::span<const std::pair<NodeId, Word>> sends) {
  const NodeId nn = st_->n;
  const FlatInbox in = round_flat(sends);
  std::vector<std::optional<Word>> received(nn);
  for (NodeId src = 0; src < nn; ++src) {
    const auto got = in.from(src);
    if (!got.empty()) received[src] = got.front();
  }
  return received;
}

std::vector<BitVector> NodeCtx::broadcast(const BitVector& mine) {
  const NodeId nn = st_->n;
  const unsigned B = st_->bandwidth;
  const std::vector<Word> words = encode_bits(mine, B);
  const std::size_t length = mine.size();
  st_->sched->collective(
      id_, OpTag{detail::kOpBroadcast, length},
      [&] { st_->plane->deposit_broadcast(id_, words); },
      [st = st_, length, B] {
        detail::deliver(*st, detail::kOpBroadcast);
        // ⌈L/B⌉ rounds (equals the max queue length by construction, but we
        // charge it explicitly so an all-empty broadcast of L bits still
        // costs its rounds).
        detail::charge_rounds(*st, ceil_div(length, B));
      });

  const FlatInbox in = st_->plane->inbox(id_);
  std::vector<BitVector> result(nn);
  for (NodeId src = 0; src < nn; ++src) {
    if (src == id_) {
      result[src] = mine;
    } else {
      result[src] = decode_words(in.from(src), mine.size());
    }
  }
  return result;
}

std::vector<bool> NodeCtx::share_bit(bool mine) {
  const NodeId nn = st_->n;
  std::vector<std::pair<NodeId, Word>> sends;
  sends.reserve(nn > 0 ? nn - 1 : 0);
  for (NodeId v = 0; v < nn; ++v) {
    if (v != id_) sends.emplace_back(v, Word(mine ? 1 : 0, 1));
  }
  auto received = round(sends);
  std::vector<bool> bits(nn, false);
  for (NodeId v = 0; v < nn; ++v) {
    if (v == id_) {
      bits[v] = mine;
    } else {
      CCQ_CHECK_MSG(received[v].has_value(), "share_bit: missing bit");
      bits[v] = received[v]->value != 0;
    }
  }
  return bits;
}

bool NodeCtx::any(bool mine) {
  for (bool b : share_bit(mine))
    if (b) return true;
  return false;
}

bool NodeCtx::all(bool mine) {
  for (bool b : share_bit(mine))
    if (!b) return false;
  return true;
}

void NodeCtx::output(std::uint64_t value) {
  // Node-owned slots; no synchronisation needed under either backend.
  CCQ_CHECK_MSG(!st_->has_output[id_],
                "node " << id_ << " called output() twice");
  st_->outputs[id_] = value;
  st_->has_output[id_] = 1;
}

namespace detail {

// NodeCtx's constructor is private to keep user code from forging
// contexts; the run body below mints them through this keyhole.
struct EngineAccess {
  static NodeCtx make(NodeId id, SharedState* st) { return NodeCtx(id, st); }
};

namespace {

// The one engine-run body. Plain Engine::run passes null session hooks and
// gets ephemeral construction (a fresh scheduler and plane per run);
// EngineSession::run passes its persistent scheduler + plane so the fiber
// stacks, plane arenas and counting-sort arrays stay warm across runs.
// Results are bit-for-bit identical either way: the session objects are
// re-initialised per run (MessagePlane::init, Scheduler::run entry reset)
// and nothing downstream reads anything but the run's own state.
RunResult run_engine(const Instance& instance, const NodeProgram& program,
                     const Engine::Config& config, Scheduler* session_sched,
                     MessagePlane* session_plane) {
  const NodeId n = instance.graph.n();
  CCQ_CHECK_MSG(n >= 1, "empty clique");
  CCQ_CHECK_MSG(n <= 8192, "clique too large for the simulator");
  // Config-value validation, all at run() entry so a nonsense config fails
  // here with a ModelViolation instead of crashing or hanging mid-run.
  CCQ_CHECK_MSG(config.bandwidth_multiplier >= 1,
                "bandwidth_multiplier must be at least 1 (0 would make "
                "every word a bandwidth violation)");
  CCQ_CHECK_MSG(config.workers <= n,
                "config.workers = " << config.workers << " exceeds n = " << n
                                    << "; a worker (or shard) beyond the "
                                       "node count can never own a node");
  // 16 KiB floor: the fiber switch already parks a signal frame, the
  // resume trampoline and the collective's deposit scan on that stack; an
  // 8 KiB stack overflows it before the first rendezvous.
  CCQ_CHECK_MSG(config.fiber_stack_bytes == 0 ||
                    config.fiber_stack_bytes >= 16 * 1024,
                "config.fiber_stack_bytes = "
                    << config.fiber_stack_bytes
                    << " is below the 16 KiB fiber-switch floor (0 selects "
                       "the 256 KiB default)");
  for (const Labelling& z : instance.labels) {
    CCQ_CHECK_MSG(z.size() == n, "labelling must assign a label per node");
  }
  if (!instance.private_bits.empty()) {
    CCQ_CHECK_MSG(instance.private_bits.size() == n,
                  "private bits must cover every node");
  }

  SharedState st;
  st.instance = &instance;
  st.n = n;
  const unsigned base = node_id_bits(n);
  const std::uint64_t wide =
      static_cast<std::uint64_t>(base) * config.bandwidth_multiplier;
  CCQ_CHECK_MSG(wide <= 64,
                "bandwidth B = ⌈log₂n⌉·multiplier = "
                    << base << "·" << config.bandwidth_multiplier << " = "
                    << wide
                    << " bits exceeds the 64-bit word limit; lower "
                       "bandwidth_multiplier");
  st.bandwidth = static_cast<unsigned>(wide);
  st.max_rounds = config.max_rounds;
  st.seed = config.seed;
  if (session_plane != nullptr) {
    st.plane = session_plane;
  } else {
    st.owned_plane = detail::make_message_plane();
    st.plane = st.owned_plane.get();
  }
  // Attach the fault plane, if any: Config::chaos wins, else the
  // process-wide default. Same single-run protocol as the trace below — a
  // plan already driving another run leaves this run fault-free.
  ChaosPlan* chaos_plan =
      config.chaos != nullptr ? config.chaos : chaos::global();
  if (chaos_plan != nullptr && !chaos_plan->try_acquire()) {
    chaos_plan = nullptr;
  }
  struct ChaosCloser {
    ChaosPlan* plan;
    ~ChaosCloser() {
      if (plan != nullptr) plan->release();
    }
  } chaos_closer{chaos_plan};
  if (chaos_plan != nullptr) {
    st.chaos_wrapper = detail::wrap_chaos(st.plane, chaos_plan);
    st.plane = st.chaos_wrapper.get();
  }
  st.plane->init(n, st.bandwidth);
  st.outputs.assign(n, 0);
  st.has_output.assign(n, 0);
  st.sent_words.assign(n, 0);
  st.received_words.assign(n, 0);

  if (instance.graph.is_directed()) {
    st.in_rows.assign(n, BitVector(n));
    for (NodeId u = 0; u < n; ++u) {
      const BitVector& r = instance.graph.row(u);
      for (std::size_t v = r.find_first(); v < r.size();
           v = r.find_first(v + 1)) {
        st.in_rows[v].set(u);
      }
    }
  }
  if (instance.private_bits.empty()) {
    st.private_bits_storage = private_bit_encoding(instance.graph);
    st.private_bits = &st.private_bits_storage;
  } else {
    st.private_bits = &instance.private_bits;
  }

  // Attach the round trace, if any: Config::trace wins, else the
  // process-wide default (benches' --trace). try_acquire keeps a trace
  // single-run — a nested Engine::run seeing the same trace (or two
  // concurrent runs sharing the global) executes untraced instead of
  // interleaving records.
  RoundTrace* trace = config.trace != nullptr ? config.trace : trace::global();
  if (trace != nullptr && !trace->try_acquire()) trace = nullptr;
  st.trace = trace;
  if (trace != nullptr) {
    trace->on_run_begin(n, st.bandwidth);
    st.trace_prev_sent.assign(n, 0);
    st.trace_prev_recv.assign(n, 0);
  }
  // Close the trace on every exit path: an aborting run (ModelViolation,
  // program exception) still flushes its spans and releases the acquire.
  struct TraceCloser {
    SharedState& st;
    ~TraceCloser() {
      if (st.trace == nullptr) return;
      CostMeter c = st.cost;
      for (NodeId v = 0; v < st.n; ++v) {
        c.max_node_sent = std::max(c.max_node_sent, st.sent_words[v]);
        c.max_node_received = std::max(c.max_node_received,
                                       st.received_words[v]);
      }
      st.trace->on_run_end(c);
    }
  } trace_closer{st};

  // A node program that itself calls Engine::run (nested simulation) must
  // not re-enter the shared worker pool from one of its fibers.
  Scheduler* sched = session_sched;
  std::unique_ptr<Scheduler> owned_sched;
  if (sched == nullptr) {
    ExecutionBackend backend = config.backend;
    if (detail::on_scheduler_fiber()) {
      backend = ExecutionBackend::kThreadPerNode;
    }
    owned_sched = detail::make_scheduler(backend, config.fiber_stack_bytes);
    sched = owned_sched.get();
  } else {
    // A session scheduler cannot be rerouted to thread-per-node mid-run;
    // nested simulation must go through plain Engine::run.
    CCQ_CHECK_MSG(!detail::on_scheduler_fiber(),
                  "EngineSession::run called from inside a node program; "
                  "nested simulation must use Engine::run");
  }
  sched->enable_stats(trace != nullptr);
  st.sched = sched;
  sched->run(n, config.workers, [&st, &program](NodeId v) {
    NodeCtx ctx = EngineAccess::make(v, &st);
    program(ctx);
  });

  for (NodeId v = 0; v < n; ++v) {
    CCQ_CHECK_MSG(st.has_output[v],
                  "node " << v << " terminated without calling output()");
  }
  RunResult result;
  result.outputs = std::move(st.outputs);
  result.cost = st.cost;
  for (NodeId v = 0; v < n; ++v) {
    result.cost.max_node_sent =
        std::max(result.cost.max_node_sent, st.sent_words[v]);
    result.cost.max_node_received =
        std::max(result.cost.max_node_received, st.received_words[v]);
  }
  return result;
}

}  // namespace
}  // namespace detail

RunResult Engine::run(const Instance& instance, const NodeProgram& program,
                      const Config& config) {
  return detail::run_engine(instance, program, config, nullptr, nullptr);
}

EngineSession::EngineSession(const Shape& shape) : shape_(shape) {
  CCQ_CHECK_MSG(shape.n >= 1 && shape.n <= 8192,
                "EngineSession shape.n = " << shape.n
                                           << " outside [1, 8192]");
  sched_ = detail::make_scheduler(shape.backend, shape.fiber_stack_bytes);
  plane_ = detail::make_message_plane();
}

EngineSession::~EngineSession() = default;

RunResult EngineSession::run(const Instance& instance,
                             const NodeProgram& program,
                             const Engine::Config& config) {
  // The warm objects are shaped by (n, B, backend, stacks); a config
  // naming a different shape must not silently run on them — the caller
  // keyed its cache wrong. The worker team is per run (config.workers).
  CCQ_CHECK_MSG(instance.graph.n() == shape_.n,
                "EngineSession built for n = "
                    << shape_.n << " got an instance with n = "
                    << instance.graph.n());
  CCQ_CHECK_MSG(config.bandwidth_multiplier == shape_.bandwidth_multiplier &&
                    config.backend == shape_.backend &&
                    config.fiber_stack_bytes == shape_.fiber_stack_bytes,
                "EngineSession::run config names a different engine shape "
                "than the session was built for");
  RunResult result = detail::run_engine(instance, program, config,
                                        sched_.get(), plane_.get());
  ++runs_;  // only counted when the run completed without throwing
  return result;
}

std::vector<BitVector> private_bit_encoding(const Graph& g) {
  const NodeId n = g.n();
  std::vector<BitVector> bits(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      bits[u].push_back(g.has_edge(u, v));
    }
  }
  return bits;
}

}  // namespace ccq
