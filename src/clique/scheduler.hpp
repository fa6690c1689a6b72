#pragma once

// Execution backends for the clique engine.
//
// The engine's unit of execution is the *superstep*: all n node programs
// run until they meet at the next collective, a single serial "leader"
// step validates the rendezvous and delivers messages, and everyone
// resumes. Two backends realise this contract:
//
//   * ExecutionBackend::kSharded — the default and the one production
//     path: node programs run as cooperatively yielding stackful fibers
//     over a worker team hosted on the shared ccq::ThreadPool. The node id
//     space is cut into contiguous shards (the run's `workers` = shard
//     count) owned statically by the workers; each worker resumes its
//     owned nodes in id order — no shared claim counter on the resume
//     path — and creates those fibers itself on first resume, so stacks
//     are allocated (and first-touched) by the worker that runs them for
//     the whole run. Workers meet at a sense-reversing spin barrier
//     between the parallel (resume fibers) and serial (validate + deliver)
//     phases of each superstep (DESIGN.md §7).
//
//   * ExecutionBackend::kThreadPerNode — the reference backend: one OS
//     thread per simulated node, rendezvoused through a mutex + condition
//     variable. Simple, but thread-creation and wakeup-storm overhead
//     dominates wall-clock once n reaches the hierarchy-bench sizes.
//
// Both backends produce bit-for-bit identical RunResults (outputs, rounds,
// messages, bits, per-node maxima) for any program and any shard count — asserted by tests/clique/scheduler_test.cpp and
// tests/clique/sharded_test.cpp. Message delivery and cost accounting
// always happen in the serial leader step, iterating nodes in id order, so
// scheduling order can never leak into results.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "graph/graph.hpp"

namespace ccq {

/// Which execution backend Engine::run uses (Engine::Config::backend).
enum class ExecutionBackend {
  kThreadPerNode,  ///< reference: one OS thread per simulated node
  kSharded,        ///< default: fibers over static contiguous node shards
};

/// Occupancy counters a scheduler accumulates when stats are enabled
/// (RoundTrace observability; see clique/trace.hpp). Run-wide and
/// monotonic — the trace diffs consecutive snapshots per collective. All
/// values are wall-clock/backend-shaped: they are *not* covered by the
/// determinism contract.
struct SchedulerStats {
  std::uint64_t fiber_switches = 0;   ///< node-fiber resumes (fiber backend)
  std::uint64_t parallel_jobs = 0;    ///< leader_parallel_for invocations
  std::uint64_t parallel_chunks = 0;  ///< chunks across those jobs
};

/// Threads in the process-wide pool the fiber backend draws its worker
/// teams from: the largest team a run can get (Engine::Config::workers).
std::size_t pool_threads();

namespace detail {

// Thrown into node programs to unwind them after another node failed (or a
// model rule was violated); never escapes Scheduler::run.
struct Aborted {};

// Identifies a collective operation for divergence checking.
struct OpTag {
  int opcode = 0;
  std::uint64_t param = 0;
  bool operator==(const OpTag& o) const {
    return opcode == o.opcode && param == o.param;
  }
};

// Runs n node bodies to completion, rendezvousing them at collectives.
//
// Contract (identical across backends; the determinism suite asserts it):
//   * run(n, workers, body) invokes body(v) exactly once for every v in
//     [0, n) and returns once every body has unwound; the first captured
//     error (a body exception, a leader exception, or a divergence
//     ModelViolation) is rethrown. `workers` is a per-run choice: the
//     fiber backend's shard count (0 = one per shared-pool thread; the
//     team is min(pool, shards); thread-per-node ignores it), so one
//     scheduler serves any shard count with identical results.
//   * collective(id, tag, deposit, leader) may only be called from inside
//     body(id). deposit() runs immediately and may touch only node-owned
//     slots. Once all n nodes have arrived with equal tags, leader() runs
//     exactly once, serially, with every deposit visible; afterwards all
//     nodes resume with the leader's writes visible. Unequal tags, or a
//     body returning while others sit inside a collective, abort the run
//     with a ModelViolation.
//   * after an abort, nodes parked in collectives are resumed with Aborted
//     so their stacks unwind; Aborted itself never escapes run().
class Scheduler {
 public:
  using NodeBody = std::function<void(NodeId)>;
  using Thunk = std::function<void()>;
  using ChunkFn = std::function<void(std::size_t)>;

  virtual ~Scheduler() = default;

  virtual void run(NodeId n, std::size_t workers, const NodeBody& body) = 0;
  virtual void collective(NodeId id, OpTag tag, const Thunk& deposit,
                          const Thunk& leader) = 0;

  // Run fn(chunk) for every chunk in [0, chunks), possibly in parallel.
  // May only be called from inside a leader() thunk: the fiber backend
  // hands chunks to the workers spinning at the superstep barrier, so the
  // serial phase scales with cores instead of running leader-only. Each
  // chunk must write only chunk-owned data (the message plane partitions
  // by node id), which makes the result schedule-independent by
  // construction. The default implementation runs chunks serially in
  // index order — the reference semantics every backend must match.
  virtual void leader_parallel_for(std::size_t chunks, const ChunkFn& fn) {
    count_job(chunks);
    for (std::size_t i = 0; i < chunks; ++i) fn(i);
  }

  /// Occupancy accounting for the round trace. Off by default: with stats
  /// disabled the counters cost one branch per fiber resume / leader job
  /// and nothing per deposited word. Engine::run enables them only when a
  /// RoundTrace is attached.
  void enable_stats(bool on) { stats_on_ = on; }
  bool stats_enabled() const { return stats_on_; }
  SchedulerStats stats() const {
    SchedulerStats s;
    s.fiber_switches = fiber_switches_.load(std::memory_order_relaxed);
    s.parallel_jobs = parallel_jobs_;
    s.parallel_chunks = parallel_chunks_;
    return s;
  }

 protected:
  // Job/chunk counters are leader-owned (serial phase); the fiber-switch
  // counter is bumped by whichever worker resumes a fiber, so it is the one
  // atomic (relaxed — it is a telemetry tally, not a synchronisation edge).
  void count_job(std::size_t chunks) {
    if (stats_on_) {
      parallel_jobs_ += 1;
      parallel_chunks_ += chunks;
    }
  }
  void count_switch() {
    if (stats_on_) {
      fiber_switches_.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  bool stats_on_ = false;
  std::atomic<std::uint64_t> fiber_switches_{0};
  std::uint64_t parallel_jobs_ = 0;
  std::uint64_t parallel_chunks_ = 0;
};

/// Backend factory. `stack_bytes` sizes fiber stacks (0 = 256 KiB; ignored
/// by the thread-per-node backend). Value validation (workers ≤ n, stack
/// floor) is Engine::run's job — the factory only wires the backend.
std::unique_ptr<Scheduler> make_scheduler(ExecutionBackend backend,
                                          std::size_t stack_bytes);

/// True when the calling thread is currently executing a fiber-scheduler
/// fiber. Engine::run uses this to route nested runs (a node program that
/// itself simulates a clique) to the thread-per-node backend instead of
/// deadlocking the shared worker pool.
bool on_scheduler_fiber();

}  // namespace detail
}  // namespace ccq
