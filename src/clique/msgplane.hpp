#pragma once

// The message plane: the engine's delivery substrate.
//
// Every collective funnels through the same superstep shape — each node
// deposits an outbox, a leader step delivers all deposits and meters the
// cost, and each node reads its inbox. A MessagePlane owns that data path.
// The one implementation is a reusable CSR-style arena: deposits are
// recorded as pointers into node-owned buffers plus a per-source histogram
// row (one scan validates bandwidth and counts at the same time). Delivery
// is a two-pass counting sort: column sums → exclusive prefix (inbox base
// per destination) → per-pair cursors → scatter into one shared flat Word
// arena. The column, cursor and scatter passes run on the scheduler's
// worker team (Scheduler::leader_parallel_for) over disjoint node ranges,
// and all arrays persist across collectives, so steady-state collectives
// perform zero heap allocations and the delivery step scales with cores.
//
// Outboxes come in two shapes: (dst, word) pairs in send order, and one
// word sequence broadcast to every other node. Queue-shaped callers
// (NodeCtx::exchange) flatten to pairs first. A collective in which every
// node broadcast skips the sort: the arena keeps each source's run once
// and every destination's view of that source points at it. Inboxes and
// meters are bit-for-bit identical across backends and worker counts
// (asserted by tests/clique/msgplane_test.cpp against an engine-free
// oracle); determinism is structural — chunk outputs are partitioned by
// node id, and every reduction the leader performs iterates nodes in id
// order.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "clique/scheduler.hpp"
#include "clique/word.hpp"
#include "graph/graph.hpp"

namespace ccq {

/// Per-destination (or per-source) word queues; index = peer node id.
using WordQueues = std::vector<std::vector<Word>>;

/// Read-only view of one node's delivered inbox: the words received from
/// each source, FIFO per source, as spans into the plane's storage. Valid
/// until this node's next collective (the next delivery reuses the arena).
class FlatInbox {
 public:
  std::span<const Word> from(NodeId src) const {
    // Cursors sit one past the end of each (src → self) run after the
    // scatter; the run length is the histogram entry. An empty run must not
    // touch the cursor at all — the block-sparse delivery passes skip cursor
    // writes for untouched shard×shard blocks, so a zero-count entry may sit
    // over a stale cursor value.
    const std::size_t i = static_cast<std::size_t>(src) * n_ + self_;
    const std::uint32_t count = counts_[i];
    if (count == 0) return {};
    return {words_ + (cursor_[i] - count), count};
  }
  NodeId n() const { return n_; }

 private:
  friend class FlatInboxAccess;
  const Word* words_ = nullptr;
  // Row-major [src * n + dst] cursor/count arrays (32-bit: a collective's
  // arena cannot reach 2³² words on any host this simulator fits on, and
  // the plane checks).
  const std::uint32_t* cursor_ = nullptr;
  const std::uint32_t* counts_ = nullptr;
  NodeId self_ = 0;
  NodeId n_ = 0;
};

namespace detail {

/// Accounting the leader folds into the CostMeter after each delivery.
struct DeliveryAccounting {
  std::uint64_t max_queue = 0;  ///< rounds to drain (self pairs excluded)
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  /// Receiver-side per-collective max: most words delivered into any one
  /// inbox (self excluded). The sender side is validated against B at
  /// deposit time; this is the plane's own report of the symmetric
  /// quantity, which the trace cross-checks against its per-node deltas so
  /// it can never show an impossible inbox.
  std::uint64_t max_node_in = 0;
  std::uint64_t* sent_words = nullptr;      ///< [n] run-wide accumulators
  std::uint64_t* received_words = nullptr;  ///< [n]
};

// The delivery substrate. Deposit methods run on node fibers and may touch
// only slots owned by `self`; they validate the outbox (bandwidth bound,
// destination range, round() uniqueness) during their single scan, so the
// engine never re-walks an outbox just to check it. deliver() runs in the
// serial leader step and may fan work out via sched.leader_parallel_for.
// inbox() runs on node fibers after delivery. The arena plane is the one
// implementation; the interface exists so the chaos layer (clique/chaos.hpp)
// can wrap it.
class MessagePlane {
 public:
  virtual ~MessagePlane() = default;

  /// Reset for a run with n nodes and B-bit words.
  virtual void init(NodeId n, unsigned bandwidth) = 0;

  /// Outbox = (dst, word) pairs in send order. `unique_dst` enforces
  /// round()'s one-word-per-destination, no-self rule.
  virtual void deposit_pairs(NodeId self,
                             std::span<const std::pair<NodeId, Word>> out,
                             bool unique_dst) = 0;
  /// Outbox = the same word sequence to every other node (broadcast).
  virtual void deposit_broadcast(NodeId self,
                                 std::span<const Word> words) = 0;

  /// Deliver every deposit and fill `acc`. Leader-only. The deposits of
  /// one collective share a shape (the engine rejects mixed collectives
  /// before delivery).
  virtual void deliver(Scheduler& sched, DeliveryAccounting& acc) = 0;

  /// This node's inbox as per-source spans (see FlatInbox lifetime).
  virtual FlatInbox inbox(NodeId self) = 0;
};

/// The arena-backed counting-sort plane.
std::unique_ptr<MessagePlane> make_message_plane();

}  // namespace detail
}  // namespace ccq
