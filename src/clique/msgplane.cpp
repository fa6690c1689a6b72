#include "clique/msgplane.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

namespace ccq {

// Sole builder of FlatInbox views (friend of FlatInbox): keeps the view's
// raw pointers constructible only by the plane in this translation unit.
class FlatInboxAccess {
 public:
  static FlatInbox flat(const Word* words, const std::uint32_t* cursor,
                        const std::uint32_t* counts, NodeId self, NodeId n) {
    FlatInbox ib;
    ib.words_ = words;
    ib.cursor_ = cursor;
    ib.counts_ = counts;
    ib.self_ = self;
    ib.n_ = n;
    return ib;
  }
};

namespace detail {
namespace {

// Per-source totals computed during the deposit scan; the leader folds them
// in node-id order, so the meter never depends on scheduling.
struct NodeStats {
  std::uint64_t msgs = 0;     // words to other nodes (self excluded)
  std::uint64_t bits = 0;     // their total bit width
  std::uint64_t row_max = 0;  // longest non-self queue (rounds to drain)
};

#define CCQ_BANDWIDTH_CHECK(self, dst, w, bandwidth)                       \
  CCQ_CHECK_MSG((w).bits <= (bandwidth),                                   \
                "bandwidth violation: node " << (self) << " sent a "       \
                                             << (w).bits                   \
                                             << "-bit word to node "       \
                                             << (dst) << " but B = "       \
                                             << (bandwidth))

// ---------------------------------------------------------------------------
// FlatPlane: arena-backed counting-sort delivery.
//
// Deposits record a pointer to the node's outbox and fill the node's row of
// a [src][dst] histogram (validating bandwidth in the same scan). Delivery
// runs entirely over persisted arrays:
//
//   1. fold per-source stats into the meter, in id order (serial, O(n));
//   2. column sums → words per destination, and received_words (parallel
//      over destination chunks);
//   3. exclusive prefix over destinations → each destination's base offset
//      in the shared arena (serial, O(n));
//   4. per-pair cursors: cursor[u][v] = base[v] + Σ_{u'<u} counts[u'][v],
//      i.e. where source u's run for destination v starts (parallel over
//      destination chunks — each chunk walks its columns top-down);
//   5. scatter: each source copies its words through its cursor row, leaving
//      every cursor one past the end of its run (parallel over source
//      chunks). FlatInbox recovers a run as [cursor - count, cursor).
//
// Every parallel pass writes data partitioned by node id, and every serial
// reduction iterates in id order, so results are bit-identical for any
// worker count and any backend.
//
// A broadcast collective (every deposit kBcast — the engine's tag check
// makes collectives uniform, and the chaos layer deposits pairs) needs no
// sort: every destination receives the same run from a source, so
// deliver_broadcast() copies each run into the arena once and points all
// of the source's cursors past it. At n = 128 with 19-word broadcasts that
// is a 39 KiB arena instead of 5 MiB, in every warm session that keeps it.
//
// Delivery is block-sparse: the [src][dst] histogram is tiled into
// kChunk×kChunk shard blocks, each deposit records which destination
// chunks its row touches (one bit per chunk), and deliver() folds the row
// masks into per-source-block masks. The column-sum and cursor passes then
// skip blocks no deposit touched, so a sparse collective (a ring exchange
// at n = 8192, say) costs O(touched blocks) instead of O(n²) histogram
// reads. Skipped cursor entries keep stale values — sound because their
// counts are zero and FlatInbox::from returns an empty span without
// reading the cursor when the count is zero. Mask invariant, on which all
// of this rests: a clear chunk bit implies every count in that chunk of
// the row is zero (bits may over-approximate the other way).
//
// The histogram is double-buffered: a node may deposit for collective k+1
// while a straggler still reads its collective-k inbox (whose FlatInbox
// dereferences the *delivered* histogram), so deposits must not scribble on
// the buffer backing live inboxes. The arena and cursors need no buffering:
// they are rewritten only inside deliver(), which runs after every node has
// parked — no inbox from the previous collective can still be read.
//
// The arena is raw storage, never value-initialised: every delivery writes
// each slot of [0, total) (scatter or broadcast copy) before any inbox can
// read it, so a zero fill would be pure overhead — at n = 4096 a serial
// 0.5 GiB memset on the leader. For the same reason growing it copies
// nothing: the old contents belong to inboxes that are already dead.
// ---------------------------------------------------------------------------
class FlatPlane final : public MessagePlane {
 public:
  void init(NodeId n, unsigned bandwidth) override {
    n_ = n;
    bandwidth_ = bandwidth;
    parity_ = 0;
    read_parity_ = 0;
    const std::size_t nn = static_cast<std::size_t>(n) * n;
    counts_[0].assign(nn, 0);
    counts_[1].assign(nn, 0);
    cursor_.assign(nn, 0);
    col_base_.assign(static_cast<std::size_t>(n) + 1, 0);
    stats_.assign(n, {});
    deposits_.assign(n, {});
    mask_words_ = (num_chunks() + 63) / 64;
    touch_[0].assign(static_cast<std::size_t>(n) * mask_words_, 0);
    touch_[1].assign(static_cast<std::size_t>(n) * mask_words_, 0);
    block_touch_.assign(num_chunks() * mask_words_, 0);
  }

  void deposit_pairs(NodeId self,
                     std::span<const std::pair<NodeId, Word>> out,
                     bool unique_dst) override {
    // Per-destination counts are bounded by the deposit size, so one check
    // keeps every histogram increment below the uint32 wrap.
    CCQ_CHECK_MSG(out.size() <= 0xffffffffull,
                  "deposit exceeds 2^32 words");
    std::uint32_t* cnt = row(self);
    std::uint64_t* m = mask(self);
    // Zero only the chunks this row touched the last time it used this
    // buffer (the mask invariant says the rest already are) — a sparse
    // deposit costs O(sends + touched chunks), not O(n).
    clear_touched(cnt, m);
    NodeStats s;
    for (const auto& [dst, w] : out) {
      if (unique_dst) {
        CCQ_CHECK_MSG(dst < n_, "round(): destination out of range");
        CCQ_CHECK_MSG(dst != self, "round(): no self-messages in round()");
        CCQ_CHECK_MSG(cnt[dst] == 0,
                      "round(): at most one word per destination per round");
      } else {
        CCQ_CHECK_MSG(dst < n_, "exchange_flat: destination out of range");
      }
      ++cnt[dst];
      set_touch(m, dst);
      if (dst != self) {
        CCQ_BANDWIDTH_CHECK(self, dst, w, bandwidth_);
        s.bits += w.bits;
        s.msgs += 1;
        s.row_max = std::max<std::uint64_t>(s.row_max, cnt[dst]);
      }
    }
    stats_[self] = s;
    deposits_[self] =
        Deposit{Deposit::kPairs, out.data(), nullptr, out.size()};
  }

  void deposit_broadcast(NodeId self, std::span<const Word> words) override {
    std::uint64_t wbits = 0;
    for (const Word& w : words) {
      CCQ_CHECK_MSG(w.bits <= bandwidth_,
                    "bandwidth violation: node "
                        << self << " broadcast a " << w.bits
                        << "-bit word but B = " << bandwidth_);
      wbits += w.bits;
    }
    std::uint32_t* cnt = row(self);
    CCQ_CHECK_MSG(words.size() <= 0xffffffffull,
                  "broadcast exceeds 2^32 words");
    const std::uint32_t k = static_cast<std::uint32_t>(words.size());
    std::fill_n(cnt, n_, k);
    cnt[self] = 0;
    // Dense row: every chunk is (over-approximately, around self) touched.
    std::uint64_t* m = mask(self);
    if (k > 0) {
      fill_all_touched(m);
    } else {
      std::fill_n(m, mask_words_, std::uint64_t{0});
    }
    NodeStats s;
    if (n_ > 1 && k > 0) {
      s.msgs = static_cast<std::uint64_t>(n_ - 1) * k;
      s.bits = static_cast<std::uint64_t>(n_ - 1) * wbits;
      s.row_max = k;
    }
    stats_[self] = s;
    deposits_[self] =
        Deposit{Deposit::kBcast, nullptr, words.data(), words.size()};
  }

  void deliver(Scheduler& sched, DeliveryAccounting& acc) override {
    NodeId bcasts = 0;
    for (NodeId u = 0; u < n_; ++u) {
      const NodeStats& s = stats_[u];
      acc.max_queue = std::max(acc.max_queue, s.row_max);
      acc.messages += s.msgs;
      acc.bits += s.bits;
      acc.sent_words[u] += s.msgs;
      if (deposits_[u].kind == Deposit::kBcast) ++bcasts;
    }
    if (bcasts == n_) {
      deliver_broadcast(sched, acc);
    } else {
      CCQ_CHECK_MSG(bcasts == 0,
                    "one collective mixed broadcast and pair deposits");
      deliver_scatter(sched, acc);
    }
    read_parity_ = parity_;
    parity_ ^= 1;
  }

  FlatInbox inbox(NodeId self) override {
    return FlatInboxAccess::flat(arena_.get(), cursor_.data(),
                                 counts_[read_parity_].data(), self, n_);
  }

 private:
  // See the class comment. Inboxes read exactly as after a scatter (the
  // counts rows were filled at deposit time); here col_base_ holds the
  // arena base per *source*.
  void deliver_broadcast(Scheduler& sched, DeliveryAccounting& acc) {
    std::uint64_t total = 0;
    for (NodeId u = 0; u < n_; ++u) {
      col_base_[u] = total;
      total += deposits_[u].count;
    }
    CCQ_CHECK_MSG(total <= 0xffffffffull,
                  "collective exceeds 2^32 words in flight");
    // Node v hears every run but its own.
    for (NodeId v = 0; v < n_; ++v) {
      const std::uint64_t in = total - deposits_[v].count;
      acc.received_words[v] += in;
      acc.max_node_in = std::max(acc.max_node_in, in);
    }
    reserve_arena(total);
    sched.leader_parallel_for(num_chunks(), [&](std::size_t c) {
      for (NodeId u = chunk_begin(c); u < chunk_end(c); ++u) {
        const Deposit& d = deposits_[u];
        std::uninitialized_copy(d.bcast, d.bcast + d.count,
                                arena_.get() + col_base_[u]);
        std::fill_n(cursor_.data() + static_cast<std::size_t>(u) * n_, n_,
                    static_cast<std::uint32_t>(col_base_[u] + d.count));
      }
    });
  }

  // The counting-sort delivery of pair deposits (passes 1.5-5 of the class
  // comment).
  void deliver_scatter(Scheduler& sched, DeliveryAccounting& acc) {
    const std::uint32_t* cnt = counts_[parity_].data();
    const std::size_t chunks = num_chunks();
    // Pass 1.5: fold the per-source touch masks into per-source-block masks
    // (OR over each kChunk-source block). Serial and O(n · maskwords) —
    // cheap next to what it lets passes 2 and 4 skip.
    {
      std::fill(block_touch_.begin(), block_touch_.end(), std::uint64_t{0});
      const std::uint64_t* tm = touch_[parity_].data();
      for (NodeId u = 0; u < n_; ++u) {
        std::uint64_t* bt = block_touch_.data() + (u / kChunk) * mask_words_;
        const std::uint64_t* rm = tm + static_cast<std::size_t>(u) * mask_words_;
        for (std::size_t i = 0; i < mask_words_; ++i) bt[i] |= rm[i];
      }
    }

    // Pass 2: column sums + received_words, chunked by destination; source
    // blocks that deposited nothing for this destination chunk are skipped
    // wholesale (the shard×shard block-sparse walk).
    sched.leader_parallel_for(chunks, [&](std::size_t c) {
      const NodeId v0 = chunk_begin(c), v1 = chunk_end(c);
      std::fill(col_base_.begin() + v0 + 1, col_base_.begin() + v1 + 1,
                std::uint64_t{0});
      const std::size_t cw = c >> 6;
      const std::uint64_t cb = std::uint64_t{1} << (c & 63);
      for (std::size_t b = 0; b < chunks; ++b) {
        if (!(block_touch_[b * mask_words_ + cw] & cb)) continue;
        const NodeId u0 = chunk_begin(b), u1 = chunk_end(b);
        for (NodeId u = u0; u < u1; ++u) {
          const std::uint32_t* r = cnt + static_cast<std::size_t>(u) * n_;
          for (NodeId v = v0; v < v1; ++v) col_base_[v + 1] += r[v];
        }
      }
      for (NodeId v = v0; v < v1; ++v) {
        acc.received_words[v] +=
            col_base_[v + 1] - cnt[static_cast<std::size_t>(v) * n_ + v];
      }
    });

    // Pass 3: exclusive prefix → per-destination arena base. Before the
    // prefix folds it away, col_base_[v + 1] is still v's raw column sum,
    // so the receiver-side max (self run excluded) falls out for free.
    col_base_[0] = 0;
    for (NodeId v = 0; v < n_; ++v) {
      acc.max_node_in = std::max(
          acc.max_node_in,
          col_base_[v + 1] - cnt[static_cast<std::size_t>(v) * n_ + v]);
      col_base_[v + 1] += col_base_[v];
    }
    const std::uint64_t total = col_base_[n_];
    CCQ_CHECK_MSG(total <= 0xffffffffull,
                  "collective exceeds 2^32 words in flight");
    reserve_arena(total);

    // Pass 4: per-pair start cursors, chunked by destination. Each chunk
    // keeps a running cursor per column (seeded from the arena bases) and
    // walks only the touched source blocks top-down. An untouched block's
    // counts are all zero (mask invariant), so the running cursors pass over
    // it unchanged; its cursor entries keep stale values, which are never
    // read (count == 0 ⇒ FlatInbox::from returns early).
    sched.leader_parallel_for(chunks, [&](std::size_t c) {
      const NodeId v0 = chunk_begin(c), v1 = chunk_end(c);
      const std::size_t cw = c >> 6;
      const std::uint64_t cb = std::uint64_t{1} << (c & 63);
      std::uint32_t run[kChunk];
      for (NodeId v = v0; v < v1; ++v) {
        run[v - v0] = static_cast<std::uint32_t>(col_base_[v]);
      }
      for (std::size_t b = 0; b < chunks; ++b) {
        if (!(block_touch_[b * mask_words_ + cw] & cb)) continue;
        const NodeId u0 = chunk_begin(b), u1 = chunk_end(b);
        for (NodeId u = u0; u < u1; ++u) {
          const std::size_t base = static_cast<std::size_t>(u) * n_;
          for (NodeId v = v0; v < v1; ++v) {
            cursor_[base + v] = run[v - v0];
            run[v - v0] += cnt[base + v];
          }
        }
      }
    });

    // Pass 5: scatter, chunked by source; cursors finish one past the end
    // of each run.
    sched.leader_parallel_for(chunks, [&](std::size_t c) {
      const NodeId u0 = chunk_begin(c), u1 = chunk_end(c);
      for (NodeId u = u0; u < u1; ++u) scatter(u);
    });
  }

  struct Deposit {
    enum Kind : std::uint8_t { kPairs, kBcast } kind = kPairs;
    const std::pair<NodeId, Word>* pairs = nullptr;
    const Word* bcast = nullptr;
    std::size_t count = 0;  // pairs / broadcast words
  };

  static constexpr NodeId kChunk = 32;  // nodes per parallel chunk
  std::size_t num_chunks() const { return (n_ + kChunk - 1) / kChunk; }
  NodeId chunk_begin(std::size_t c) const {
    return static_cast<NodeId>(c * kChunk);
  }
  NodeId chunk_end(std::size_t c) const {
    return static_cast<NodeId>(
        std::min<std::size_t>(n_, (c + 1) * kChunk));
  }
  std::uint32_t* row(NodeId u) {
    return counts_[parity_].data() + static_cast<std::size_t>(u) * n_;
  }
  std::uint64_t* mask(NodeId u) {
    return touch_[parity_].data() + static_cast<std::size_t>(u) * mask_words_;
  }
  static void set_touch(std::uint64_t* m, NodeId dst) {
    const std::size_t c = dst / kChunk;
    m[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
  /// Dense-row mask: every valid chunk bit set. The tail bits of the last
  /// word stay clear — clear_touched walks set bits as chunk indices, so a
  /// spurious bit would name a chunk past the histogram row.
  void fill_all_touched(std::uint64_t* m) const {
    std::fill_n(m, mask_words_, ~std::uint64_t{0});
    const unsigned tail = static_cast<unsigned>(num_chunks() & 63);
    if (tail != 0) m[mask_words_ - 1] = (std::uint64_t{1} << tail) - 1;
  }
  /// Zero exactly the count chunks the mask marks, then the mask itself —
  /// restoring the invariant "clear bit ⇒ all-zero chunk" for this row.
  void clear_touched(std::uint32_t* cnt, std::uint64_t* m) {
    for (std::size_t w = 0; w < mask_words_; ++w) {
      std::uint64_t bits = m[w];
      m[w] = 0;
      while (bits != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t c = (w << 6) + b;
        std::fill_n(cnt + chunk_begin(c),
                    static_cast<std::size_t>(chunk_end(c) - chunk_begin(c)),
                    std::uint32_t{0});
      }
    }
  }

  void scatter(NodeId u) {
    std::uint32_t* cur = cursor_.data() + static_cast<std::size_t>(u) * n_;
    Word* arena = arena_.get();
    const Deposit& d = deposits_[u];
    for (std::size_t i = 0; i < d.count; ++i) {
      ::new (static_cast<void*>(arena + cur[d.pairs[i].first]++))
          Word(d.pairs[i].second);
    }
  }

  // Raw arena growth (see the class comment): no fill, no copy. Capacity
  // at least doubles, so a run of growing collectives reallocates
  // O(log total) times.
  void reserve_arena(std::uint64_t total) {
    if (total <= arena_cap_) return;
    const std::size_t cap = std::max<std::size_t>(total, 2 * arena_cap_);
    arena_.reset();
    arena_cap_ = 0;
    arena_.reset(static_cast<Word*>(::operator new(cap * sizeof(Word))));
    arena_cap_ = cap;
  }

  // Slots are only ever overwritten, never destroyed.
  static_assert(std::is_trivially_destructible_v<Word>);
  struct RawFree {
    void operator()(Word* p) const { ::operator delete(p); }
  };

  NodeId n_ = 0;
  unsigned bandwidth_ = 0;
  int parity_ = 0;       // histogram buffer receiving deposits
  int read_parity_ = 0;  // histogram buffer backing delivered inboxes
  std::vector<Deposit> deposits_;
  std::vector<NodeStats> stats_;
  std::vector<std::uint32_t> counts_[2];  // [src * n + dst], double-buffered
  std::vector<std::uint32_t> cursor_;     // [src * n + dst]
  std::vector<std::uint64_t> col_base_;   // [n + 1] arena base per dst
  std::unique_ptr<Word, RawFree> arena_;  // shared flat inbox storage
  std::size_t arena_cap_ = 0;             // words allocated in arena_
  // Block-sparse tiling (see class comment): per-row destination-chunk
  // touch masks, double-buffered in lockstep with counts_, plus the
  // per-source-block fold deliver() rebuilds each collective.
  std::size_t mask_words_ = 0;              // ceil(num_chunks / 64)
  std::vector<std::uint64_t> touch_[2];     // [src * mask_words + w]
  std::vector<std::uint64_t> block_touch_;  // [src_chunk * mask_words + w]
};

#undef CCQ_BANDWIDTH_CHECK

}  // namespace

std::unique_ptr<MessagePlane> make_message_plane() {
  return std::make_unique<FlatPlane>();
}

}  // namespace detail
}  // namespace ccq
