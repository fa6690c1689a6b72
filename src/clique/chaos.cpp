#include "clique/chaos.hpp"

#include <utility>

#include "util/rng.hpp"

namespace ccq {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kFlip:
      return "flip";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kByzantine:
      return "byzantine";
  }
  return "fault";
}

namespace chaos {
namespace {
ChaosPlan* g_plan = nullptr;
}  // namespace
void set_global(ChaosPlan* plan) { g_plan = plan; }
ChaosPlan* global() { return g_plan; }
}  // namespace chaos

// The wrapper plane. Deposits run on node fibers and touch only the slots
// owned by `self` (queues_[self], out_[self], pending_[self]) — the same
// ownership discipline the arena plane follows, so every backend and TSan
// are happy. The corrupted outbox is handed to the wrapped plane as a pair
// deposit grouped by destination, each (src, dst) run in its original word
// order; the inner plane then validates, meters and delivers the corrupted
// traffic exactly as it would honest traffic.
class ChaosPlane final : public detail::MessagePlane {
 public:
  ChaosPlane(detail::MessagePlane* inner, ChaosPlan* plan)
      : inner_(inner), plan_(plan) {}

  void init(NodeId n, unsigned bandwidth) override {
    n_ = n;
    collective_ = 0;
    queues_.assign(n, WordQueues(n));
    out_.assign(n, {});
    pending_.assign(n, {});
    byz_.assign(n, 0);
    for (NodeId v : plan_->config().byzantine) {
      CCQ_CHECK_MSG(v < n, "chaos: byzantine node " << v
                                                    << " out of range for n="
                                                    << n);
      byz_[v] = 1;
    }
    inner_->init(n, bandwidth);
  }

  void deposit_pairs(NodeId self,
                     std::span<const std::pair<NodeId, Word>> out,
                     bool unique_dst) override {
    WordQueues& mine = queues_[self];
    for (auto& q : mine) q.clear();
    // Validate the *honest* outbox under round() rules before faulting —
    // a duplication fault must not be blamed on the program.
    for (const auto& [dst, w] : out) {
      CCQ_CHECK_MSG(dst < n_, "chaos: destination " << dst
                                                    << " out of range");
      if (unique_dst) {
        CCQ_CHECK_MSG(dst != self, "round(): message to self");
        CCQ_CHECK_MSG(mine[dst].empty(),
                      "round(): duplicate destination " << dst);
      }
      mine[dst].push_back(w);
    }
    auto& faulted = out_[self];
    faulted.clear();
    for (NodeId dst = 0; dst < n_; ++dst) {
      if (dst == self) {
        // Self words never touch the network: pass them through unfaulted.
        for (const Word& w : mine[dst]) faulted.emplace_back(dst, w);
      } else {
        corrupt_queue(self, dst, mine[dst], faulted);
      }
    }
    inner_->deposit_pairs(self, faulted, /*unique_dst=*/false);
  }

  void deposit_broadcast(NodeId self, std::span<const Word> words) override {
    auto& faulted = out_[self];
    faulted.clear();
    for (NodeId dst = 0; dst < n_; ++dst) {
      if (dst != self) corrupt_queue(self, dst, words, faulted);
    }
    inner_->deposit_pairs(self, faulted, /*unique_dst=*/false);
  }

  void deliver(detail::Scheduler& sched,
               detail::DeliveryAccounting& acc) override {
    // Flush per-node fault buffers into the plan in node-id order: the
    // decisions are pure hashes, so the ledger is identical across
    // backends and worker counts.
    for (NodeId v = 0; v < n_; ++v) {
      for (const FaultEvent& e : pending_[v]) plan_->record(e);
      pending_[v].clear();
    }
    inner_->deliver(sched, acc);
    ++collective_;
  }

  FlatInbox inbox(NodeId self) override { return inner_->inbox(self); }

 private:
  // One fault stream per (collective, src, dst), drawn in word order — the
  // reproducibility contract: a fault is a function of (seed, collective,
  // src, dst, word index) and nothing else.
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t c,
                                   NodeId src, NodeId dst) {
    std::uint64_t s = mix64(seed ^ (c * 0x9e3779b97f4a7c15ULL + 1));
    return mix64(s ^ ((static_cast<std::uint64_t>(src) << 32) | dst));
  }

  // Appends the faulted (src → dst) run to `out` as (dst, word) pairs.
  template <typename WordSeq>
  void corrupt_queue(NodeId src, NodeId dst, const WordSeq& in,
                     std::vector<std::pair<NodeId, Word>>& out) {
    const ChaosPlan::Config& cfg = plan_->config();
    const bool byz = byz_[src] != 0;
    if (!byz && cfg.p_flip <= 0 && cfg.p_drop <= 0 && cfg.p_dup <= 0) {
      for (const Word& w : in) out.emplace_back(dst, w);
      return;
    }
    SplitMix64 rng(stream_seed(cfg.seed, collective_, src, dst));
    for (std::size_t pos = 0; pos < in.size(); ++pos) {
      const auto i = static_cast<std::uint64_t>(pos);
      Word w = in[pos];
      if (byz) {
        const std::uint64_t draw = rng.next();
        const std::uint64_t repl =
            cfg.adversary
                ? cfg.adversary({collective_, src, dst, i, w, draw})
                : draw;
        const std::uint64_t mask =
            w.bits >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << w.bits) - 1;
        const Word after(repl & mask, w.bits);
        if (!(after == w)) {
          note(src, {FaultKind::kByzantine, collective_, src, dst, i, 0, w,
                     after});
        }
        w = after;
      }
      if (cfg.p_flip > 0 && w.bits > 0 && rng.next_bool(cfg.p_flip)) {
        const unsigned bit = static_cast<unsigned>(rng.uniform(w.bits));
        const Word after(w.value ^ (std::uint64_t{1} << bit), w.bits);
        note(src,
             {FaultKind::kFlip, collective_, src, dst, i, bit, w, after});
        w = after;
      }
      if (cfg.p_drop > 0 && rng.next_bool(cfg.p_drop)) {
        const Word after(0, w.bits);
        note(src,
             {FaultKind::kDrop, collective_, src, dst, i, 0, w, after});
        w = after;
      }
      out.emplace_back(dst, w);
      if (cfg.p_dup > 0 && rng.next_bool(cfg.p_dup)) {
        note(src,
             {FaultKind::kDuplicate, collective_, src, dst, i, 0, w, w});
        out.emplace_back(dst, w);
      }
    }
  }

  void note(NodeId src, const FaultEvent& e) { pending_[src].push_back(e); }

  detail::MessagePlane* inner_;  // borrowed; outlives this wrapper
  ChaosPlan* plan_;
  NodeId n_ = 0;
  std::uint64_t collective_ = 0;  // written by the leader, read by deposits
                                  // of the next collective (barrier-ordered)
  std::vector<WordQueues> queues_;  // [self] honest outbox by destination
  std::vector<std::vector<std::pair<NodeId, Word>>> out_;  // [self] faulted
  std::vector<std::vector<FaultEvent>> pending_;  // [self] fault buffers
  std::vector<std::uint8_t> byz_;
};

namespace detail {

std::unique_ptr<MessagePlane> wrap_chaos(MessagePlane* inner,
                                         ChaosPlan* plan) {
  CCQ_CHECK(inner != nullptr && plan != nullptr);
  return std::make_unique<ChaosPlane>(inner, plan);
}

}  // namespace detail
}  // namespace ccq
