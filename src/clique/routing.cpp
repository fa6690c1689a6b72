#include "clique/routing.hpp"

#include <algorithm>
#include <utility>

#include "util/rng.hpp"

namespace ccq {

namespace {

/// Send list in (dst, word) form for NodeCtx::exchange_flat — the
/// allocation-free outbox representation (no per-destination vectors).
using SendList = std::vector<std::pair<NodeId, Word>>;

}  // namespace

std::vector<std::pair<NodeId, Word>> route_direct(
    NodeCtx& ctx, const std::vector<RoutedMessage>& messages) {
  const NodeId n = ctx.n();
  CCQ_TRACE_SPAN(ctx, "route-direct");
  SendList sends;
  sends.reserve(messages.size());
  for (const RoutedMessage& m : messages) {
    CCQ_CHECK_MSG(m.dst < n, "route_direct: destination out of range");
    sends.emplace_back(m.dst, m.payload);
  }
  const FlatInbox in = ctx.exchange_flat(sends);
  std::size_t total = 0;
  for (NodeId src = 0; src < n; ++src) total += in.from(src).size();
  std::vector<std::pair<NodeId, Word>> received;
  received.reserve(total);
  for (NodeId src = 0; src < n; ++src) {
    for (const Word& w : in.from(src)) received.emplace_back(src, w);
  }
  return received;
}

std::vector<std::pair<NodeId, Word>> route_balanced(
    NodeCtx& ctx, const std::vector<RoutedMessage>& messages) {
  const NodeId n = ctx.n();
  const unsigned idb = node_id_bits(n);
  // Both node-local orderings below are stable counting sorts over node
  // ids, sharing one [n + 1] prefix array: at[v] is where key v's run
  // starts, and placing an element advances it.
  std::vector<std::size_t> at(static_cast<std::size_t>(n) + 1);
  auto prefix = [&at] {
    std::size_t sum = 0;
    for (std::size_t& a : at) sum += std::exchange(a, sum);
  };

  // Phase 1: stripe destination-sorted messages across intermediaries,
  // starting from a seed-salted offset so that structured workloads do not
  // systematically collide. Each relayed message is a (dst-header, payload)
  // word pair on the wire. A message's slot j in the stable destination
  // order fixes its intermediary, so it is written straight into place.
  for (const RoutedMessage& m : messages) {
    CCQ_CHECK_MSG(m.dst < n, "route_balanced: destination range");
    ++at[m.dst];
  }
  prefix();
  const NodeId offset = static_cast<NodeId>(mix64_below(
      ctx.common_seed() ^ (static_cast<std::uint64_t>(ctx.id()) + 1), n));

  // One send buffer serves both phases: the plane has finished reading a
  // deposit by the time exchange_flat returns.
  SendList sends(2 * messages.size());
  for (const RoutedMessage& m : messages) {
    const std::size_t j = at[m.dst]++;
    const NodeId mid = static_cast<NodeId>(
        (offset + j) % static_cast<std::size_t>(n));
    sends[2 * j] = {mid, Word(m.dst, idb)};
    sends[2 * j + 1] = {mid, m.payload};
  }
  FlatInbox relay_in;
  {
    CCQ_TRACE_SPAN(ctx, "route-scatter");
    relay_in = ctx.exchange_flat(sends);
  }

  // Phase 2: forward to the true destinations with an origin header. The
  // relay inbox spans stay valid until this node's next collective, so they
  // are fully consumed before the second exchange below.
  sends.clear();
  for (NodeId src = 0; src < n; ++src) {
    const auto q = relay_in.from(src);
    CCQ_CHECK_MSG(q.size() % 2 == 0, "route_balanced: torn relay pair");
    for (std::size_t i = 0; i < q.size(); i += 2) {
      const NodeId dst = static_cast<NodeId>(q[i].value);
      CCQ_CHECK_MSG(dst < n, "route_balanced: relayed destination range");
      sends.emplace_back(dst, Word(src, idb));
      sends.emplace_back(dst, q[i + 1]);
    }
  }
  FlatInbox final_in;
  {
    CCQ_TRACE_SPAN(ctx, "route-deliver");
    final_in = ctx.exchange_flat(sends);
  }

  // Output: by origin, and within one origin in relay order (intermediary
  // id, then FIFO) — the stable sort of the relay-ordered pairs by source.
  std::fill(at.begin(), at.end(), std::size_t{0});
  for (NodeId mid = 0; mid < n; ++mid) {
    const auto q = final_in.from(mid);
    CCQ_CHECK_MSG(q.size() % 2 == 0, "route_balanced: torn delivery pair");
    for (std::size_t i = 0; i < q.size(); i += 2) {
      CCQ_CHECK_MSG(q[i].value < n, "route_balanced: relayed origin range");
      ++at[q[i].value];
    }
  }
  prefix();
  std::vector<std::pair<NodeId, Word>> received(at[n]);
  for (NodeId mid = 0; mid < n; ++mid) {
    const auto q = final_in.from(mid);
    for (std::size_t i = 0; i < q.size(); i += 2) {
      const auto src = static_cast<NodeId>(q[i].value);
      received[at[src]++] = {src, q[i + 1]};
    }
  }
  return received;
}

std::vector<std::pair<NodeId, BitVector>> route_blocks(
    NodeCtx& ctx, const std::vector<RoutedBlock>& blocks) {
  const NodeId n = ctx.n();
  const unsigned idb = node_id_bits(n);
  const unsigned B = ctx.bandwidth();
  const std::uint64_t max_len = std::uint64_t{1} << (2 * idb);

  // Assign per-(src,dst) sequence numbers in submission order and stripe
  // blocks across intermediaries (block-wise, destination-sorted).
  struct Item {
    NodeId dst;
    std::uint64_t seq;
    const BitVector* payload;
  };
  std::vector<Item> items;
  items.reserve(blocks.size());
  // Blocks addressed to self never touch the network (free local
  // computation); they are appended to the result directly.
  std::vector<const BitVector*> self_blocks;
  {
    std::vector<std::uint64_t> next_seq(n, 0);
    for (const RoutedBlock& b : blocks) {
      CCQ_CHECK_MSG(b.dst < n, "route_blocks: destination out of range");
      CCQ_CHECK_MSG(b.payload.size() < max_len,
                    "route_blocks: block too large to frame");
      if (b.dst == ctx.id()) {
        self_blocks.push_back(&b.payload);
        continue;
      }
      items.push_back({b.dst, next_seq[b.dst]++, &b.payload});
    }
    for (NodeId v = 0; v < n; ++v) {
      CCQ_CHECK_MSG(next_seq[v] <= (std::uint64_t{1} << idb),
                    "route_blocks: too many blocks for one destination");
    }
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.dst < b.dst; });

  const NodeId offset = static_cast<NodeId>(mix64_below(
      ctx.common_seed() ^ (static_cast<std::uint64_t>(ctx.id()) + 7), n));

  auto frame = [&](SendList& out, NodeId to, NodeId head, const Item& it) {
    out.emplace_back(to, Word(head, idb));
    out.emplace_back(to, Word(it.seq, idb));
    const std::uint64_t len = it.payload->size();
    out.emplace_back(to, Word(len & ((std::uint64_t{1} << idb) - 1), idb));
    out.emplace_back(to, Word(len >> idb, idb));
    for (const Word& w : encode_bits(*it.payload, B)) out.emplace_back(to, w);
  };

  SendList sends;
  for (std::size_t j = 0; j < items.size(); ++j) {
    const NodeId mid = static_cast<NodeId>(
        (offset + j) % static_cast<std::size_t>(n));
    frame(sends, mid, items[j].dst, items[j]);
  }
  FlatInbox relay_in;
  {
    CCQ_TRACE_SPAN(ctx, "blocks-scatter");
    relay_in = ctx.exchange_flat(sends);
  }

  // Relay: reframe with the origin in the header, into the phase-1 buffer
  // (the plane is done with that deposit once exchange_flat returns).
  sends.clear();
  for (NodeId src = 0; src < n; ++src) {
    const auto q = relay_in.from(src);
    std::size_t pos = 0;
    while (pos < q.size()) {
      CCQ_CHECK_MSG(pos + 4 <= q.size(), "route_blocks: torn frame header");
      const NodeId dst = static_cast<NodeId>(q[pos].value);
      const std::uint64_t seq = q[pos + 1].value;
      const std::uint64_t len = q[pos + 2].value | (q[pos + 3].value << idb);
      const std::size_t nwords = ceil_div(len, B);
      CCQ_CHECK_MSG(pos + 4 + nwords <= q.size(),
                    "route_blocks: torn frame payload");
      CCQ_CHECK_MSG(dst < n, "route_blocks: relayed destination range");
      sends.emplace_back(dst, Word(src, idb));
      sends.emplace_back(dst, Word(seq, idb));
      sends.emplace_back(dst,
                         Word(len & ((std::uint64_t{1} << idb) - 1), idb));
      sends.emplace_back(dst, Word(len >> idb, idb));
      for (std::size_t i = 0; i < nwords; ++i)
        sends.emplace_back(dst, q[pos + 4 + i]);
      pos += 4 + nwords;
    }
  }
  FlatInbox final_in;
  {
    CCQ_TRACE_SPAN(ctx, "blocks-deliver");
    final_in = ctx.exchange_flat(sends);
  }

  struct Received {
    NodeId src;
    std::uint64_t seq;
    BitVector payload;
  };
  std::vector<Received> got;
  for (NodeId mid = 0; mid < n; ++mid) {
    const auto q = final_in.from(mid);
    std::size_t pos = 0;
    while (pos < q.size()) {
      CCQ_CHECK_MSG(pos + 4 <= q.size(), "route_blocks: torn delivery");
      const NodeId src = static_cast<NodeId>(q[pos].value);
      const std::uint64_t seq = q[pos + 1].value;
      const std::uint64_t len = q[pos + 2].value | (q[pos + 3].value << idb);
      const std::size_t nwords = ceil_div(len, B);
      CCQ_CHECK_MSG(pos + 4 + nwords <= q.size(),
                    "route_blocks: torn delivery payload");
      got.push_back({src, seq, decode_words(q.subspan(pos + 4, nwords), len)});
      pos += 4 + nwords;
    }
  }
  for (std::size_t i = 0; i < self_blocks.size(); ++i) {
    got.push_back({ctx.id(), i, *self_blocks[i]});
  }
  std::sort(got.begin(), got.end(), [](const Received& a, const Received& b) {
    return a.src != b.src ? a.src < b.src : a.seq < b.seq;
  });
  std::vector<std::pair<NodeId, BitVector>> out;
  out.reserve(got.size());
  for (auto& r : got) out.emplace_back(r.src, std::move(r.payload));
  return out;
}

}  // namespace ccq
