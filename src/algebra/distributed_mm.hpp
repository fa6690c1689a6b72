#pragma once

// Distributed matrix multiplication on the congested clique.
//
// Input convention (matching how graph problems present themselves in the
// model): node v holds row v of A and row v of B; on return it holds row v
// of C = A·B. Two algorithms:
//
//  * mm_distributed_naive — every node broadcasts its row of B and
//    multiplies locally: Θ(n·w/B) rounds (w = entry bits). The baseline.
//
//  * mm_distributed_3d — the semiring algorithm of Censor-Hillel et al.
//    [10] as cited in §7 of the paper: nodes are identified with triples
//    (i,j,k) ∈ [d]³, d = ⌊n^{1/3}⌋; node (i,j,k) obtains the blocks
//    A[R_i,R_k] and B[R_k,R_j], multiplies them locally, and the partial
//    products are summed at the row owners. O(n^{1/3}·w/B) rounds — this is
//    the δ(semiring MM) ≤ 1/3 edge of Figure 1, and our bench measures it.
//
// Entries are packed `entry_bits` per entry; the paper assumes entries fit
// in O(log n) bits, which callers express by picking entry_bits.

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "algebra/kernels.hpp"
#include "algebra/mm.hpp"
#include "algebra/simd.hpp"
#include "clique/engine.hpp"
#include "util/math.hpp"

namespace ccq {

/// True when encode_value<S>/decode_value<S> are the identity cast (plus a
/// range check): the packed stream is then a plain little-endian scalar
/// stream and the simd word-stream paths may (un)pack it directly. MinPlus
/// is the one exception — its all-ones ∞ codepoint remaps values.
template <Semiring S>
inline constexpr bool kIdentityEncoding =
    !std::is_same_v<S, MinPlusSemiring>;

// ---- value <-> fixed-width bits -----------------------------------------

/// Default encoding: plain unsigned value, must fit entry_bits.
template <Semiring S>
std::uint64_t encode_value(typename S::Value v, unsigned entry_bits) {
  const auto u = static_cast<std::uint64_t>(v);
  if (entry_bits < 64)
    CCQ_CHECK_MSG(u < (std::uint64_t{1} << entry_bits),
                  "matrix entry does not fit in " << entry_bits << " bits");
  return u;
}

template <Semiring S>
typename S::Value decode_value(std::uint64_t u, unsigned /*entry_bits*/) {
  return static_cast<typename S::Value>(u);
}

/// MinPlus: +∞ is encoded as the all-ones pattern; finite distances must
/// leave that codepoint free.
template <>
inline std::uint64_t encode_value<MinPlusSemiring>(
    MinPlusSemiring::Value v, unsigned entry_bits) {
  const std::uint64_t all_ones =
      entry_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << entry_bits) - 1;
  if (v >= MinPlusSemiring::infinity()) return all_ones;
  CCQ_CHECK_MSG(v < all_ones, "finite distance does not fit in "
                                  << entry_bits << " bits");
  return v;
}

template <>
inline MinPlusSemiring::Value decode_value<MinPlusSemiring>(
    std::uint64_t u, unsigned entry_bits) {
  const std::uint64_t all_ones =
      entry_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << entry_bits) - 1;
  return u == all_ones ? MinPlusSemiring::infinity() : u;
}

/// Pack `values` at `entry_bits` per entry into a BitVector, writing whole
/// 64-bit words instead of calling append_bits per entry (which resizes the
/// vector every call). Two bulk paths: when entry_bits divides 64, each
/// output word is filled from a whole number of entries with no carry state;
/// otherwise a shift-carry accumulator spills completed words. Bit layout is
/// identical to the per-entry reference (LSB-first, entry i at bit offset
/// i·entry_bits) — tests/algebra/kernels_test.cpp checks that bit-for-bit.
template <Semiring S>
BitVector pack_entries(std::span<const typename S::Value> values,
                       unsigned entry_bits) {
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  using V = typename S::Value;
  const std::size_t total = values.size() * entry_bits;
  std::vector<std::uint64_t> words(ceil_div(total, 64), 0);
  // Vector word-stream paths for identity-encoded value types. On any
  // out-of-range entry (or a scalar-only dispatch level) they leave `words`
  // in a fully-overwritable state and return false, and the generic writers
  // below redo the pack — re-checking every entry so the canonical range
  // error fires at the exact offending value.
  if constexpr (kIdentityEncoding<S> && sizeof(V) == 1) {
    if (entry_bits == 1 &&
        simd::pack_bits_u8(reinterpret_cast<const std::uint8_t*>(values.data()),
                           values.size(), words.data()))
      return BitVector::from_words(std::move(words), total);
  } else if constexpr (kIdentityEncoding<S> && sizeof(V) == 8) {
    if (simd::pack_words_u64(
            reinterpret_cast<const std::uint64_t*>(values.data()),
            values.size(), entry_bits, words.data()))
      return BitVector::from_words(std::move(words), total);
  }
  if (64 % entry_bits == 0) {
    const unsigned per = 64u / entry_bits;
    std::size_t idx = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t acc = 0;
      const std::size_t lim =
          std::min<std::size_t>(per, values.size() - idx);
      for (unsigned e = 0; e < lim; ++e, ++idx)
        acc |= encode_value<S>(values[idx], entry_bits)
               << (e * entry_bits);
      words[w] = acc;
    }
  } else {
    // entry_bits ∈ (1, 64) and not a divisor, so filled stays in [1, 63]
    // whenever a word spills — the carry shift below never hits 64.
    std::uint64_t acc = 0;
    unsigned filled = 0;
    std::size_t w = 0;
    for (const auto& v : values) {
      const std::uint64_t u = encode_value<S>(v, entry_bits);
      acc |= u << filled;
      if (filled + entry_bits >= 64) {
        words[w++] = acc;
        acc = u >> (64u - filled);
        filled = filled + entry_bits - 64;
      } else {
        filled += entry_bits;
      }
    }
    if (filled > 0) words[w] = acc;
  }
  return BitVector::from_words(std::move(words), total);
}

/// Inverse of pack_entries; same two bulk paths (per-word extraction when
/// entry_bits divides 64, a two-word shift window otherwise).
template <Semiring S>
std::vector<typename S::Value> unpack_entries(const BitVector& bv,
                                              std::size_t count,
                                              unsigned entry_bits) {
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  CCQ_CHECK(bv.size() == count * entry_bits);
  using V = typename S::Value;
  std::vector<V> out;
  // Vector word-stream paths (identity encodings only; bit-for-bit the
  // generic extraction below). False means the scalar dispatch level is
  // active — fall through with the buffer reset.
  if constexpr (kIdentityEncoding<S> && sizeof(V) == 1) {
    if (entry_bits == 1) {
      out.resize(count);
      if (simd::unpack_bits_u8(bv.words().data(), count,
                               reinterpret_cast<std::uint8_t*>(out.data())))
        return out;
      out.clear();
    }
  } else if constexpr (kIdentityEncoding<S> && sizeof(V) == 8) {
    if (entry_bits == 8 || entry_bits == 16 || entry_bits == 32) {
      out.resize(count);
      if (simd::unpack_words_u64(
              bv.words().data(), count, entry_bits,
              reinterpret_cast<std::uint64_t*>(out.data())))
        return out;
      out.clear();
    }
  }
  out.reserve(count);
  const std::uint64_t mask =
      entry_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << entry_bits) - 1;
  if (entry_bits == 64) {
    for (std::size_t i = 0; i < count; ++i)
      out.push_back(decode_value<S>(bv.word(i), entry_bits));
  } else if (64 % entry_bits == 0) {
    const unsigned per = 64u / entry_bits;
    std::size_t idx = 0;
    for (std::size_t w = 0; idx < count; ++w) {
      std::uint64_t cur = bv.word(w);
      for (unsigned e = 0; e < per && idx < count; ++e, ++idx) {
        out.push_back(decode_value<S>(cur & mask, entry_bits));
        cur >>= entry_bits;
      }
    }
  } else {
    const auto& words = bv.words();
    std::size_t pos = 0;
    for (std::size_t i = 0; i < count; ++i, pos += entry_bits) {
      const std::size_t w = pos >> 6;
      const unsigned off = pos & 63;
      std::uint64_t v = words[w] >> off;
      // off + entry_bits > 64 implies off ≥ 1, so 64 − off ≤ 63.
      if (off + entry_bits > 64) v |= words[w + 1] << (64u - off);
      out.push_back(decode_value<S>(v & mask, entry_bits));
    }
  }
  return out;
}

// ---- fused entry <-> word codec -------------------------------------------
//
// The dense MM schedules ship every slice as B-bit message words. The
// two-step form (pack_entries + encode_bits, decode_words + unpack_entries)
// materialises a BitVector and a value vector per slice and appends or
// reads it one word at a time; pack_words/unpack_words stream entries
// straight to words and back. Entries move in 64-bit chunks of ⌊64/w⌋
// entries through one 128-bit accumulator, so the accumulator work is per
// chunk and per word, not per entry (64 Boolean entries share one chunk).
// The word stream is identical to the two-step form (tests/algebra/
// distributed_mm_test.cpp checks it word for word), so every meter is too.

namespace codec_detail {
__extension__ typedef unsigned __int128 u128;

inline std::uint64_t low_mask(unsigned bits) {
  return bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Packs take ≤ ⌊64/entry_bits⌋ entries into one word, entry e at bit
/// e·entry_bits, with encode_value<S>'s range check.
template <Semiring S>
std::uint64_t pack_chunk(const typename S::Value* v, std::size_t take,
                         unsigned entry_bits) {
  std::uint64_t chunk = 0;
  // 0/1 bytes at one bit each: the vector path. It returns false on an
  // out-of-range entry (or a scalar-only dispatch level), and the loop
  // below redoes the chunk and throws the canonical range error.
  if constexpr (kIdentityEncoding<S> && sizeof(typename S::Value) == 1) {
    if (entry_bits == 1 &&
        simd::pack_bits_u8(reinterpret_cast<const std::uint8_t*>(v), take,
                           &chunk))
      return chunk;
    chunk = 0;
  }
  for (std::size_t e = 0; e < take; ++e)
    chunk |= encode_value<S>(v[e], entry_bits) << (e * entry_bits);
  return chunk;
}
}  // namespace codec_detail

/// Words pack_words emits for `count` entries.
inline std::size_t packed_word_count(std::size_t count, unsigned entry_bits,
                                     unsigned word_bits) {
  return ceil_div(count * entry_bits, word_bits);
}

/// Calls emit(Word) for each word of
/// encode_bits(pack_entries<S>(values, entry_bits), word_bits): full
/// word_bits-bit words, then one shorter tail word if the bits run out
/// mid-word. The per-entry range check of encode_value<S> applies.
template <Semiring S, class Emit>
void pack_words(std::span<const typename S::Value> values, unsigned entry_bits,
                unsigned word_bits, Emit&& emit) {
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  CCQ_CHECK(word_bits >= 1 && word_bits <= 64);
  using codec_detail::u128;
  const std::uint64_t wmask = codec_detail::low_mask(word_bits);
  const std::size_t per = 64 / entry_bits;
  // Invariant: filled < word_bits ≤ 64 between chunks, so after adding a
  // chunk (≤ 64 bits) filled < 128 and every shift stays in the accumulator.
  u128 acc = 0;
  unsigned filled = 0;
  for (std::size_t i = 0; i < values.size(); i += per) {
    const std::size_t take = std::min(per, values.size() - i);
    acc |= static_cast<u128>(codec_detail::pack_chunk<S>(values.data() + i,
                                                         take, entry_bits))
           << filled;
    filled += static_cast<unsigned>(take) * entry_bits;
    while (filled >= word_bits) {
      emit(Word(static_cast<std::uint64_t>(acc) & wmask, word_bits));
      acc >>= word_bits;
      filled -= word_bits;
    }
  }
  if (filled > 0) emit(Word(static_cast<std::uint64_t>(acc), filled));
}

/// Inverse of pack_words: decodes `count` entries of `entry_bits` from
/// `words` (any widths, concatenated LSB-first like decode_words) and calls
/// sink(index, value) for each in order (on a copy of `sink`, so a sink
/// keeps its state behind references). Throws ModelViolation on a word
/// whose value does not fit its width, and unless the words carry exactly
/// count·entry_bits bits; a long stream is rejected before any entry past
/// `count` is produced.
template <Semiring S, class Sink>
void unpack_words(std::span<const Word> words, std::size_t count,
                  unsigned entry_bits, Sink&& sink) {
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  using codec_detail::u128;
  const std::size_t want = count * entry_bits;
  const std::uint64_t emask = codec_detail::low_mask(entry_bits);
  const std::size_t per = 64 / entry_bits;
  const unsigned chunk_bits = static_cast<unsigned>(per) * entry_bits;
  std::size_t idx = 0;
  // A local copy of the sink: a byte-sized store through a sink's pointer
  // could otherwise alias the sink object itself, forcing a reload per entry.
  auto put = sink;
  auto take_chunk = [&](std::uint64_t chunk, std::size_t take) {
    const std::size_t base = idx;
    if constexpr (kIdentityEncoding<S> && sizeof(typename S::Value) == 1) {
      std::uint8_t bits[64];
      if (entry_bits == 1 && simd::unpack_bits_u8(&chunk, take, bits)) {
        for (std::size_t e = 0; e < take; ++e)
          put(base + e, static_cast<typename S::Value>(bits[e]));
        idx = base + take;
        return;
      }
    }
    for (std::size_t e = 0; e < take; ++e)
      put(base + e,
          decode_value<S>((chunk >> (e * entry_bits)) & emask, entry_bits));
    idx = base + take;
  };
  // Invariant: filled < chunk_bits ≤ 64 between words, so adding a word
  // (≤ 64 bits) keeps filled < 128. Since got ≤ want, filled never exceeds
  // the bits of the entries still owed, so a full chunk is never taken past
  // `count`; the last, partial chunk is taken after the length check.
  u128 acc = 0;
  unsigned filled = 0;
  std::size_t got = 0;
  for (const Word& w : words) {
    CCQ_CHECK_MSG(w.bits <= 64 && (w.bits == 64 || w.value >> w.bits == 0),
                  "unpack_words: word value " << w.value
                                              << " does not fit in "
                                              << w.bits << " bits");
    got += w.bits;
    CCQ_CHECK_MSG(got <= want, "unpack_words: stream longer than the "
                                   << want << " bits expected");
    acc |= static_cast<u128>(w.value) << filled;
    filled += w.bits;
    while (filled >= chunk_bits) {
      take_chunk(static_cast<std::uint64_t>(acc), per);
      acc >>= chunk_bits;
      filled -= chunk_bits;
    }
  }
  CCQ_CHECK_MSG(got == want,
                "unpack_words: got " << got << " bits, expected " << want);
  take_chunk(static_cast<std::uint64_t>(acc), count - idx);
}

// ---- naive broadcast algorithm -------------------------------------------

template <Semiring S>
std::vector<typename S::Value> mm_distributed_naive(
    NodeCtx& ctx, const std::vector<typename S::Value>& row_a,
    const std::vector<typename S::Value>& row_b, unsigned entry_bits) {
  using V = typename S::Value;
  const NodeId n = ctx.n();
  CCQ_CHECK(row_a.size() == n && row_b.size() == n);

  // Everyone broadcasts its row of B; then row_c = row_a · B locally.
  auto rows =
      ctx.broadcast(pack_entries<S>(std::span<const V>(row_b), entry_bits));
  std::vector<V> row_c(n, S::zero());
  if constexpr (std::is_same_v<S, BoolSemiring>) {
    if (entry_bits == 1) {
      // Word-level local step: each broadcast row *is* a bit vector, so
      // row_c = OR of rows[k] over set bits of row_a — no unpack at all.
      // Sound only for 0/1 entries (mul is bitwise AND over bytes).
      bool domain_ok = true;
      for (NodeId k = 0; k < n; ++k) domain_ok &= row_a[k] <= 1;
      if (domain_ok) {
        BitVector acc(n);
        for (NodeId k = 0; k < n; ++k)
          if (row_a[k] != 0) acc |= rows[k];
        for (NodeId j = 0; j < n; ++j)
          row_c[j] = static_cast<V>(acc.get(j));
        return row_c;
      }
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    if (row_a[k] == S::zero()) continue;
    const auto bk = unpack_entries<S>(rows[k], n, entry_bits);
    for (NodeId j = 0; j < n; ++j)
      row_c[j] = S::add(row_c[j], S::mul(row_a[k], bk[j]));
  }
  return row_c;
}

// ---- 3-D partitioned algorithm -------------------------------------------

namespace mm3d_detail {

struct Layout {
  NodeId n;
  NodeId d;  ///< cube side ⌊n^{1/3}⌋
  NodeId q;  ///< range width ⌈n/d⌉

  explicit Layout(NodeId n_)
      : n(n_),
        d(static_cast<NodeId>(std::max<std::uint64_t>(1, floor_root(n_, 3)))),
        q(static_cast<NodeId>(ceil_div(n_, d))) {}

  NodeId range_begin(NodeId t) const { return std::min<NodeId>(t * q, n); }
  NodeId range_end(NodeId t) const { return std::min<NodeId>((t + 1) * q, n); }
  NodeId range_size(NodeId t) const { return range_end(t) - range_begin(t); }
  /// Which range contains row r.
  NodeId range_of(NodeId r) const { return r / q; }

  bool is_worker(NodeId v) const {
    return v < static_cast<std::uint64_t>(d) * d * d;
  }
  NodeId worker(NodeId i, NodeId j, NodeId k) const {
    return (i * d + j) * d + k;
  }
  NodeId wi(NodeId v) const { return v / (d * d); }
  NodeId wj(NodeId v) const { return (v / d) % d; }
  NodeId wk(NodeId v) const { return v % d; }
};

/// Decodes the next `width`-entry slice of a positional inbox stream (a
/// source's slices sent back to back, each padded to whole B-bit words)
/// straight into `dst`, and advances `pos_words` past it.
template <Semiring S>
void unpack_slice(std::span<const Word> q, std::size_t& pos_words,
                  NodeId width, unsigned entry_bits, unsigned B,
                  typename S::Value* dst) {
  const std::size_t nw = packed_word_count(width, entry_bits, B);
  CCQ_CHECK_MSG(pos_words + nw <= q.size(),
                "dense mm: inbox ends inside a slice");
  unpack_words<S>(q.subspan(pos_words, nw), width, entry_bits,
                  [dst](std::size_t c, typename S::Value v) { dst[c] = v; });
  pos_words += nw;
}

}  // namespace mm3d_detail

template <Semiring S>
std::vector<typename S::Value> mm_distributed_3d(
    NodeCtx& ctx, const std::vector<typename S::Value>& row_a,
    const std::vector<typename S::Value>& row_b, unsigned entry_bits) {
  using V = typename S::Value;
  using mm3d_detail::Layout;
  const NodeId n = ctx.n();
  const Layout L(n);
  const NodeId me = ctx.id();
  const unsigned B = ctx.bandwidth();
  CCQ_CHECK(row_a.size() == n && row_b.size() == n);

  // Words per slice of range t; every slice of a range has the same width,
  // so these also size the send lists exactly.
  auto slice_words = [&](NodeId t) {
    return packed_word_count(L.range_size(t), entry_bits, B);
  };

  // ---- Step A: distribute input blocks.
  // Sender v: A_v[R_k] -> worker (range_of(v), j, k) for all j, k;
  //           B_v[R_j] -> worker (i, j, range_of(v)) for all i, j.
  auto& phase_a = ctx.send_list();
  {
    const NodeId iv = L.range_of(me);
    // The A payload for destination (iv, j, k) depends only on k, and the
    // B payload for (i, j, iv) only on j — pack each slice once and replay
    // the words per destination (d× fewer pack calls). The emission order
    // below is identical to packing inside the loops, so the word stream
    // and every meter are unchanged. words[off[t]..off[t+1]) holds A's
    // slice t, the same range shifted by off[d] holds B's.
    std::vector<std::size_t> off(L.d + 1, 0);
    for (NodeId t = 0; t < L.d; ++t) off[t + 1] = off[t] + slice_words(t);
    std::vector<Word> words;
    words.reserve(2 * off[L.d]);
    auto push = [&](Word w) { words.push_back(w); };
    for (NodeId t = 0; t < L.d; ++t)
      pack_words<S>(std::span<const V>(row_a).subspan(L.range_begin(t),
                                                      L.range_size(t)),
                    entry_bits, B, push);
    for (NodeId t = 0; t < L.d; ++t)
      pack_words<S>(std::span<const V>(row_b).subspan(L.range_begin(t),
                                                      L.range_size(t)),
                    entry_bits, B, push);
    phase_a.reserve(2 * static_cast<std::size_t>(L.d) * off[L.d]);
    auto replay = [&](NodeId dst, std::size_t lo, std::size_t hi) {
      for (std::size_t w = lo; w < hi; ++w) phase_a.emplace_back(dst, words[w]);
    };
    for (NodeId j = 0; j < L.d; ++j)
      for (NodeId k = 0; k < L.d; ++k)  // A slice to worker (iv, j, k)
        replay(L.worker(iv, j, k), off[k], off[k + 1]);
    for (NodeId i = 0; i < L.d; ++i)
      for (NodeId j = 0; j < L.d; ++j)  // B slice to worker (i, j, iv)
        replay(L.worker(i, j, iv), off[L.d] + off[j], off[L.d] + off[j + 1]);
  }
  const FlatInbox inbox_a = ctx.exchange_flat(phase_a);

  // ---- Step B: workers assemble blocks and multiply locally.
  Matrix<V> partial;  // |R_i| x |R_j| block of partial products
  if (L.is_worker(me)) {
    const NodeId i = L.wi(me), j = L.wj(me), k = L.wk(me);
    const NodeId ri = L.range_size(i), rj = L.range_size(j),
                 rk = L.range_size(k);
    Matrix<V> a_blk(ri, rk, S::zero()), b_blk(rk, rj, S::zero());
    // From source v in R_i we got A_v[R_k] (v sent it because
    // range_of(v)==i and our (j,k) matched); from source v in R_k we got
    // B_v[R_j]. A source in both ranges sent A first, then B — but the two
    // sends were queued by different loops, A-loop first for matching
    // destinations. Decode positionally, straight into the block rows.
    for (NodeId src = 0; src < n; ++src) {
      const auto q = inbox_a.from(src);
      if (q.empty()) continue;
      std::size_t pos_words = 0;
      if (L.range_of(src) == i)
        mm3d_detail::unpack_slice<S>(q, pos_words, rk, entry_bits, B,
                                     a_blk.row_data(src - L.range_begin(i)));
      if (L.range_of(src) == k)
        mm3d_detail::unpack_slice<S>(q, pos_words, rj, entry_bits, B,
                                     b_blk.row_data(src - L.range_begin(k)));
      CCQ_CHECK_MSG(pos_words == q.size(), "mm_3d: stray words in inbox");
    }
    // Serial kernel dispatch: this runs inside a node program (scheduler
    // fiber), so the local step must never block on the kernel pool.
    partial = kernels::mm_local<S>(a_blk, b_blk);
  }

  // ---- Step C: return partial rows to their owners and reduce.
  auto& phase_c = ctx.send_list();  // phase_a is delivered; reuse it
  if (L.is_worker(me)) {
    const NodeId i = L.wi(me);
    phase_c.reserve(L.range_size(i) * slice_words(L.wj(me)));
    for (NodeId r = L.range_begin(i); r < L.range_end(i); ++r) {
      // Pack straight from the row (contiguous row-major storage).
      pack_words<S>(std::span<const V>(partial.row_data(r - L.range_begin(i)),
                                       partial.cols()),
                    entry_bits, B, [&](Word w) { phase_c.emplace_back(r, w); });
    }
  }
  const FlatInbox inbox_c = ctx.exchange_flat(phase_c);

  std::vector<V> row_c(n, S::zero());
  {
    const NodeId i = L.range_of(me);
    for (NodeId src = 0; src < n; ++src) {
      const auto q = inbox_c.from(src);
      if (q.empty()) continue;
      CCQ_CHECK_MSG(L.is_worker(src) && L.wi(src) == i,
                    "mm_3d: partial row from unexpected worker");
      const NodeId j = L.wj(src);
      V* dst = row_c.data() + L.range_begin(j);
      unpack_words<S>(q, L.range_size(j), entry_bits,
                      [dst](std::size_t c, V v) { dst[c] = S::add(dst[c], v); });
    }
  }
  return row_c;
}

// ---- rectangular shapes & the sparse nonzero-block schedule ---------------
//
// mm_distributed_rect generalises the 3-D schedule to C[n1×n3] =
// A[n1×n2]·B[n2×n3]: node v < n1 holds row v of A, node v < n2 holds row v
// of B, and on return node v < n1 holds row v of C. The worker grid uses
// independent per-dimension part counts d1·d2·d3 ≤ n instead of a cube.
//
// mm_distributed_sparse runs the same schedule but ships only nonzero
// content (DESIGN.md §13): a block-occupancy descriptor round tells each
// worker the per-slice nonzero counts, then every slice travels either as
// strictly-increasing (index,value) runs or — when the count makes runs no
// cheaper — in the dense packed format, the choice being a pure function of
// the agreed count. Partial result rows travel the same way, prefixed by a
// self-describing count. Measured bits therefore scale with nnz, and every
// structural corruption of a descriptor (drop, flip) makes the declared and
// received payload widths disagree, which the receivers CCQ_CHECK.

/// Shape of a rectangular product C[n1×n3] = A[n1×n2] · B[n2×n3].
struct MmShape {
  NodeId n1, n2, n3;
};

namespace mmrect_detail {

/// Bits for an index into a slice of `width` entries.
inline unsigned slice_index_bits(NodeId width) {
  return width <= 1 ? 1u : ceil_log2(width);
}

/// Bits for a nonzero count in [0, width].
inline unsigned slice_count_bits(NodeId width) {
  return std::max(1u, ceil_log2(static_cast<std::uint64_t>(width) + 1));
}

/// Deterministic per-slice mode rule, computable by sender and receiver
/// from the agreed count alone: ship (index,value) runs iff strictly
/// cheaper than the dense packed slice (ties go dense, so a fully dense
/// input degenerates to the dense 3-D schedule plus descriptors).
inline bool slice_runs_sparse(NodeId width, NodeId count,
                              unsigned entry_bits) {
  return static_cast<std::uint64_t>(count) *
             (slice_index_bits(width) + entry_bits) <
         static_cast<std::uint64_t>(width) * entry_bits;
}

/// Payload bits a slice with `count` nonzeros occupies (0 ⇒ nothing sent).
inline std::size_t slice_payload_bits(NodeId width, NodeId count,
                                      unsigned entry_bits) {
  if (count == 0) return 0;
  return slice_runs_sparse(width, count, entry_bits)
             ? static_cast<std::size_t>(count) *
                   (slice_index_bits(width) + entry_bits)
             : static_cast<std::size_t>(width) * entry_bits;
}

/// Per-dimension block grids: dim 0 indexes C/A row ranges (d1 parts of
/// [n1]), dim 1 the inner ranges (d2 parts of [n2]), dim 2 the C/B column
/// ranges (d3 parts of [n3]). Worker (i,j,k) = (i·d3+j)·d2+k multiplies
/// A[R⁰_i, R¹_k] · B[R¹_k, R²_j].
struct RectLayout {
  NodeId n[3];
  NodeId d[3];
  NodeId q[3];

  RectLayout(NodeId nodes, MmShape s) {
    CCQ_CHECK_MSG(s.n1 >= 1 && s.n2 >= 1 && s.n3 >= 1,
                  "mm shape dimensions must be positive");
    CCQ_CHECK_MSG(s.n1 <= nodes && s.n2 <= nodes,
                  "row-holding mm dimensions must fit the clique");
    n[0] = s.n1;
    n[1] = s.n2;
    n[2] = s.n3;
    d[0] = d[1] = d[2] = 1;
    // Deterministic greedy grid: repeatedly split the dimension with the
    // widest parts (ties → lowest index) while the grid fits the clique.
    // For square shapes on a perfect cube n this is the ⌊n^{1/3}⌋ cube of
    // Layout; otherwise the grid may be uneven and differ from the cube
    // (n = 100: a 5·5·4 grid and 11 rounds for the Boolean product, against
    // 4³ and 12 rounds for mm_distributed_3d).
    for (;;) {
      int best = -1;
      NodeId best_w = 0;
      for (int t = 0; t < 3; ++t) {
        if (d[t] >= n[t]) continue;
        const std::uint64_t grown = static_cast<std::uint64_t>(d[0]) * d[1] *
                                    d[2] / d[t] * (d[t] + 1);
        if (grown > nodes) continue;
        const NodeId w = static_cast<NodeId>(ceil_div(n[t], d[t]));
        if (w > best_w) {
          best = t;
          best_w = w;
        }
      }
      if (best < 0) break;
      ++d[best];
    }
    for (int t = 0; t < 3; ++t)
      q[t] = static_cast<NodeId>(ceil_div(n[t], d[t]));
  }

  NodeId begin(int t, NodeId r) const { return std::min(r * q[t], n[t]); }
  NodeId end(int t, NodeId r) const {
    return std::min((r + 1) * q[t], n[t]);
  }
  NodeId size(int t, NodeId r) const { return end(t, r) - begin(t, r); }
  /// Which part contains index v (v < n[t]).
  NodeId of(int t, NodeId v) const { return v / q[t]; }

  bool is_worker(NodeId v) const {
    return v < static_cast<std::uint64_t>(d[0]) * d[1] * d[2];
  }
  NodeId worker(NodeId i, NodeId j, NodeId k) const {
    return (i * d[2] + j) * d[1] + k;
  }
  NodeId wi(NodeId v) const { return v / (d[1] * d[2]); }
  NodeId wj(NodeId v) const { return (v / d[1]) % d[2]; }
  NodeId wk(NodeId v) const { return v % d[1]; }
};

}  // namespace mmrect_detail

/// Dense rectangular 3-D schedule. Node v < n1 passes row v of A (length
/// n2), node v < n2 passes row v of B (length n3); other nodes pass empty
/// spans. Returns row v of C (length n3) for v < n1, an empty vector
/// otherwise.
template <Semiring S>
std::vector<typename S::Value> mm_distributed_rect(
    NodeCtx& ctx, MmShape shape, std::span<const typename S::Value> row_a,
    std::span<const typename S::Value> row_b, unsigned entry_bits) {
  using V = typename S::Value;
  using mmrect_detail::RectLayout;
  const NodeId nn = ctx.n();
  const RectLayout L(nn, shape);
  const NodeId me = ctx.id();
  const unsigned B = ctx.bandwidth();
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  const bool holds_a = me < L.n[0];
  const bool holds_b = me < L.n[1];
  CCQ_CHECK(!holds_a || row_a.size() == L.n[1]);
  CCQ_CHECK(!holds_b || row_b.size() == L.n[2]);
  CCQ_TRACE_SPAN(ctx, "mm-rect");

  // ---- Step A: distribute input slices (A first, then B, so a worker
  // receiving both from one source decodes positionally). Each slice is
  // packed once and replayed to every destination that needs it.
  auto& phase_a = ctx.send_list();
  {
    std::size_t total = 0;
    if (holds_a)
      for (NodeId k = 0; k < L.d[1]; ++k)
        total += L.d[2] * packed_word_count(L.size(1, k), entry_bits, B);
    if (holds_b)
      for (NodeId j = 0; j < L.d[2]; ++j)
        total += L.d[0] * packed_word_count(L.size(2, j), entry_bits, B);
    phase_a.reserve(total);
  }
  std::vector<Word> words;
  auto push = [&](Word w) { words.push_back(w); };
  if (holds_a) {
    const NodeId iv = L.of(0, me);
    for (NodeId k = 0; k < L.d[1]; ++k) {
      words.clear();
      pack_words<S>(row_a.subspan(L.begin(1, k), L.size(1, k)), entry_bits,
                    B, push);
      for (NodeId j = 0; j < L.d[2]; ++j)
        for (const Word& w : words)
          phase_a.emplace_back(L.worker(iv, j, k), w);
    }
  }
  if (holds_b) {
    const NodeId kv = L.of(1, me);
    for (NodeId j = 0; j < L.d[2]; ++j) {
      words.clear();
      pack_words<S>(row_b.subspan(L.begin(2, j), L.size(2, j)), entry_bits,
                    B, push);
      for (NodeId i = 0; i < L.d[0]; ++i)
        for (const Word& w : words)
          phase_a.emplace_back(L.worker(i, j, kv), w);
    }
  }
  const FlatInbox inbox_a = ctx.exchange_flat(phase_a);

  // ---- Step B: workers assemble their blocks and multiply locally.
  Matrix<V> partial;
  if (L.is_worker(me)) {
    const NodeId i = L.wi(me), j = L.wj(me), k = L.wk(me);
    const NodeId ri = L.size(0, i), rj = L.size(2, j), rk = L.size(1, k);
    Matrix<V> a_blk(ri, rk, S::zero()), b_blk(rk, rj, S::zero());
    for (NodeId src = 0; src < nn; ++src) {
      const auto q = inbox_a.from(src);
      const bool sends_a = src < L.n[0] && L.of(0, src) == i;
      const bool sends_b = src < L.n[1] && L.of(1, src) == k;
      if (!sends_a && !sends_b) {
        CCQ_CHECK_MSG(q.empty(), "mm_rect: words from unexpected source");
        continue;
      }
      std::size_t pos_words = 0;
      if (sends_a)
        mm3d_detail::unpack_slice<S>(q, pos_words, rk, entry_bits, B,
                                     a_blk.row_data(src - L.begin(0, i)));
      if (sends_b)
        mm3d_detail::unpack_slice<S>(q, pos_words, rj, entry_bits, B,
                                     b_blk.row_data(src - L.begin(1, k)));
      CCQ_CHECK_MSG(pos_words == q.size(), "mm_rect: stray words in inbox");
    }
    partial = kernels::mm_local<S>(a_blk, b_blk);
  }

  // ---- Step C: return partial rows to their owners and reduce.
  auto& phase_c = ctx.send_list();  // phase_a is delivered; reuse it
  if (L.is_worker(me)) {
    const NodeId i = L.wi(me);
    phase_c.reserve(L.size(0, i) *
                    packed_word_count(partial.cols(), entry_bits, B));
    for (NodeId r = L.begin(0, i); r < L.end(0, i); ++r)
      pack_words<S>(std::span<const V>(partial.row_data(r - L.begin(0, i)),
                                       partial.cols()),
                    entry_bits, B, [&](Word w) { phase_c.emplace_back(r, w); });
  }
  const FlatInbox inbox_c = ctx.exchange_flat(phase_c);

  std::vector<V> row_c;
  if (holds_a) {
    row_c.assign(L.n[2], S::zero());
    const NodeId i = L.of(0, me);
    for (NodeId src = 0; src < nn; ++src) {
      const auto q = inbox_c.from(src);
      if (q.empty()) continue;
      CCQ_CHECK_MSG(L.is_worker(src) && L.wi(src) == i,
                    "mm_rect: partial row from unexpected worker");
      const NodeId j = L.wj(src);
      V* dst = row_c.data() + L.begin(2, j);
      unpack_words<S>(q, L.size(2, j), entry_bits,
                      [dst](std::size_t c, V v) { dst[c] = S::add(dst[c], v); });
    }
  } else {
    for (NodeId src = 0; src < nn; ++src)
      CCQ_CHECK_MSG(inbox_c.from(src).empty(),
                    "mm_rect: partial row sent to a non-owner");
  }
  return row_c;
}

/// Sparsity-aware rectangular schedule: same shape convention and worker
/// grid as mm_distributed_rect, but only nonzero content is exchanged, so
/// measured bits scale with nnz. Three collectives: a descriptor round
/// (per-slice nonzero counts), the slice payloads (runs or dense per the
/// count rule), and the partial-row reduction (count-prefixed rows, empty
/// rows free). All three are validated receiver-side; any width or count
/// inconsistency throws ModelViolation.
template <Semiring S>
std::vector<typename S::Value> mm_distributed_sparse(
    NodeCtx& ctx, MmShape shape, std::span<const typename S::Value> row_a,
    std::span<const typename S::Value> row_b, unsigned entry_bits) {
  using V = typename S::Value;
  using namespace mmrect_detail;
  const NodeId nn = ctx.n();
  const RectLayout L(nn, shape);
  const NodeId me = ctx.id();
  const unsigned B = ctx.bandwidth();
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  const bool holds_a = me < L.n[0];
  const bool holds_b = me < L.n[1];
  CCQ_CHECK(!holds_a || row_a.size() == L.n[1]);
  CCQ_CHECK(!holds_b || row_b.size() == L.n[2]);
  CCQ_TRACE_SPAN(ctx, "mm-sparse");

  auto append_bv = [](BitVector& dst, const BitVector& src) {
    std::size_t pos = 0;
    while (pos < src.size()) {
      const unsigned take =
          static_cast<unsigned>(std::min<std::size_t>(64, src.size() - pos));
      dst.append_bits(src.read_bits(pos, take), take);
      pos += take;
    }
  };

  // Encode one of my input slices (count + payload per the mode rule).
  auto encode_slice = [&](std::span<const V> row, int dim, NodeId t,
                          NodeId& count_out) {
    const NodeId lo = L.begin(dim, t), width = L.size(dim, t);
    NodeId count = 0;
    for (NodeId c = 0; c < width; ++c)
      if (row[lo + c] != S::zero()) ++count;
    count_out = count;
    BitVector bv;
    if (count == 0) return bv;
    if (slice_runs_sparse(width, count, entry_bits)) {
      const unsigned ib = slice_index_bits(width);
      for (NodeId c = 0; c < width; ++c) {
        if (row[lo + c] == S::zero()) continue;
        bv.append_bits(c, ib);
        bv.append_bits(encode_value<S>(row[lo + c], entry_bits), entry_bits);
      }
    } else {
      for (NodeId c = 0; c < width; ++c)
        bv.append_bits(encode_value<S>(row[lo + c], entry_bits), entry_bits);
    }
    return bv;
  };

  // Decode one slice with an agreed count into (index, value) pairs.
  auto parse_slice = [&](const BitVector& bv, std::size_t& pos, NodeId width,
                         NodeId count, std::vector<std::uint32_t>& cols,
                         std::vector<V>& vals) {
    if (slice_runs_sparse(width, count, entry_bits)) {
      const unsigned ib = slice_index_bits(width);
      std::uint64_t prev = ~std::uint64_t{0};
      for (NodeId t = 0; t < count; ++t) {
        const std::uint64_t idx = bv.read_bits(pos, ib);
        pos += ib;
        CCQ_CHECK_MSG(idx < width && (prev == ~std::uint64_t{0} || idx > prev),
                      "mm_sparse: corrupt slice run indices");
        prev = idx;
        cols.push_back(static_cast<std::uint32_t>(idx));
        vals.push_back(
            decode_value<S>(bv.read_bits(pos, entry_bits), entry_bits));
        pos += entry_bits;
      }
    } else {
      NodeId found = 0;
      for (NodeId c = 0; c < width; ++c) {
        const V v = decode_value<S>(bv.read_bits(pos, entry_bits), entry_bits);
        pos += entry_bits;
        if (v != S::zero()) {
          cols.push_back(c);
          vals.push_back(v);
          ++found;
        }
      }
      CCQ_CHECK_MSG(found == count, "mm_sparse: dense slice count mismatch");
    }
  };

  // Pre-encode my slices once (payloads are identical across replicas).
  std::vector<NodeId> a_cnt(holds_a ? L.d[1] : 0, 0);
  std::vector<NodeId> b_cnt(holds_b ? L.d[2] : 0, 0);
  std::vector<BitVector> a_pay(a_cnt.size()), b_pay(b_cnt.size());
  if (holds_a)
    for (NodeId k = 0; k < L.d[1]; ++k)
      a_pay[k] = encode_slice(row_a, 1, k, a_cnt[k]);
  if (holds_b)
    for (NodeId j = 0; j < L.d[2]; ++j)
      b_pay[j] = encode_slice(row_b, 2, j, b_cnt[j]);
  const NodeId iv = holds_a ? L.of(0, me) : 0;
  const NodeId kv = holds_b ? L.of(1, me) : 0;

  // ---- Phase 0: block-occupancy descriptors. Destination (i,j,k) learns
  // the nonzero count of my A slice k (if of⁰(me)=i) and of my B slice j
  // (if of¹(me)=k); a destination owed both gets one combined descriptor
  // from the A loop. All-zero descriptors are simply not sent.
  std::vector<std::pair<NodeId, Word>> phase0;
  if (holds_a) {
    for (NodeId k = 0; k < L.d[1]; ++k) {
      const NodeId wk = L.size(1, k);
      const bool overlap = holds_b && k == kv;
      for (NodeId j = 0; j < L.d[2]; ++j) {
        const NodeId wj = L.size(2, j);
        BitVector bv;
        bool any = false;
        if (wk > 0) {
          bv.append_bits(a_cnt[k], slice_count_bits(wk));
          any |= a_cnt[k] > 0;
        }
        if (overlap && wj > 0) {
          bv.append_bits(b_cnt[j], slice_count_bits(wj));
          any |= b_cnt[j] > 0;
        }
        if (!any) continue;
        for (const Word& w : encode_bits(bv, B))
          phase0.emplace_back(L.worker(iv, j, k), w);
      }
    }
  }
  if (holds_b) {
    for (NodeId j = 0; j < L.d[2]; ++j) {
      const NodeId wj = L.size(2, j);
      if (wj == 0 || b_cnt[j] == 0) continue;
      for (NodeId i = 0; i < L.d[0]; ++i) {
        if (holds_a && i == iv) continue;  // combined in the A loop above
        BitVector bv;
        bv.append_bits(b_cnt[j], slice_count_bits(wj));
        for (const Word& w : encode_bits(bv, B))
          phase0.emplace_back(L.worker(i, j, kv), w);
      }
    }
  }
  const FlatInbox inbox0 = ctx.exchange_flat(phase0);

  // Workers record per-source agreed counts.
  std::vector<NodeId> cnt_a_from, cnt_b_from;
  NodeId bi = 0, bj = 0, bk = 0;   // my worker coordinates
  NodeId ri = 0, rj = 0, rk = 0;   // my block dimensions
  if (L.is_worker(me)) {
    bi = L.wi(me), bj = L.wj(me), bk = L.wk(me);
    ri = L.size(0, bi), rj = L.size(2, bj), rk = L.size(1, bk);
    cnt_a_from.assign(nn, 0);
    cnt_b_from.assign(nn, 0);
    for (NodeId src = 0; src < nn; ++src) {
      const auto q = inbox0.from(src);
      const bool qa = src < L.n[0] && L.of(0, src) == bi && rk > 0;
      const bool qb = src < L.n[1] && L.of(1, src) == bk && rj > 0;
      if (q.empty()) continue;  // all counts zero (or non-sender)
      CCQ_CHECK_MSG(qa || qb, "mm_sparse: descriptor from unexpected source");
      const std::size_t total = (qa ? slice_count_bits(rk) : 0) +
                                (qb ? slice_count_bits(rj) : 0);
      const BitVector bv = decode_words(q, total);
      std::size_t pos = 0;
      if (qa) {
        cnt_a_from[src] =
            static_cast<NodeId>(bv.read_bits(pos, slice_count_bits(rk)));
        pos += slice_count_bits(rk);
        CCQ_CHECK_MSG(cnt_a_from[src] <= rk,
                      "mm_sparse: A slice count exceeds its width");
      }
      if (qb) {
        cnt_b_from[src] =
            static_cast<NodeId>(bv.read_bits(pos, slice_count_bits(rj)));
        CCQ_CHECK_MSG(cnt_b_from[src] <= rj,
                      "mm_sparse: B slice count exceeds its width");
      }
    }
  } else {
    for (NodeId src = 0; src < nn; ++src)
      CCQ_CHECK_MSG(inbox0.from(src).empty(),
                    "mm_sparse: descriptor sent to a non-worker");
  }

  // ---- Phase A: slice payloads, gated and framed by the agreed counts.
  std::vector<std::pair<NodeId, Word>> phase_a;
  if (holds_a) {
    for (NodeId k = 0; k < L.d[1]; ++k) {
      const bool overlap = holds_b && k == kv;
      for (NodeId j = 0; j < L.d[2]; ++j) {
        BitVector bv;
        if (a_cnt[k] > 0) append_bv(bv, a_pay[k]);
        if (overlap && b_cnt[j] > 0) append_bv(bv, b_pay[j]);
        if (bv.size() == 0) continue;
        for (const Word& w : encode_bits(bv, B))
          phase_a.emplace_back(L.worker(iv, j, k), w);
      }
    }
  }
  if (holds_b) {
    for (NodeId j = 0; j < L.d[2]; ++j) {
      if (b_cnt[j] == 0) continue;
      for (NodeId i = 0; i < L.d[0]; ++i) {
        if (holds_a && i == iv) continue;
        for (const Word& w : encode_bits(b_pay[j], B))
          phase_a.emplace_back(L.worker(i, j, kv), w);
      }
    }
  }
  const FlatInbox inbox_a = ctx.exchange_flat(phase_a);

  // ---- Local step: assemble CSR blocks, multiply (sparse or dense kernel
  // — identical values either way), keep the nonzero runs per partial row.
  std::vector<std::vector<std::pair<NodeId, V>>> c_runs;
  if (L.is_worker(me)) {
    std::vector<std::vector<std::uint32_t>> a_cols(ri), b_cols(rk);
    std::vector<std::vector<V>> a_vals(ri), b_vals(rk);
    for (NodeId src = 0; src < nn; ++src) {
      const auto q = inbox_a.from(src);
      const bool qa = src < L.n[0] && L.of(0, src) == bi;
      const bool qb = src < L.n[1] && L.of(1, src) == bk;
      const NodeId ca = qa ? cnt_a_from[src] : 0;
      const NodeId cb = qb ? cnt_b_from[src] : 0;
      const std::size_t expect = slice_payload_bits(rk, ca, entry_bits) +
                                 slice_payload_bits(rj, cb, entry_bits);
      if (expect == 0) {
        CCQ_CHECK_MSG(q.empty(), "mm_sparse: payload without a descriptor");
        continue;
      }
      const BitVector bv = decode_words(q, expect);
      std::size_t pos = 0;
      if (ca > 0)
        parse_slice(bv, pos, rk, ca, a_cols[src - L.begin(0, bi)],
                    a_vals[src - L.begin(0, bi)]);
      if (cb > 0)
        parse_slice(bv, pos, rj, cb, b_cols[src - L.begin(1, bk)],
                    b_vals[src - L.begin(1, bk)]);
    }
    SparseMatrix<V> a_csr(rk), b_csr(rj);
    for (NodeId r = 0; r < ri; ++r) a_csr.push_row(a_cols[r], a_vals[r]);
    for (NodeId r = 0; r < rk; ++r) b_csr.push_row(b_cols[r], b_vals[r]);
    c_runs.assign(ri, {});
    const bool sparse_local =
        a_csr.density() <= kernels::kSparseDispatchMaxDensity &&
        b_csr.density() <= kernels::kSparseDispatchMaxDensity;
    if (sparse_local) {
      // spgemm_auto: serial here (node programs run on engine fibers, so
      // the kernel pool is never available), pool-parallel for any future
      // centralised caller — identical output either way.
      const auto c_csr = kernels::spgemm_auto<S>(a_csr, b_csr);
      for (NodeId r = 0; r < ri; ++r)
        for (std::size_t t = c_csr.row_begin(r); t < c_csr.row_end(r); ++t)
          if (c_csr.values()[t] != S::zero())
            c_runs[r].emplace_back(c_csr.col_idx()[t], c_csr.values()[t]);
    } else {
      const auto c_dense = kernels::mm_local<S>(
          a_csr.template to_dense<S>(), b_csr.template to_dense<S>());
      for (NodeId r = 0; r < ri; ++r) {
        const V* row = c_dense.row_data(r);
        for (NodeId c = 0; c < rj; ++c)
          if (row[c] != S::zero()) c_runs[r].emplace_back(c, row[c]);
      }
    }
  }

  // ---- Phase C: count-prefixed partial rows to their owners; empty
  // partial rows cost nothing.
  std::vector<std::pair<NodeId, Word>> phase_c;
  if (L.is_worker(me) && rj > 0) {
    const unsigned cb = slice_count_bits(rj);
    const unsigned ib = slice_index_bits(rj);
    for (NodeId r = 0; r < ri; ++r) {
      const auto& runs = c_runs[r];
      if (runs.empty()) continue;
      const NodeId count = static_cast<NodeId>(runs.size());
      BitVector bv;
      bv.append_bits(count, cb);
      if (slice_runs_sparse(rj, count, entry_bits)) {
        for (const auto& [c, v] : runs) {
          bv.append_bits(c, ib);
          bv.append_bits(encode_value<S>(v, entry_bits), entry_bits);
        }
      } else {
        std::vector<V> dense(rj, S::zero());
        for (const auto& [c, v] : runs) dense[c] = v;
        for (NodeId c = 0; c < rj; ++c)
          bv.append_bits(encode_value<S>(dense[c], entry_bits), entry_bits);
      }
      const NodeId owner = L.begin(0, bi) + r;
      for (const Word& w : encode_bits(bv, B)) phase_c.emplace_back(owner, w);
    }
  }
  const FlatInbox inbox_c = ctx.exchange_flat(phase_c);

  std::vector<V> row_c;
  if (holds_a) {
    row_c.assign(L.n[2], S::zero());
    const NodeId oi = L.of(0, me);
    std::vector<std::uint32_t> cols;
    std::vector<V> vals;
    for (NodeId src = 0; src < nn; ++src) {
      const auto q = inbox_c.from(src);
      if (q.empty()) continue;
      CCQ_CHECK_MSG(L.is_worker(src) && L.wi(src) == oi,
                    "mm_sparse: partial row from unexpected worker");
      const NodeId j = L.wj(src);
      const NodeId width = L.size(2, j);
      CCQ_CHECK_MSG(width > 0, "mm_sparse: partial row for an empty range");
      const unsigned cb = slice_count_bits(width);
      std::size_t total = 0;
      for (const Word& w : q) total += w.bits;
      CCQ_CHECK_MSG(total >= cb, "mm_sparse: truncated partial-row payload");
      const BitVector bv = decode_words(q, total);
      const NodeId count = static_cast<NodeId>(bv.read_bits(0, cb));
      CCQ_CHECK_MSG(count >= 1 && count <= width,
                    "mm_sparse: corrupt partial-row count");
      CCQ_CHECK_MSG(
          total == cb + slice_payload_bits(width, count, entry_bits),
          "mm_sparse: partial-row payload width mismatch");
      std::size_t pos = cb;
      cols.clear();
      vals.clear();
      parse_slice(bv, pos, width, count, cols, vals);
      for (std::size_t t = 0; t < cols.size(); ++t) {
        const NodeId col = L.begin(2, j) + cols[t];
        row_c[col] = S::add(row_c[col], vals[t]);
      }
    }
  } else {
    for (NodeId src = 0; src < nn; ++src)
      CCQ_CHECK_MSG(inbox_c.from(src).empty(),
                    "mm_sparse: partial row sent to a non-owner");
  }
  return row_c;
}

}  // namespace ccq
