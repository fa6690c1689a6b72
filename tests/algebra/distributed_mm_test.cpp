#include "algebra/distributed_mm.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "graph/generators.hpp"
#include "graphalg/common.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

// Local copy of the algorithm selector (the canonical one lives in
// graphalg/apsp.hpp; tests of the algebra layer stay below graphalg).
enum class MmAlgo { kNaiveBroadcast, k3dPartition };

// ---------- entry packing ----------

TEST(EntryPacking, RoundTripPlain) {
  std::vector<BoolSemiring::Value> vals = {1, 0, 1, 1, 0};
  auto bv = pack_entries<BoolSemiring>(
      std::span<const BoolSemiring::Value>(vals), 1);
  EXPECT_EQ(bv.size(), 5u);
  auto back = unpack_entries<BoolSemiring>(bv, 5, 1);
  EXPECT_EQ(back, vals);
}

TEST(EntryPacking, RoundTripMinPlusWithInfinity) {
  using V = MinPlusSemiring::Value;
  std::vector<V> vals = {0, 7, MinPlusSemiring::infinity(), 13};
  auto bv = pack_entries<MinPlusSemiring>(std::span<const V>(vals), 5);
  auto back = unpack_entries<MinPlusSemiring>(bv, 4, 5);
  EXPECT_EQ(back[0], 0u);
  EXPECT_EQ(back[1], 7u);
  EXPECT_EQ(back[2], MinPlusSemiring::infinity());
  EXPECT_EQ(back[3], 13u);
}

TEST(EntryPacking, OverflowRejected) {
  std::vector<I64Ring::Value> vals = {9};
  EXPECT_THROW(
      pack_entries<I64Ring>(std::span<const I64Ring::Value>(vals), 3),
      ModelViolation);
  // MinPlus: finite value colliding with the ∞ code is rejected too.
  std::vector<MinPlusSemiring::Value> mp = {7};
  EXPECT_THROW(
      pack_entries<MinPlusSemiring>(
          std::span<const MinPlusSemiring::Value>(mp), 3),
      ModelViolation);
}

// ---------- fused word codec ----------

// Values of S that fit `entry_bits` (MinPlus: finite values stay below ∞
// and leave the all-ones codepoint free, and every fourth entry is ∞).
template <Semiring S>
std::vector<typename S::Value> codec_values(std::size_t len,
                                            unsigned entry_bits,
                                            std::uint64_t seed) {
  using V = typename S::Value;
  SplitMix64 rng(seed);
  std::uint64_t span = entry_bits >= 64 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << entry_bits);
  if constexpr (std::is_same_v<S, MinPlusSemiring>)
    span = std::min<std::uint64_t>(span - 1, MinPlusSemiring::infinity());
  if constexpr (sizeof(V) == 1) span = std::min<std::uint64_t>(span, 256);
  std::vector<V> vals(len);
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t u = rng.next();
    vals[i] = static_cast<V>(span == ~std::uint64_t{0} ? u : u % span);
    if constexpr (std::is_same_v<S, MinPlusSemiring>)
      if (i % 4 == 3) vals[i] = MinPlusSemiring::infinity();
  }
  return vals;
}

template <Semiring S>
std::vector<Word> fused_words(std::span<const typename S::Value> vals,
                              unsigned entry_bits, unsigned word_bits) {
  std::vector<Word> out;
  pack_words<S>(vals, entry_bits, word_bits,
                [&](Word w) { out.push_back(w); });
  return out;
}

template <Semiring S>
std::vector<typename S::Value> fused_values(std::span<const Word> words,
                                            std::size_t count,
                                            unsigned entry_bits) {
  std::vector<typename S::Value> out(count);
  std::size_t seen = 0;
  unpack_words<S>(words, count, entry_bits,
                  [&](std::size_t i, typename S::Value v) {
                    EXPECT_EQ(i, seen++);
                    out[i] = v;
                  });
  EXPECT_EQ(seen, count);
  return out;
}

template <Semiring S>
void check_codec_against_two_step() {
  using V = typename S::Value;
  for (unsigned eb : {1u, 7u, 8u, 20u, 63u, 64u})
    for (unsigned wb : {1u, 6u, 9u, 13u, 64u})
      for (std::size_t len : {0u, 1u, 63u, 64u, 65u}) {
        const auto vals = codec_values<S>(len, eb, eb * 1000 + wb * 10 + len);
        const std::span<const V> vs(vals);
        const auto words = fused_words<S>(vs, eb, wb);
        const auto ref = encode_bits(pack_entries<S>(vs, eb), wb);
        ASSERT_EQ(words, ref) << "eb=" << eb << " B=" << wb << " len=" << len;
        EXPECT_EQ(words.size(), packed_word_count(len, eb, wb));
        const auto back = fused_values<S>(words, len, eb);
        EXPECT_EQ(back, unpack_entries<S>(decode_words(ref, len * eb), len, eb))
            << "eb=" << eb << " B=" << wb << " len=" << len;
        EXPECT_EQ(back, vals) << "eb=" << eb << " B=" << wb << " len=" << len;
      }
}

TEST(FusedCodec, BoolMatchesTwoStepStream) {
  check_codec_against_two_step<BoolSemiring>();
}

TEST(FusedCodec, MinPlusMatchesTwoStepStream) {
  check_codec_against_two_step<MinPlusSemiring>();
}

TEST(FusedCodec, IntegerRingMatchesTwoStepStream) {
  check_codec_against_two_step<I64Ring>();
}

// Runs `f` and requires a ModelViolation whose message names `what`.
template <class F>
void expect_violation(F&& f, const std::string& what) {
  try {
    f();
    ADD_FAILURE() << "expected ModelViolation naming \"" << what << "\"";
  } catch (const ModelViolation& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(FusedCodec, NamedErrors) {
  auto ignore = [](std::size_t, auto) {};
  // An entry outside the declared width, plain and at MinPlus' ∞ codepoint.
  const std::vector<I64Ring::Value> big = {1, 9};
  expect_violation(
      [&] {
        pack_words<I64Ring>(std::span<const I64Ring::Value>(big), 3, 9,
                            [](Word) {});
      },
      "matrix entry does not fit in 3 bits");
  const std::vector<MinPlusSemiring::Value> inf_code = {7};
  expect_violation(
      [&] {
        pack_words<MinPlusSemiring>(
            std::span<const MinPlusSemiring::Value>(inf_code), 3, 9,
            [](Word) {});
      },
      "finite distance does not fit in 3 bits");

  const std::vector<I64Ring::Value> vals = {5, 1, 7, 2};  // 12 bits
  const auto words =
      fused_words<I64Ring>(std::span<const I64Ring::Value>(vals), 3, 5);
  ASSERT_EQ(words.size(), 3u);
  // A word whose value does not fit its declared width.
  std::vector<Word> bad = words;
  bad[1].value = std::uint64_t{1} << bad[1].bits;
  expect_violation(
      [&] { unpack_words<I64Ring>(std::span<const Word>(bad), 4, 3, ignore); },
      "does not fit in 5 bits");
  // Short and long streams.
  expect_violation(
      [&] {
        unpack_words<I64Ring>(std::span<const Word>(words).first(2), 4, 3,
                              ignore);
      },
      "got 10 bits, expected 12");
  std::vector<Word> longer = words;
  longer.emplace_back(1, 1);
  expect_violation(
      [&] {
        unpack_words<I64Ring>(std::span<const Word>(longer), 4, 3, ignore);
      },
      "stream longer than the 12 bits expected");
}

// ---------- distributed products ----------

// Runs both distributed algorithms on random matrices and compares against
// the centralised product.
template <Semiring S>
void check_distributed(NodeId n, unsigned entry_bits, std::uint64_t max_val,
                       std::uint64_t seed) {
  using V = typename S::Value;
  SplitMix64 rng(seed);
  Matrix<V> a(n, n, S::zero()), b(n, n, S::zero());
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j) {
      a.at(i, j) = static_cast<V>(rng.next_below(max_val));
      b.at(i, j) = static_cast<V>(rng.next_below(max_val));
    }
  const auto expect = mm_naive<S>(a, b);

  for (MmAlgo algo : {MmAlgo::kNaiveBroadcast, MmAlgo::k3dPartition}) {
    PerNode<std::vector<V>> sink(n);
    Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
      std::vector<V> ra(ctx.n()), rb(ctx.n());
      for (NodeId j = 0; j < ctx.n(); ++j) {
        ra[j] = a.at(ctx.id(), j);
        rb[j] = b.at(ctx.id(), j);
      }
      auto rc = algo == MmAlgo::kNaiveBroadcast
                    ? mm_distributed_naive<S>(ctx, ra, rb, entry_bits)
                    : mm_distributed_3d<S>(ctx, ra, rb, entry_bits);
      sink.set(ctx.id(), rc);
      ctx.output(0);
    });
    auto rows = sink.take();
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = 0; j < n; ++j)
        EXPECT_EQ(rows[i][j], expect.at(i, j))
            << "algo=" << static_cast<int>(algo) << " @" << i << "," << j;
  }
}

TEST(DistributedMM, BooleanMatchesCentralised) {
  check_distributed<BoolSemiring>(12, 1, 2, 100);
  check_distributed<BoolSemiring>(27, 1, 2, 101);  // perfect cube
  check_distributed<BoolSemiring>(16, 1, 2, 102);
}

TEST(DistributedMM, IntegerRingMatchesCentralised) {
  // entry_bits must cover the *partial sums* the 3-D algorithm ships in its
  // reduction step, not just the inputs: ≤ n·v² = 10·9² < 2^10 here.
  check_distributed<I64Ring>(10, 12, 10, 200);
  check_distributed<I64Ring>(8, 12, 10, 201);  // cube
}

TEST(DistributedMM, MinPlusMatchesCentralised) {
  check_distributed<MinPlusSemiring>(14, 6, 30, 300);
}

TEST(DistributedMM, MaxMinMatchesCentralised) {
  check_distributed<MaxMinSemiring>(9, 4, 15, 400);
}

TEST(DistributedMM, TinyCliques) {
  check_distributed<BoolSemiring>(1, 1, 2, 500);
  check_distributed<BoolSemiring>(2, 1, 2, 501);
  check_distributed<BoolSemiring>(3, 1, 2, 502);
}

TEST(DistributedMM, ThreeDCheaperThanNaiveAtScale) {
  // Boolean MM on n = 64: naive broadcasts n bits/node (⌈64/6⌉ = 11
  // rounds); 3-D moves ~3·n^{4/3}/n words ≈ n^{1/3} scaled — measure both.
  const NodeId n = 64;
  SplitMix64 rng(7);
  Matrix<std::uint8_t> a(n, n, 0), b(n, n, 0);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j) {
      a.at(i, j) = rng.next_bool(0.5);
      b.at(i, j) = rng.next_bool(0.5);
    }
  CostMeter naive_cost, tri_cost;
  for (bool use_3d : {false, true}) {
    auto res = Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
      std::vector<std::uint8_t> ra(n), rb(n);
      for (NodeId j = 0; j < n; ++j) {
        ra[j] = a.at(ctx.id(), j);
        rb[j] = b.at(ctx.id(), j);
      }
      auto rc = use_3d ? mm_distributed_3d<BoolSemiring>(ctx, ra, rb, 1)
                       : mm_distributed_naive<BoolSemiring>(ctx, ra, rb, 1);
      ctx.output(rc[0]);
    });
    (use_3d ? tri_cost : naive_cost) = res.cost;
  }
  // The 3-D algorithm must win on rounds at this size.
  EXPECT_LT(tri_cost.rounds, naive_cost.rounds);
}

// The dense 3-D and rect schedules' meters, pinned to the values the
// two-step codec (pack_entries + encode_bits) produced: the fused codec must
// ship a word-for-word identical stream. Meters do not depend on the data.
// n = 100 is not a cube: rect's greedy grid beats the ⌊n^{1/3}⌋ cube there.
TEST(DistributedMM, DenseMetersPinned) {
  struct Pin {
    NodeId n;
    bool rect, minplus;
    std::uint64_t rounds, messages, bits;
  };
  const Pin pins[] = {
      {27, false, false, 6, 1332, 5994},
      {27, false, true, 108, 23976, 119880},
      {27, true, false, 6, 1332, 5994},
      {27, true, true, 108, 23976, 119880},
      {64, false, false, 9, 8784, 46848},
      {64, false, true, 162, 158112, 936960},
      {64, true, false, 9, 8784, 46848},
      {64, true, true, 162, 158112, 936960},
      {100, false, false, 12, 18944, 118400},
      {100, false, true, 216, 340992, 2368000},
      {100, true, false, 11, 21220, 135000},
      {100, true, true, 202, 389560, 2700000},
      {512, false, false, 24, 777728, 6221824},
      {512, false, true, 429, 13901888, 124436480},
      {512, true, false, 24, 777728, 6221824},
      {512, true, true, 429, 13901888, 124436480},
  };
  for (const Pin& p : pins) {
    auto run = [&]<Semiring S>(unsigned entry_bits, std::uint64_t max_val) {
      using V = typename S::Value;
      return Engine::run(gen::empty(p.n), [&](NodeCtx& ctx) {
        SplitMix64 rng(ctx.id());
        std::vector<V> ra(p.n), rb(p.n);
        for (NodeId j = 0; j < p.n; ++j) {
          ra[j] = static_cast<V>(rng.next_below(max_val));
          rb[j] = static_cast<V>(rng.next_below(max_val));
        }
        const auto rc =
            p.rect ? mm_distributed_rect<S>(ctx, MmShape{p.n, p.n, p.n},
                                            std::span<const V>(ra),
                                            std::span<const V>(rb),
                                            entry_bits)
                   : mm_distributed_3d<S>(ctx, ra, rb, entry_bits);
        ctx.output(rc.size());
      });
    };
    const RunResult r =
        p.minplus ? run.template operator()<MinPlusSemiring>(20, 1000)
                  : run.template operator()<BoolSemiring>(1, 2);
    const std::string at = std::string(p.rect ? "rect" : "3d") +
                           (p.minplus ? " minplus" : " bool") +
                           " n=" + std::to_string(p.n);
    EXPECT_EQ(r.cost.rounds, p.rounds) << at;
    EXPECT_EQ(r.cost.messages, p.messages) << at;
    EXPECT_EQ(r.cost.bits, p.bits) << at;
  }
}

}  // namespace
}  // namespace ccq
