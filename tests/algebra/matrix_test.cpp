#include "algebra/matrix.hpp"

#include <gtest/gtest.h>

#include "algebra/mm.hpp"
#include "graph/generators.hpp"
#include "graph/oracles.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

template <Semiring S>
Matrix<typename S::Value> random_matrix(std::size_t n, std::uint64_t seed,
                                        std::uint64_t max_val) {
  SplitMix64 rng(seed);
  Matrix<typename S::Value> m(n, n, S::zero());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m.at(i, j) = static_cast<typename S::Value>(rng.next_below(max_val));
  return m;
}

TEST(Matrix, IdentityMultiplication) {
  auto a = random_matrix<I64Ring>(7, 1, 100);
  auto id = Matrix<std::int64_t>::identity<I64Ring>(7);
  EXPECT_EQ(mm_naive<I64Ring>(a, id), a);
  EXPECT_EQ(mm_naive<I64Ring>(id, a), a);
}

TEST(Matrix, Transpose) {
  Matrix<int> m(2, 3);
  m.at(0, 2) = 5;
  m.at(1, 0) = 7;
  auto t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.at(2, 0), 5);
  EXPECT_EQ(t.at(0, 1), 7);
}

TEST(Matrix, DimensionMismatchThrows) {
  Matrix<std::int64_t> a(2, 3), b(4, 2);
  EXPECT_THROW(mm_naive<I64Ring>(a, b), ModelViolation);
}

TEST(MM, KnownIntegerProduct) {
  Matrix<std::int64_t> a(2, 2), b(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  auto c = mm_naive<I64Ring>(a, b);
  EXPECT_EQ(c.at(0, 0), 19);
  EXPECT_EQ(c.at(0, 1), 22);
  EXPECT_EQ(c.at(1, 0), 43);
  EXPECT_EQ(c.at(1, 1), 50);
}

TEST(MM, BooleanProductIsReachabilityStep) {
  // A = path adjacency; A² has the 2-step pairs.
  Matrix<std::uint8_t> a(4, 4, 0);
  a.at(0, 1) = a.at(1, 2) = a.at(2, 3) = 1;
  auto a2 = mm_naive<BoolSemiring>(a, a);
  EXPECT_EQ(a2.at(0, 2), 1);
  EXPECT_EQ(a2.at(1, 3), 1);
  EXPECT_EQ(a2.at(0, 1), 0);
  EXPECT_EQ(a2.at(0, 3), 0);
}

TEST(MM, MinPlusHandlesInfinity) {
  using V = MinPlusSemiring::Value;
  const V inf = MinPlusSemiring::infinity();
  Matrix<V> a(2, 2, inf);
  a.at(0, 0) = 0;
  a.at(0, 1) = 3;
  a.at(1, 1) = 0;
  auto sq = mm_naive<MinPlusSemiring>(a, a);
  EXPECT_EQ(sq.at(0, 1), 3u);
  EXPECT_EQ(sq.at(1, 0), inf);
}

TEST(MM, StrassenMatchesNaive) {
  SplitMix64 rng(11);
  for (std::size_t n : {1u, 2u, 7u, 16u, 31u, 64u, 70u}) {
    auto a = random_matrix<I64Ring>(n, rng.next(), 1000);
    auto b = random_matrix<I64Ring>(n, rng.next(), 1000);
    EXPECT_EQ(mm_strassen<I64Ring>(a, b, 8), mm_naive<I64Ring>(a, b)) << n;
  }
}

TEST(MM, StrassenRectangular) {
  SplitMix64 rng(13);
  Matrix<std::int64_t> a(5, 9), b(9, 3);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 9; ++j)
      a.at(i, j) = static_cast<std::int64_t>(rng.next_below(100));
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      b.at(i, j) = static_cast<std::int64_t>(rng.next_below(100));
  EXPECT_EQ(mm_strassen<I64Ring>(a, b, 2), mm_naive<I64Ring>(a, b));
}

TEST(MM, PowerBySquaring) {
  auto a = random_matrix<I64Ring>(5, 17, 5);
  auto a3 = mm_naive<I64Ring>(mm_naive<I64Ring>(a, a), a);
  EXPECT_EQ(mm_power<I64Ring>(a, 3), a3);
  EXPECT_EQ(mm_power<I64Ring>(a, 1), a);
}

TEST(MM, BooleanClosureIsTransitiveClosure) {
  Graph g = gen::gnp_directed(12, 0.15, 23);
  Matrix<std::uint8_t> adj(12, 12, 0);
  for (NodeId u = 0; u < 12; ++u)
    for (NodeId v = 0; v < 12; ++v)
      if (u != v && g.has_edge(u, v)) adj.at(u, v) = 1;
  auto closure = semiring_closure<BoolSemiring>(adj);
  auto dist = oracle::apsp(g);
  for (NodeId u = 0; u < 12; ++u)
    for (NodeId v = 0; v < 12; ++v)
      EXPECT_EQ(closure.at(u, v) != 0,
                dist[u * 12 + v] != oracle::kInfDist)
          << u << "," << v;
}

TEST(MM, MinPlusClosureIsApsp) {
  Graph g = gen::gnp_weighted(10, 0.3, 9, 29);
  using V = MinPlusSemiring::Value;
  Matrix<V> w(10, 10, MinPlusSemiring::infinity());
  for (const Edge& e : g.edges()) {
    w.at(e.u, e.v) = e.w;
    w.at(e.v, e.u) = e.w;
  }
  auto closure = semiring_closure<MinPlusSemiring>(w);
  auto dist = oracle::apsp(g);
  for (NodeId u = 0; u < 10; ++u)
    for (NodeId v = 0; v < 10; ++v) {
      const auto expect = dist[u * 10 + v];
      if (expect == oracle::kInfDist) {
        EXPECT_GE(closure.at(u, v), MinPlusSemiring::infinity());
      } else {
        EXPECT_EQ(closure.at(u, v), expect);
      }
    }
}

TEST(MM, MaxMinSemiringWidestPath) {
  // Widest path 0→2 via 1: min(5, 4) = 4 beats direct 2.
  using V = MaxMinSemiring::Value;
  Matrix<V> w(3, 3, MaxMinSemiring::zero());
  w.at(0, 1) = 5;
  w.at(1, 2) = 4;
  w.at(0, 2) = 2;
  auto sq = mm_naive<MaxMinSemiring>(w, w);
  EXPECT_EQ(sq.at(0, 2), 4u);
}

TEST(MMProperty, AssociativityOnRandomInputs) {
  SplitMix64 rng(31);
  for (int t = 0; t < 5; ++t) {
    auto a = random_matrix<I64Ring>(8, rng.next(), 50);
    auto b = random_matrix<I64Ring>(8, rng.next(), 50);
    auto c = random_matrix<I64Ring>(8, rng.next(), 50);
    EXPECT_EQ(mm_naive<I64Ring>(mm_naive<I64Ring>(a, b), c),
              mm_naive<I64Ring>(a, mm_naive<I64Ring>(b, c)));
  }
}

}  // namespace
}  // namespace ccq
