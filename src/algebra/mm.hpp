#pragma once

// Centralised matrix multiplication kernels.
//
// These serve as (a) the local-computation step of the distributed clique
// algorithms, (b) reference results for tests, and (c) the "galactic
// substitute": the paper's Ring-MM exponent 1−2/ω rests on fast centralised
// MM, which we represent with Strassen (ω = log₂7) — see DESIGN.md §1.

#include <algorithm>

#include "algebra/matrix.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ccq {

// Dispatching kernels live in algebra/kernels.hpp (included at the bottom
// of this header: kernels needs mm_strassen, while mm_power and
// semiring_closure below only need these declarations).
namespace kernels {
template <Semiring S>
Matrix<typename S::Value> mm_auto(const Matrix<typename S::Value>& a,
                                  const Matrix<typename S::Value>& b);
template <Semiring S>
Matrix<typename S::Value> mm_tiled(const Matrix<typename S::Value>& a,
                                   const Matrix<typename S::Value>& b);
}  // namespace kernels

/// Naive O(n³) product over any semiring (ikj loop order for locality).
template <Semiring S>
Matrix<typename S::Value> mm_naive(const Matrix<typename S::Value>& a,
                                   const Matrix<typename S::Value>& b) {
  CCQ_CHECK(a.cols() == b.rows());
  using V = typename S::Value;
  Matrix<V> c(a.rows(), b.cols(), S::zero());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const V aik = a.at(i, k);
      if (aik == S::zero()) continue;  // sparse fast path (sound: x·0 adds 0)
      const V* brow = b.row_data(k);
      V* crow = c.row_data(i);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        crow[j] = S::add(crow[j], S::mul(aik, brow[j]));
      }
    }
  }
  return c;
}

/// Strassen's algorithm over a ring (requires subtraction); pads to the
/// next power of two and falls back to mm_naive below `cutoff`.
template <Ring R>
Matrix<typename R::Value> mm_strassen(const Matrix<typename R::Value>& a,
                                      const Matrix<typename R::Value>& b,
                                      std::size_t cutoff = 64);

/// Matrix power A^e over a semiring by repeated squaring (e ≥ 1).
template <Semiring S>
Matrix<typename S::Value> mm_power(Matrix<typename S::Value> a,
                                   std::uint64_t e) {
  CCQ_CHECK(a.rows() == a.cols());
  CCQ_CHECK(e >= 1);
  Matrix<typename S::Value> result = a;
  --e;
  while (e > 0) {
    if (e & 1) result = kernels::mm_auto<S>(result, a);
    e >>= 1;
    if (e) a = kernels::mm_auto<S>(a, a);
  }
  return result;
}

/// Reflexive closure fixed point: (I ⊕ A)^(n-1) computed by repeated
/// squaring. For BoolSemiring this is reflexive-transitive closure; for
/// MinPlusSemiring, all-pairs distances. Squaring stops as soon as the
/// doubling covers walks of length n−1 — for the path-summable (idempotent)
/// semirings this is already the fixed point, so the final full-matrix
/// compare of the old stop rule is unnecessary; the compare remains only as
/// an early exit when the closure converges before ⌈log₂(n−1)⌉ rounds.
template <Semiring S>
Matrix<typename S::Value> semiring_closure(
    const Matrix<typename S::Value>& a) {
  CCQ_CHECK(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix<typename S::Value> m = a;
  for (std::size_t i = 0; i < n; ++i)
    m.at(i, i) = S::add(m.at(i, i), S::one());
  std::uint64_t covered = 1;  // (I ⊕ A)^covered so far
  while (n > 1 && covered < n - 1) {
    Matrix<typename S::Value> sq = kernels::mm_auto<S>(m, m);
    covered *= 2;
    if (sq == m) break;  // fixpoint reached early
    m = std::move(sq);
  }
  return m;
}

// ---- Strassen implementation ----

namespace detail {

template <Ring R>
Matrix<typename R::Value> add_m(const Matrix<typename R::Value>& a,
                                const Matrix<typename R::Value>& b) {
  Matrix<typename R::Value> c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto* pa = a.row_data(i);
    const auto* pb = b.row_data(i);
    auto* pc = c.row_data(i);
    for (std::size_t j = 0; j < a.cols(); ++j) pc[j] = R::add(pa[j], pb[j]);
  }
  return c;
}

template <Ring R>
Matrix<typename R::Value> sub_m(const Matrix<typename R::Value>& a,
                                const Matrix<typename R::Value>& b) {
  Matrix<typename R::Value> c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto* pa = a.row_data(i);
    const auto* pb = b.row_data(i);
    auto* pc = c.row_data(i);
    for (std::size_t j = 0; j < a.cols(); ++j) pc[j] = R::sub(pa[j], pb[j]);
  }
  return c;
}

template <typename V>
Matrix<V> quadrant(const Matrix<V>& m, std::size_t qi, std::size_t qj) {
  const std::size_t h = m.rows() / 2;
  Matrix<V> q(h, h);
  for (std::size_t i = 0; i < h; ++i) {
    const V* src = m.row_data(qi * h + i) + qj * h;
    std::copy(src, src + h, q.row_data(i));
  }
  return q;
}

template <typename V>
void place(Matrix<V>& m, const Matrix<V>& q, std::size_t qi,
           std::size_t qj) {
  const std::size_t h = q.rows();
  for (std::size_t i = 0; i < h; ++i) {
    const V* src = q.row_data(i);
    std::copy(src, src + h, m.row_data(qi * h + i) + qj * h);
  }
}

template <Ring R>
Matrix<typename R::Value> strassen_pow2(const Matrix<typename R::Value>& a,
                                        const Matrix<typename R::Value>& b,
                                        std::size_t cutoff) {
  const std::size_t n = a.rows();
  if (n <= cutoff) return kernels::mm_tiled<R>(a, b);
  using M = Matrix<typename R::Value>;
  const M a11 = quadrant(a, 0, 0), a12 = quadrant(a, 0, 1),
          a21 = quadrant(a, 1, 0), a22 = quadrant(a, 1, 1);
  const M b11 = quadrant(b, 0, 0), b12 = quadrant(b, 0, 1),
          b21 = quadrant(b, 1, 0), b22 = quadrant(b, 1, 1);

  const M m1 = strassen_pow2<R>(add_m<R>(a11, a22), add_m<R>(b11, b22),
                                cutoff);
  const M m2 = strassen_pow2<R>(add_m<R>(a21, a22), b11, cutoff);
  const M m3 = strassen_pow2<R>(a11, sub_m<R>(b12, b22), cutoff);
  const M m4 = strassen_pow2<R>(a22, sub_m<R>(b21, b11), cutoff);
  const M m5 = strassen_pow2<R>(add_m<R>(a11, a12), b22, cutoff);
  const M m6 = strassen_pow2<R>(sub_m<R>(a21, a11), add_m<R>(b11, b12),
                                cutoff);
  const M m7 = strassen_pow2<R>(sub_m<R>(a12, a22), add_m<R>(b21, b22),
                                cutoff);

  M c(n, n);
  place(c, add_m<R>(sub_m<R>(add_m<R>(m1, m4), m5), m7), 0, 0);
  place(c, add_m<R>(m3, m5), 0, 1);
  place(c, add_m<R>(m2, m4), 1, 0);
  place(c, add_m<R>(add_m<R>(sub_m<R>(m1, m2), m3), m6), 1, 1);
  return c;
}

}  // namespace detail

template <Ring R>
Matrix<typename R::Value> mm_strassen(const Matrix<typename R::Value>& a,
                                      const Matrix<typename R::Value>& b,
                                      std::size_t cutoff) {
  CCQ_CHECK(a.cols() == b.rows());
  CCQ_CHECK(cutoff >= 1);
  const std::size_t n =
      std::max({a.rows(), a.cols(), b.cols(), std::size_t{1}});
  std::size_t p = 1;
  while (p < n) p <<= 1;
  using V = typename R::Value;
  Matrix<V> pa(p, p, R::zero()), pb(p, p, R::zero());
  for (std::size_t i = 0; i < a.rows(); ++i)
    std::copy(a.row_data(i), a.row_data(i) + a.cols(), pa.row_data(i));
  for (std::size_t i = 0; i < b.rows(); ++i)
    std::copy(b.row_data(i), b.row_data(i) + b.cols(), pb.row_data(i));
  Matrix<V> pc = detail::strassen_pow2<R>(pa, pb, cutoff);
  Matrix<V> c(a.rows(), b.cols());
  for (std::size_t i = 0; i < c.rows(); ++i)
    std::copy(pc.row_data(i), pc.row_data(i) + c.cols(), c.row_data(i));
  return c;
}

}  // namespace ccq

#include "algebra/kernels.hpp"  // IWYU pragma: keep — completes the
                                // kernels::mm_auto/mm_tiled declarations
                                // used by mm_power and semiring_closure.
