#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "util/log2_real.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ccq {
namespace {

// ---------- math ----------

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(10, 1), 10u);
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(1024), 10u);
}

TEST(Math, FloorRoot) {
  EXPECT_EQ(floor_root(27, 3), 3u);
  EXPECT_EQ(floor_root(26, 3), 2u);
  EXPECT_EQ(floor_root(1, 5), 1u);
  EXPECT_EQ(floor_root(0, 2), 0u);
  EXPECT_EQ(floor_root(1'000'000, 2), 1000u);
  EXPECT_EQ(floor_root(999'999, 2), 999u);
  EXPECT_EQ(floor_root(64, 6), 2u);
}

TEST(MathProperty, FloorRootBrackets) {
  SplitMix64 rng(123);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t x = rng.next() >> 20;
    for (unsigned k = 1; k <= 5; ++k) {
      const std::uint64_t r = floor_root(x, k);
      // r^k <= x < (r+1)^k using long double bound (safe at this scale).
      long double rp = 1, rp1 = 1;
      for (unsigned i = 0; i < k; ++i) {
        rp *= r;
        rp1 *= (r + 1);
      }
      EXPECT_LE(rp, static_cast<long double>(x));
      EXPECT_GT(rp1, static_cast<long double>(x));
    }
  }
}

TEST(Math, Ipow) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(7, 0), 1u);
  EXPECT_EQ(ipow(0, 3), 0u);
  EXPECT_THROW(ipow(1u << 31, 3), ModelViolation);
}

// ---------- Log2Real ----------

TEST(Log2Real, BasicOps) {
  auto a = Log2Real::from_value(8);
  auto b = Log2Real::from_value(4);
  EXPECT_DOUBLE_EQ((a * b).log2(), 5.0);
  EXPECT_DOUBLE_EQ((a / b).log2(), 1.0);
  EXPECT_DOUBLE_EQ(a.pow(3).log2(), 9.0);
}

TEST(Log2Real, HugeValuesCompare) {
  // 2^(2^40) vs 2^(2^40 + 1): far beyond double range as values.
  auto a = Log2Real::pow2(std::pow(2.0, 40));
  auto b = Log2Real::pow2(std::pow(2.0, 40) + 1);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
}

TEST(Log2Real, Zero) {
  Log2Real z;
  EXPECT_TRUE(z.is_zero());
  auto one = Log2Real::from_value(1);
  EXPECT_TRUE((z * one).is_zero());
  EXPECT_EQ(z.to_string(), "0");
}

TEST(Log2Real, ToString) {
  EXPECT_EQ(Log2Real::pow2(16).to_string(), "2^16");
}

// ---------- stats ----------

TEST(Stats, ExactLineRecovered) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.5 * x - 2.0);
  auto f = fit_line(xs, ys);
  EXPECT_NEAR(f.slope, 3.5, 1e-9);
  EXPECT_NEAR(f.intercept, -2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, LogLogRecoversExponent) {
  // rounds = 4 * n^{2/3}
  std::vector<double> ns = {8, 16, 32, 64, 128, 256};
  std::vector<double> rounds;
  for (double n : ns) rounds.push_back(4.0 * std::pow(n, 2.0 / 3.0));
  auto f = fit_loglog(ns, rounds);
  EXPECT_NEAR(f.slope, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(std::pow(2.0, f.intercept), 4.0, 1e-6);
}

TEST(Stats, ConstantSeriesHasZeroSlope) {
  std::vector<double> ns = {8, 16, 32, 64};
  std::vector<double> rounds = {5, 5, 5, 5};
  auto f = fit_loglog(ns, rounds);
  EXPECT_NEAR(f.slope, 0.0, 1e-12);
}

TEST(Stats, ZeroRoundsClampedInLogLog) {
  std::vector<double> ns = {8, 16};
  std::vector<double> rounds = {0, 0};
  auto f = fit_loglog(ns, rounds);
  EXPECT_NEAR(f.slope, 0.0, 1e-12);
}

TEST(Stats, TooFewPointsThrows) {
  std::vector<double> one = {1.0};
  EXPECT_THROW(fit_line(one, one), ModelViolation);
}

// ---------- thread pool ----------

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   10,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(100, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, CountBelowPoolSizeRunsEachIndexOnce) {
  // A team smaller than the pool (the scheduler's common case under load):
  // every index runs exactly once, all of them at the same time on
  // distinct threads (each waits for the others, as a scheduler worker
  // waits at its barrier), and the call returns.
  ThreadPool pool(8);
  for (std::size_t count = 2; count < pool.size(); ++count) {
    std::vector<std::atomic<int>> hits(count);
    std::atomic<std::size_t> arrived{0};
    pool.parallel_for(count, [&](std::size_t i) {
      hits[i].fetch_add(1);
      arrived.fetch_add(1);
      while (arrived.load() < count) std::this_thread::yield();
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "count " << count;
  }
}

TEST(ThreadPool, ZeroAndOneCounts) {
  ThreadPool pool(2);
  std::atomic<int> c{0};
  pool.parallel_for(0, [&](std::size_t) { c.fetch_add(1); });
  EXPECT_EQ(c.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { c.fetch_add(1); });
  EXPECT_EQ(c.load(), 1);
}

// ---------- RNG ----------

TEST(Rng, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformAliasMatchesNextBelow) {
  // uniform() is the documented entry point for fault schedules; it must be
  // the same stream as next_below, not a separately-evolving state.
  SplitMix64 a(2026), b(2026);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(a.uniform(17), b.next_below(17));
}

// Pearson chi-squared statistic over `bound` equiprobable buckets.
double chi_squared(const std::vector<std::uint64_t>& counts,
                   std::uint64_t samples) {
  const double expected =
      static_cast<double>(samples) / static_cast<double>(counts.size());
  double chi2 = 0.0;
  for (std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

// Loose acceptance bound: mean df plus four standard deviations (chi2 has
// variance 2·df) plus slack for small df. A modulo-biased `next() % bound`
// at bound = 6 or 10 blows far past this; a uniform sampler sits near df.
double chi_squared_limit(std::uint64_t bound) {
  const double df = static_cast<double>(bound - 1);
  return df + 4.0 * std::sqrt(2.0 * df) + 10.0;
}

TEST(Rng, NextBelowPassesChiSquared) {
  for (const std::uint64_t bound : {6ull, 10ull, 1000ull}) {
    SplitMix64 rng(bound * 31 + 5);
    const std::uint64_t samples = bound * 1000;
    std::vector<std::uint64_t> counts(bound, 0);
    for (std::uint64_t i = 0; i < samples; ++i) ++counts[rng.next_below(bound)];
    EXPECT_LT(chi_squared(counts, samples), chi_squared_limit(bound))
        << "bound=" << bound;
  }
}

TEST(Rng, Mix64BelowPassesChiSquaredOnSequentialKeys) {
  // mix64_below is fed *counters*, not PRNG output — stripe offsets and
  // seed-derived colourings hash (round, node) pairs. Sequential keys are
  // therefore the representative workload.
  for (const std::uint64_t bound : {6ull, 10ull, 1000ull}) {
    const std::uint64_t samples = bound * 1000;
    std::vector<std::uint64_t> counts(bound, 0);
    for (std::uint64_t i = 0; i < samples; ++i) {
      ++counts[mix64_below(i, bound)];
    }
    EXPECT_LT(chi_squared(counts, samples), chi_squared_limit(bound))
        << "bound=" << bound;
  }
}

TEST(Rng, RoughUniformity) {
  SplitMix64 rng(1234);
  std::vector<int> buckets(10, 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) ++buckets[rng.next_below(10)];
  for (int b : buckets) {
    EXPECT_GT(b, samples / 10 - samples / 50);
    EXPECT_LT(b, samples / 10 + samples / 50);
  }
}

// ---------- table ----------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "23456"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name        | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer-name | 23456 |"), std::string::npos);
}

}  // namespace
}  // namespace ccq
