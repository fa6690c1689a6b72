// Local-compute kernel comparison bench (DESIGN.md §11).
//
// Sweeps the tiled/bit-packed/parallel/auto MM kernels against the seed's
// mm_naive per semiring, and the bulk word-level pack/unpack paths against
// the per-entry reference, printing speedup tables. Every timed result is compared bit-for-bit against mm_naive (or
// the per-entry codec) before it is reported — a kernel that is fast but
// wrong fails the run, not just --check.
//
// Usage: bench_kernels [--n=N] [--check] [--trace=PATH]
//   --n=N     run a single size instead of the 128/256/512 sweep
//   --check   CI smoke mode: exit non-zero if any kernel disagrees with
//             mm_naive, if mm_parallel is not identical across worker
//             counts, or if the headline speedups regress (bit-packed
//             Boolean < 4x, best min-plus < 1.2x at n ≥ 256, and — when
//             AVX2 is active — SIMD min-plus tiled ≥ 1.3x over the forced
//             scalar tiled kernel at n ≥ 512; the issue's target is 1.5x
//             and the gate keeps a 15% noise margin so a shared runner
//             cannot flake it)
//
// Respects CCQ_SIMD=off (forces the scalar paths); the SIMD columns are
// measured by forcing each dispatch level around the same kernel, so the
// scalar/SIMD comparison works regardless of the ambient policy.
//   --trace=PATH  accepted like every bench's, but records nothing: the
//             bench is pure local compute and runs no engine
//
// Writes BENCH_kernels.json ({n, semiring, kernel, wall_ms, speedup} per
// MM row; {entry_bits, path, wall_ms, mentries_per_s} per packing row).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "algebra/distributed_mm.hpp"
#include "algebra/kernels.hpp"
#include "algebra/mm.hpp"
#include "algebra/simd.hpp"
#include "bench_args.hpp"
#include "bench_json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ccq {
namespace {

// ---- shared helpers -------------------------------------------------------

template <typename S>
Matrix<typename S::Value> random_square(std::size_t n, std::uint64_t seed,
                                        std::uint64_t cap) {
  SplitMix64 rng(seed);
  Matrix<typename S::Value> m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m.at(i, j) = static_cast<typename S::Value>(rng.next_below(cap));
  return m;
}

Matrix<std::uint64_t> random_minplus(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Matrix<std::uint64_t> m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m.at(i, j) = rng.next_bool(0.2) ? MinPlusSemiring::infinity()
                                      : rng.next_below(100000);
  return m;
}

template <typename Fn>
double time_best_ms(int trials, Fn&& fn) {
  double best = 0;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t == 0 || ms < best) best = ms;
  }
  return best;
}

struct CheckState {
  bool check = false;
  bool failed = false;
  std::vector<std::string> failures;

  void fail(const std::string& why) {
    failed = true;
    failures.push_back(why);
  }
};

// One timed kernel row: runs `fn` best-of-`trials`, verifies the result
// against `expect`, records JSON, and returns the wall time.
template <typename M, typename Fn>
double mm_row(benchjson::Writer& json, std::size_t n, const char* semiring,
              const char* kernel, int trials, const M& expect,
              double naive_ms, Fn&& fn) {
  M got;
  const double ms = time_best_ms(trials, [&] { got = fn(); });
  if (!(got == expect)) {
    std::printf("FATAL: kernel %s/%s disagrees with mm_naive at n=%zu\n",
                semiring, kernel, n);
    std::exit(1);
  }
  const double speedup = naive_ms > 0 && ms > 0 ? naive_ms / ms : 1.0;
  json.add({{"n", n},
            {"semiring", semiring},
            {"kernel", kernel},
            {"wall_ms", ms},
            {"speedup", speedup}});
  return ms;
}

std::string fmt_speedup(double naive_ms, double ms) {
  return Table::fmt(ms > 0 ? naive_ms / ms : 1.0, 1) + "x";
}

// Pins the SIMD dispatch level around one kernel invocation so the scalar
// and vector paths of the *same* kernel can sit side by side in a table.
// force/clear_force are single atomic stores — noise, not overhead, next to
// an n^3 kernel.
template <typename Fn>
auto at_level(simd::Level level, Fn&& fn) {
  simd::force(level);
  auto result = fn();
  simd::clear_force();
  return result;
}

void bool_mm_table(benchjson::Writer& json, CheckState& cs,
                   const std::vector<std::size_t>& sizes, int trials) {
  std::printf("Boolean MM (byte-wide mm_naive vs bit-packed kernels; the\n"
              "bitpacked column includes the Matrix<->BitMatrix "
              "conversions):\n\n");
  Table t({"n", "naive ms", "tiled ms", "bitpk scalar ms",
           "bitpacked ms", "auto ms", "bitpacked speedup"});
  for (std::size_t n : sizes) {
    const auto a = random_square<BoolSemiring>(n, 11, 2);
    const auto b = random_square<BoolSemiring>(n, 12, 2);
    Matrix<std::uint8_t> expect;
    const double naive_ms = time_best_ms(
        trials, [&] { expect = mm_naive<BoolSemiring>(a, b); });
    json.add({{"n", n},
              {"semiring", "bool"},
              {"kernel", "naive"},
              {"wall_ms", naive_ms},
              {"speedup", 1.0}});
    const double tiled_ms =
        mm_row(json, n, "bool", "tiled", trials, expect, naive_ms,
               [&] { return kernels::mm_tiled<BoolSemiring>(a, b); });
    const double bit_scalar_ms =
        mm_row(json, n, "bool", "bitpacked_scalar", trials, expect, naive_ms,
               [&] {
                 return at_level(simd::Level::kScalar,
                                 [&] { return kernels::bool_mm_bitpacked(a, b); });
               });
    const double bit_ms =
        mm_row(json, n, "bool", "bitpacked", trials, expect, naive_ms,
               [&] { return kernels::bool_mm_bitpacked(a, b); });
    const double auto_ms =
        mm_row(json, n, "bool", "auto", trials, expect, naive_ms,
               [&] { return kernels::mm_auto<BoolSemiring>(a, b); });
    t.add_row({std::to_string(n), Table::fmt(naive_ms, 2),
               Table::fmt(tiled_ms, 2), Table::fmt(bit_scalar_ms, 2), Table::fmt(bit_ms, 2),
               Table::fmt(auto_ms, 2), fmt_speedup(naive_ms, bit_ms)});
    if (cs.check && n >= 256 && naive_ms < 4.0 * bit_ms)
      cs.fail("boolean bitpacked speedup < 4x at n=" + std::to_string(n));
  }
  t.print();
}

void minplus_mm_table(benchjson::Writer& json, CheckState& cs,
                      const std::vector<std::size_t>& sizes, int trials) {
  std::printf("\n(min,+) MM (the APSP inner loop; tiled uses the "
              "saturation-shortcut\nmicro-kernel, parallel shards rows over "
              "the kernel pool, %zu worker(s)):\n\n",
              kernels::pool().size());
  Table t({"n", "naive ms", "tiled scalar ms", "tiled ms",
           "parallel ms", "auto ms", "simd speedup"});
  for (std::size_t n : sizes) {
    const auto a = random_minplus(n, 21);
    const auto b = random_minplus(n, 22);
    Matrix<std::uint64_t> expect;
    const double naive_ms = time_best_ms(
        trials, [&] { expect = mm_naive<MinPlusSemiring>(a, b); });
    json.add({{"n", n},
              {"semiring", "minplus"},
              {"kernel", "naive"},
              {"wall_ms", naive_ms},
              {"speedup", 1.0}});
    const double tiled_scalar_ms =
        mm_row(json, n, "minplus", "tiled_scalar", trials, expect, naive_ms,
               [&] {
                 return at_level(simd::Level::kScalar, [&] {
                   return kernels::mm_tiled<MinPlusSemiring>(a, b);
                 });
               });
    const double tiled_ms =
        mm_row(json, n, "minplus", "tiled", trials, expect, naive_ms,
               [&] { return kernels::mm_tiled<MinPlusSemiring>(a, b); });
    const double parallel_ms =
        mm_row(json, n, "minplus", "parallel", trials, expect, naive_ms,
               [&] { return kernels::mm_parallel<MinPlusSemiring>(a, b); });
    const double auto_ms =
        mm_row(json, n, "minplus", "auto", trials, expect, naive_ms,
               [&] { return kernels::mm_auto<MinPlusSemiring>(a, b); });
    const double best =
        std::min({tiled_ms, parallel_ms, auto_ms});
    t.add_row({std::to_string(n), Table::fmt(naive_ms, 2),
               Table::fmt(tiled_scalar_ms, 2), Table::fmt(tiled_ms, 2), Table::fmt(parallel_ms, 2),
               Table::fmt(auto_ms, 2),
               fmt_speedup(tiled_scalar_ms, tiled_ms)});
    if (cs.check && n >= 256 && naive_ms < 1.2 * best)
      cs.fail("min-plus best kernel speedup < 1.2x at n=" +
              std::to_string(n));
    // The SIMD gate: issue target is 1.5x over the scalar tiled kernel at
    // n=512; 1.3 = 1.5 with the 15% noise tolerance. Only meaningful when
    // the vector path can actually run (AVX2 detected, not CCQ_SIMD=off).
    if (cs.check && n >= 512 && simd::active() == simd::Level::kAvx2 &&
        tiled_scalar_ms < 1.3 * tiled_ms)
      cs.fail("min-plus SIMD tiled speedup < 1.3x over scalar tiled at n=" +
              std::to_string(n));
  }
  t.print();
}

void ring_mm_table(benchjson::Writer& json,
                   const std::vector<std::size_t>& sizes, int trials) {
  std::printf("\nRing MM (I64Ring; auto routes large squares to Strassen "
              "when the pool\nis unavailable, else to the parallel tiled "
              "kernel):\n\n");
  Table t({"n", "naive ms", "tiled ms", "strassen ms", "auto ms",
           "auto speedup"});
  for (std::size_t n : sizes) {
    const auto a = random_square<I64Ring>(n, 31, 100);
    const auto b = random_square<I64Ring>(n, 32, 100);
    Matrix<std::int64_t> expect;
    const double naive_ms =
        time_best_ms(trials, [&] { expect = mm_naive<I64Ring>(a, b); });
    json.add({{"n", n},
              {"semiring", "i64"},
              {"kernel", "naive"},
              {"wall_ms", naive_ms},
              {"speedup", 1.0}});
    const double tiled_ms =
        mm_row(json, n, "i64", "tiled", trials, expect, naive_ms,
               [&] { return kernels::mm_tiled<I64Ring>(a, b); });
    const double strassen_ms =
        mm_row(json, n, "i64", "strassen", trials, expect, naive_ms,
               [&] { return mm_strassen<I64Ring>(a, b); });
    const double auto_ms =
        mm_row(json, n, "i64", "auto", trials, expect, naive_ms,
               [&] { return kernels::mm_auto<I64Ring>(a, b); });
    t.add_row({std::to_string(n), Table::fmt(naive_ms, 2),
               Table::fmt(tiled_ms, 2), Table::fmt(strassen_ms, 2),
               Table::fmt(auto_ms, 2), fmt_speedup(naive_ms, auto_ms)});
  }
  t.print();
}

// Per-entry reference pack/unpack (the seed's implementation), for the
// codec throughput comparison.
BitVector pack_per_entry(const std::vector<std::int64_t>& values,
                         unsigned entry_bits) {
  BitVector bv;
  for (const auto& v : values)
    bv.append_bits(encode_value<I64Ring>(v, entry_bits), entry_bits);
  return bv;
}

void packing_table(benchjson::Writer& json, int trials) {
  constexpr std::size_t kCount = 1 << 20;
  std::printf("\nEntry packing (%zu entries; bulk = word-at-a-time paths in "
              "pack_entries/\nunpack_entries, ref = per-entry "
              "append_bits/read_bits):\n\n",
              kCount);
  Table t({"entry_bits", "pack ref ms", "pack scalar ms", "pack bulk ms",
           "unpack ref ms", "unpack scalar ms", "unpack bulk ms",
           "pack speedup"});
  for (unsigned entry_bits : {1u, 8u, 13u, 32u}) {
    SplitMix64 rng(1000 + entry_bits);
    const std::uint64_t cap = (std::uint64_t{1} << entry_bits) - 1;
    std::vector<std::int64_t> values(kCount);
    for (auto& v : values)
      v = static_cast<std::int64_t>(rng.next_below(cap + 1));
    const std::span<const std::int64_t> span(values);

    BitVector bulk, ref, bulk_scalar;
    const double ref_pack_ms = time_best_ms(
        trials, [&] { ref = pack_per_entry(values, entry_bits); });
    const double scalar_pack_ms = time_best_ms(trials, [&] {
      bulk_scalar = at_level(simd::Level::kScalar, [&] {
        return pack_entries<I64Ring>(span, entry_bits);
      });
    });
    const double bulk_pack_ms = time_best_ms(
        trials, [&] { bulk = pack_entries<I64Ring>(span, entry_bits); });
    if (!(bulk == ref) || !(bulk_scalar == ref)) {
      std::printf("FATAL: bulk pack disagrees with per-entry reference at "
                  "entry_bits=%u\n",
                  entry_bits);
      std::exit(1);
    }
    std::vector<std::int64_t> ref_out, bulk_out, scalar_out;
    const double ref_unpack_ms = time_best_ms(trials, [&] {
      ref_out.clear();
      for (std::size_t i = 0; i < kCount; ++i)
        ref_out.push_back(decode_value<I64Ring>(
            bulk.read_bits(i * entry_bits, entry_bits), entry_bits));
    });
    const double scalar_unpack_ms = time_best_ms(trials, [&] {
      scalar_out = at_level(simd::Level::kScalar, [&] {
        return unpack_entries<I64Ring>(bulk, kCount, entry_bits);
      });
    });
    const double bulk_unpack_ms = time_best_ms(trials, [&] {
      bulk_out = unpack_entries<I64Ring>(bulk, kCount, entry_bits);
    });
    if (!(bulk_out == ref_out) || !(bulk_out == values) ||
        !(scalar_out == values)) {
      std::printf("FATAL: bulk unpack disagrees at entry_bits=%u\n",
                  entry_bits);
      std::exit(1);
    }
    const double mentries =
        bulk_pack_ms > 0 ? kCount / (bulk_pack_ms * 1000.0) : 0.0;
    json.add({{"entry_bits", entry_bits},
              {"path", "bulk"},
              {"wall_ms", bulk_pack_ms},
              {"mentries_per_s", mentries}});
    json.add({{"entry_bits", entry_bits},
              {"path", "bulk_scalar"},
              {"wall_ms", scalar_pack_ms},
              {"mentries_per_s",
               scalar_pack_ms > 0 ? kCount / (scalar_pack_ms * 1000.0)
                                  : 0.0}});
    json.add({{"entry_bits", entry_bits},
              {"path", "per_entry"},
              {"wall_ms", ref_pack_ms},
              {"mentries_per_s",
               ref_pack_ms > 0 ? kCount / (ref_pack_ms * 1000.0) : 0.0}});
    t.add_row({std::to_string(entry_bits), Table::fmt(ref_pack_ms, 2),
               Table::fmt(scalar_pack_ms, 2), Table::fmt(bulk_pack_ms, 2),
               Table::fmt(ref_unpack_ms, 2), Table::fmt(scalar_unpack_ms, 2),
               Table::fmt(bulk_unpack_ms, 2),
               fmt_speedup(ref_pack_ms, bulk_pack_ms)});
  }
  t.print();
}

// mm_parallel must be a pure function of its inputs: identical output for
// every worker count and grain. Explicit pools make this meaningful even on
// a single-core host (oversubscription still interleaves block order).
void determinism_check(CheckState& cs) {
  std::printf("\nParallel determinism (mm_parallel across pools of 1/4/8 "
              "workers,\ngrains 8/16/100):\n");
  ThreadPool p1(1), p4(4), p8(8);
  const std::size_t n = 200;
  const auto a = random_minplus(n, 41);
  const auto b = random_minplus(n, 42);
  const auto expect = mm_naive<MinPlusSemiring>(a, b);
  bool ok = true;
  for (std::size_t grain : {8ul, 16ul, 100ul}) {
    for (ThreadPool* tp : {&p1, &p4, &p8}) {
      if (!(kernels::mm_parallel<MinPlusSemiring>(a, b, grain, tp) ==
            expect))
        ok = false;
    }
  }
  const auto ia = random_square<I64Ring>(150, 43, 50);
  const auto ib = random_square<I64Ring>(150, 44, 50);
  const auto iexpect = mm_naive<I64Ring>(ia, ib);
  for (ThreadPool* tp : {&p4, &p8})
    if (!(kernels::mm_parallel<I64Ring>(ia, ib, 8, tp) == iexpect))
      ok = false;
  std::printf("  %s\n", ok ? "identical across all worker counts"
                           : "MISMATCH ACROSS WORKER COUNTS");
  if (!ok) cs.fail("mm_parallel result depends on the worker count");
}

int run_comparison(std::vector<std::size_t> sizes, bool check) {
  const int trials = check ? 5 : 3;
  CheckState cs;
  cs.check = check;
  std::printf("Local-compute kernels (best of %d trials):\n", trials);
  std::printf("SIMD dispatch: detected=%s active=%s (CCQ_SIMD=%s)\n\n",
              simd::level_name(simd::detected()),
              simd::level_name(simd::active()),
              std::getenv("CCQ_SIMD") != nullptr ? std::getenv("CCQ_SIMD")
                                                 : "<unset>");

  benchjson::Writer json;
  bool_mm_table(json, cs, sizes, trials);
  minplus_mm_table(json, cs, sizes, trials);
  ring_mm_table(json, sizes, trials);
  packing_table(json, trials);
  determinism_check(cs);

  if (json.write("BENCH_kernels.json"))
    std::printf("\nwrote BENCH_kernels.json\n");

  if (check) {
    if (cs.failed) {
      for (const auto& f : cs.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
      return 1;
    }
    std::printf("CHECK OK: all kernels bit-for-bit equal to mm_naive, "
                "parallel kernel\ndeterministic, headline speedups within "
                "bounds\n");
  }
  return 0;
}

}  // namespace
}  // namespace ccq

int main(int argc, char** argv) {
  ccq::benchjson::TraceSession trace_session(&argc, argv);

  std::size_t only_n = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = ccq::benchargs::flag_value(argv[i], "--n")) {
      only_n = static_cast<std::size_t>(
          ccq::benchargs::parse_uint(argv[0], "--n", v, 1, 8192));
    } else if (ccq::benchargs::flag_is(argv[i], "--check")) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--n=N] [--check] [--trace=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<std::size_t> sizes = {128, 256, 512};
  if (only_n != 0) sizes = {only_n};

  const int rc = ccq::run_comparison(sizes, check);
  if (!trace_session.finish(nullptr)) return 1;
  return rc;
}
