// CHAOS — the verifier-soundness campaign (nondet/soundness.hpp) as a
// reproducible table. Every verifier family in src/nondet runs on a rigid
// planted instance family under three regimes per seeded trial:
//
//   clean      — honest certificate: must be accepted every time;
//   corrupted  — one certificate bit flipped: must be rejected every time;
//   byzantine  — one node's outgoing words replaced with seeded garbage by
//                the chaos plane: rejection rate must meet the per-case
//                floor (probabilistic — garbage can collide with truth).
//
// Trials alternate the execution backend, so the table is also a
// cross-backend soundness check. --check turns the table into a
// gate: any clean rejection, any corrupted acceptance, or a byzantine rate
// below its floor exits non-zero (CI runs --n=64 --trials=50 --check).
//
// Usage: bench_chaos_verifiers [--n=N] [--trials=T] [--check]
//                              [--trace=PATH]
//   --n=N       single clique size instead of the 16/64/128 sweep
//   --trials=T  seeded trials per case per size (default 200)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "nondet/soundness.hpp"
#include "util/table.hpp"

using namespace ccq;

namespace {

std::string rate_str(double r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", r);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::TraceSession trace(&argc, argv);

  std::vector<NodeId> sizes = {16, 64, 128};
  unsigned trials = 200;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      sizes = {static_cast<NodeId>(
          benchjson::parse_uint(argv[0], "--n", argv[i] + 4, 1, 8192))};
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      trials = static_cast<unsigned>(benchjson::parse_uint(
          argv[0], "--trials", argv[i] + 9, 1, 1000000));
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--n=N] [--trials=T] [--check] "
                   "[--trace=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("CHAOS: verifier soundness under fault injection "
              "(%u trials/case, backend sweep)\n\n",
              trials);

  benchjson::Writer json;
  bool ok = true;
  for (NodeId n : sizes) {
    std::printf("n = %u\n", n);
    Table t({"case", "theorem", "clean acc", "corrupt rej", "byz rej",
             "byz rate", "floor", "byz words", "ms", "verdict"});
    for (const auto& c : soundness::cases()) {
      const auto t0 = std::chrono::steady_clock::now();
      const soundness::Report r = soundness::run_case(c, n, trials);
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      ok = ok && r.ok();
      t.add_row({r.name, r.theorem,
                 std::to_string(r.clean_accepts) + "/" +
                     std::to_string(r.trials),
                 std::to_string(r.corrupt_rejects) + "/" +
                     std::to_string(r.trials),
                 std::to_string(r.byz_rejects) + "/" +
                     std::to_string(r.trials),
                 rate_str(r.byz_rate()), rate_str(r.byz_floor),
                 std::to_string(r.byz_faults), rate_str(ms),
                 r.ok() ? "ok" : "FAIL"});
      json.add({{"case", r.name},
                {"theorem", r.theorem},
                {"n", std::uint64_t{r.n}},
                {"trials", r.trials},
                {"clean_accepts", r.clean_accepts},
                {"corrupt_rejects", r.corrupt_rejects},
                {"byz_rejects", r.byz_rejects},
                {"byz_rate", r.byz_rate()},
                {"byz_floor", r.byz_floor},
                {"byz_faults", r.byz_faults},
                {"wall_ms", ms}});
    }
    t.print();
    std::printf("\n");
  }

  if (!trace.finish(&json)) return 1;
  json.write("BENCH_chaos.json");
  std::printf("wrote BENCH_chaos.json\n");

  if (check) {
    std::printf("--check: %s\n", ok ? "all cases sound" : "FAILURES above");
    return ok ? 0 : 1;
  }
  return 0;
}
