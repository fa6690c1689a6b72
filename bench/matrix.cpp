// Scenario-matrix sweep driver (DESIGN.md §14, EXPERIMENTS.md).
//
// Reads a declarative manifest describing a {algorithm} × {graph family} ×
// {n} × {backend} × {chaos on/off} grid, runs every expanded cell
// through the engine with a fresh RoundTrace attached, cross-checks each
// cell's CostMeter against its trace ledger, and writes one machine-
// readable BENCH_matrix.json. tools/check_trajectory.py compares that file
// against the committed baseline: any round-count regression, or a
// wall-clock regression beyond tolerance, fails CI.
//
// Every correctness gate is always on: a cell whose ledger does not
// reproduce its meter, whose trials disagree, or whose run throws, names
// itself and exits non-zero — a broken cell can never be committed as a
// baseline.
//
// Usage: bench_matrix [--manifest=PATH] [--out=PATH] [--trials=N] [--check]
//   --manifest=PATH  manifest to run (default bench/manifests/default.json;
//                    run from the repo root)
//   --out=PATH       output JSON (default BENCH_matrix.json). CI writes to
//                    BENCH_matrix.current.json so the committed baseline
//                    stays intact for the trajectory comparison.
//   --trials=N       override the manifest's trials count
//   --check          CI smoke mode: additionally rerun every cell at a
//                    different worker count and fail unless outputs and
//                    meters are bit-identical (the engine's cross-team
//                    determinism contract, per cell)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "harness/manifest.hpp"
#include "harness/sweep.hpp"
#include "util/table.hpp"

using namespace ccq;

namespace {

int run(const std::string& manifest_path, const std::string& out_path,
        int trials_override, bool check) {
  harness::Manifest manifest;
  try {
    manifest = harness::load_manifest(manifest_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_matrix: %s\n", e.what());
    return 1;
  }
  const int trials =
      trials_override > 0 ? trials_override : manifest.trials;
  std::printf(
      "Scenario matrix '%s': %zu cell(s), best of %d trial(s)%s\n"
      "(meter == trace ledger asserted per cell)\n\n",
      manifest.name.c_str(), manifest.cells.size(), trials,
      check ? ", worker-determinism check on" : "");

  benchjson::Writer json;
  Table table({"cell", "rounds", "messages", "bits", "wall ms", "faults",
               "meter==trace"});
  bool all_ok = true;
  for (const harness::CellSpec& spec : manifest.cells) {
    harness::CellResult r;
    try {
      r = harness::run_cell(spec, trials);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FATAL: cell %s: %s\n", spec.id().c_str(),
                   e.what());
      return 1;
    }
    if (!r.ok) {
      std::fprintf(stderr, "FATAL: cell %s: %s\n", spec.id().c_str(),
                   r.fail_reason.c_str());
      all_ok = false;
      continue;
    }
    if (check) {
      const std::string diag = harness::check_worker_determinism(spec);
      if (!diag.empty()) {
        std::fprintf(stderr, "FATAL: cell %s: %s\n", spec.id().c_str(),
                     diag.c_str());
        all_ok = false;
        continue;
      }
    }
    table.add_row({spec.id(), std::to_string(r.cost.rounds),
                   std::to_string(r.cost.messages),
                   std::to_string(r.cost.bits), Table::fmt(r.wall_ms, 2),
                   std::to_string(r.faults), "yes"});
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(r.output_fp));
    json.add({{"cell", spec.id()},
              {"manifest", manifest.name},
              {"algorithm", spec.algorithm},
              {"family", spec.family.name},
              {"n", spec.n},
              {"backend", harness::backend_name(spec.backend)},
              {"chaos", spec.chaos ? "on" : "off"},
              {"rounds", r.cost.rounds},
              {"messages", r.cost.messages},
              {"bits", r.cost.bits},
              {"collectives", r.cost.collectives},
              {"max_sent", r.cost.max_node_sent},
              {"max_received", r.cost.max_node_received},
              {"wall_ms", r.wall_ms},
              {"faults", r.faults},
              {"output_fp", fp}});
  }
  table.print();
  if (!all_ok) {
    std::fprintf(stderr,
                 "\nbench_matrix: one or more cells FAILED; not writing %s\n",
                 out_path.c_str());
    return 1;
  }
  if (!json.write(out_path)) {
    std::fprintf(stderr, "bench_matrix: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu cells)\n", out_path.c_str(),
              manifest.cells.size());
  if (check)
    std::printf("CHECK OK: every cell ledger-consistent and "
                "worker-deterministic\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path = "bench/manifests/default.json";
  std::string out_path = "BENCH_matrix.json";
  int trials = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--manifest=", 11) == 0) {
      manifest_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      trials = static_cast<int>(benchjson::parse_uint(
          argv[0], "--trials", argv[i] + 9, 1, 100));
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--manifest=PATH] [--out=PATH] [--trials=N] "
                   "[--check]\n",
                   argv[0]);
      return 2;
    }
  }
  return run(manifest_path, out_path, trials, check);
}
