#pragma once

// Scenario-matrix sweep runner (DESIGN.md §14).
//
// run_cell() executes one manifest cell end to end: instantiate the graph
// family, build the Engine::Config the cell names (backend, workers,
// bandwidth), attach a fresh RoundTrace (and, for chaos cells, a fresh
// ChaosPlan), run the registered algorithm, and cross-check the CostMeter
// against the trace ledger — per cell, every run. A cell whose ledger does
// not reproduce its meter, or whose repeated trials disagree on outputs or
// meters, reports ok == false with a reason; bench_matrix exits non-zero
// on it, so a broken cell can never be committed as a baseline.
//
// Algorithms are node programs over the cell's graph instance, registered
// by name (algorithm_names()): they exercise the routing, broadcast, and
// distributed-MM collectives the benches measure, parameterised only by
// the instance, so every cell is a pure function of its CellSpec.

#include <cstdint>
#include <string>
#include <vector>

#include "clique/chaos.hpp"
#include "clique/cost.hpp"
#include "clique/trace.hpp"
#include "harness/manifest.hpp"

namespace ccq::harness {

/// Registered sweep algorithms: routing_direct, routing_balanced,
/// broadcast_adj, mm_bool_3d, triangle_mm.
const std::vector<std::string>& algorithm_names();

/// Resolve a registered algorithm by name (ModelViolation if unknown).
NodeProgram find_algorithm(const std::string& name);

/// The Engine::Config a cell names: backend, workers (clamped to n),
/// bandwidth, and the cell-derived engine seed. trace/chaos are left null —
/// callers attach per-run instruments.
Engine::Config cell_engine_config(const CellSpec& spec);

/// The cell's deterministic fault schedule (seeded from the cell seed).
ChaosPlan::Config cell_chaos_config(const CellSpec& spec);

/// FNV-1a over the per-node outputs — the cross-run output join key.
std::uint64_t outputs_fp(const std::vector<std::uint64_t>& outputs);

/// FNV-1a over the deterministic fields of every trace record, in ledger
/// order. Two runs of the same cell must produce equal fingerprints on any
/// backend/worker count; ccqd results carry this so a service-side
/// ledger can be compared bit-for-bit against a library-path run.
std::uint64_t ledger_fingerprint(const RoundTrace& trace);

/// Exact CostMeter equality (every deterministic field).
bool meters_equal(const CostMeter& a, const CostMeter& b);

struct CellResult {
  CellSpec spec;
  bool ok = false;          ///< ledger cross-check + trial agreement
  std::string fail_reason;  ///< set when !ok
  CostMeter cost;           ///< deterministic across trials (asserted)
  double wall_ms = 0;       ///< best of trials
  std::uint64_t output_fp = 0;  ///< FNV-1a over the per-node outputs
  std::uint64_t faults = 0;     ///< chaos faults injected (0 when off)
};

/// Run one cell for `trials` repetitions (>= 1). Throws ModelViolation on
/// unknown family/algorithm or unloadable corpus file; engine-level
/// violations surface as ok == false with the exception text.
CellResult run_cell(const CellSpec& spec, int trials);

/// Determinism probe used by bench_matrix --check: rerun the cell at a
/// different worker count and require bit-identical outputs and meters.
/// Returns empty string on agreement, a diagnostic otherwise.
std::string check_worker_determinism(const CellSpec& spec);

}  // namespace ccq::harness
