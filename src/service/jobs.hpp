#pragma once

// ccqd job execution: one scenario cell on a warm (or cold) engine.
//
// run_job mirrors harness::run_cell's correctness discipline exactly — a
// fresh RoundTrace and (for chaos cells) a fresh ChaosPlan per trial, the
// trace-ledger-vs-meter cross-check on every trial, and trial agreement on
// outputs, meters and fault counts — but executes on an EngineSession
// leased from the EngineCache instead of a throwaway engine. Sessions are
// bit-identical to Engine::run by contract (tests/clique/session_test.cpp),
// so a job replayed through ccqd must reproduce the library path's
// output_fp and ledger_fp exactly; bench_service --check asserts it.

#include <cstdint>
#include <string>

#include "clique/cost.hpp"
#include "harness/manifest.hpp"
#include "service/engine_cache.hpp"

namespace ccq::service {

struct JobResult {
  bool ok = false;
  std::string fail_reason;  ///< set when !ok (maps to kErrJobFailed)
  CostMeter cost;
  double wall_ms = 0;           ///< best of trials
  std::uint64_t output_fp = 0;  ///< FNV-1a over per-node outputs
  std::uint64_t ledger_fp = 0;  ///< harness::ledger_fingerprint of the trace
  std::uint64_t faults = 0;     ///< chaos faults injected (0 when off)
  bool warm = false;            ///< engine came from the cache
  int trials = 0;
};

/// Execute `spec` for `trials` repetitions on an engine leased from
/// `cache`. `workers` is the run's worker team (Engine::Config::workers),
/// chosen by the caller beside the cell so the cell id stays the same;
/// 0 keeps the cell's own. Results do not depend on it. Engine-level
/// failures (ModelViolations, program exceptions) are captured as
/// ok == false — run_job itself throws only for invalid arguments
/// (trials < 1) or unknown families (cache->instance).
JobResult run_job(const harness::CellSpec& spec, int trials,
                  EngineCache* cache, std::size_t workers = 0);

/// The BENCH-style result response: {"type":"result", "cell": ..., every
/// bench_matrix column, plus ledger_fp / warm / trials}.
std::string job_result_json(const harness::CellSpec& spec,
                            const JobResult& r);

}  // namespace ccq::service
