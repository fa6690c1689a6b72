#include "service/jobs.hpp"

#include <chrono>
#include <sstream>

#include "clique/chaos.hpp"
#include "clique/trace.hpp"
#include "harness/sweep.hpp"
#include "service/protocol.hpp"
#include "util/check.hpp"

namespace ccq::service {

JobResult run_job(const harness::CellSpec& spec, int trials,
                  EngineCache* cache, std::size_t workers) {
  CCQ_CHECK_MSG(trials >= 1, "run_job requires trials >= 1");
  JobResult out;
  out.trials = trials;

  const std::shared_ptr<const Instance> instance = cache->instance(spec);
  const NodeProgram program = harness::find_algorithm(spec.algorithm);
  Engine::Config cfg = harness::cell_engine_config(spec);
  if (workers != 0) cfg.workers = workers;

  EngineCache::Lease lease = cache->acquire(cell_shape(spec));
  out.warm = lease.warm();

  bool have_ref = false;
  std::vector<std::uint64_t> ref_outputs;
  for (int t = 0; t < trials; ++t) {
    RoundTrace trace;
    cfg.trace = &trace;
    ChaosPlan plan(harness::cell_chaos_config(spec));
    cfg.chaos = spec.chaos ? &plan : nullptr;

    RunResult res;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      res = lease.session().run(*instance, program, cfg);
    } catch (const std::exception& e) {
      out.ok = false;
      out.fail_reason = std::string("engine run failed: ") + e.what();
      return out;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t == 0 || ms < out.wall_ms) out.wall_ms = ms;

    // The same two-instrument cross-check run_cell performs: the trace's
    // per-record sums must reproduce its metered totals, and those totals
    // must equal the run's CostMeter.
    if (!trace.totals_match()) {
      out.ok = false;
      out.fail_reason = "trace ledger does not sum to its metered totals";
      return out;
    }
    if (!harness::meters_equal(trace.metered_totals(), res.cost)) {
      out.ok = false;
      out.fail_reason = "trace metered totals diverge from the run's meter";
      return out;
    }

    if (!have_ref) {
      have_ref = true;
      ref_outputs = res.outputs;
      out.cost = res.cost;
      out.output_fp = harness::outputs_fp(res.outputs);
      out.ledger_fp = harness::ledger_fingerprint(trace);
      out.faults = plan.total_faults();
    } else {
      if (res.outputs != ref_outputs ||
          !harness::meters_equal(res.cost, out.cost)) {
        out.ok = false;
        out.fail_reason = "trials disagree (nondeterministic cell)";
        return out;
      }
      if (harness::ledger_fingerprint(trace) != out.ledger_fp) {
        out.ok = false;
        out.fail_reason = "trace ledgers disagree across trials";
        return out;
      }
      if (plan.total_faults() != out.faults) {
        out.ok = false;
        out.fail_reason = "fault schedule not reproducible across trials";
        return out;
      }
    }
  }
  out.ok = true;
  return out;
}

std::string job_result_json(const harness::CellSpec& spec,
                            const JobResult& r) {
  char fp[32], lfp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(r.output_fp));
  std::snprintf(lfp, sizeof lfp, "%016llx",
                static_cast<unsigned long long>(r.ledger_fp));
  std::ostringstream os;
  os << "{\"type\": \"result\""
     << ", \"cell\": \"" << json_escape(spec.id()) << "\""
     << ", \"algorithm\": \"" << json_escape(spec.algorithm) << "\""
     << ", \"family\": \"" << json_escape(spec.family.name) << "\""
     << ", \"n\": " << spec.n
     << ", \"backend\": \"" << harness::backend_name(spec.backend) << "\""
     << ", \"chaos\": \"" << (spec.chaos ? "on" : "off") << "\""
     << ", \"rounds\": " << r.cost.rounds
     << ", \"messages\": " << r.cost.messages
     << ", \"bits\": " << r.cost.bits
     << ", \"collectives\": " << r.cost.collectives
     << ", \"max_sent\": " << r.cost.max_node_sent
     << ", \"max_received\": " << r.cost.max_node_received
     << ", \"wall_ms\": " << r.wall_ms
     << ", \"faults\": " << r.faults
     << ", \"output_fp\": \"" << fp << "\""
     << ", \"ledger_fp\": \"" << lfp << "\""
     << ", \"warm\": " << (r.warm ? "true" : "false")
     << ", \"trials\": " << r.trials << "}";
  return os.str();
}

}  // namespace ccq::service
