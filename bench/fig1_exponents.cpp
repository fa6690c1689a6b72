// FIG1 — the fine-grained map (§7, Figure 1). Regenerates the figure as
// (a) a measured-exponent table: every box with an implemented solver is
//     swept over n, its empirical exponent fitted from engine rounds, and
//     printed next to the paper's analytic bound;
// (b) the arrow list: each edge δ(L1) ≤ δ(L2) checked against the measured
//     exponents (analytic edges printed with their citation instead).

#include <cstdio>

#include "finegrained/registry.hpp"
#include "util/table.hpp"

#include "bench_json.hpp"

using namespace ccq;

int main(int argc, char** argv) {
  ccq::benchjson::TraceSession ccq_trace_session(&argc, argv);
  std::printf("FIG1: the fine-grained complexity map, measured\n\n");

  auto problems = figure1_problems();
  // Sweep sizes: cube-friendly for the MM-based entries; per-problem
  // overrides keep exponential local solvers within budget.
  const std::vector<NodeId> default_ns = {27, 64, 125};
  const std::vector<NodeId> small_ns = {16, 32, 48};

  std::vector<ExponentEstimate> estimates;
  Table ta({"problem", "rounds@n", "fitted δ", "r2", "paper δ ≤",
            "source"});
  for (const auto& p : problems) {
    if (!p.run) {
      ta.add_row({p.name, "(analytic only)", "-", "-",
                  Table::fmt(p.analytic_upper, 3), p.upper_source});
      continue;
    }
    const bool heavy = p.name == "MaxIS" || p.name == "MinVC" ||
                       p.name == "3-COL" || p.name == "4-IS";
    const auto& ns = heavy ? small_ns : default_ns;
    auto est = estimate_exponent(p, ns, /*repetitions=*/1, /*seed=*/5);
    std::string series;
    for (std::size_t i = 0; i < est.rounds.size(); ++i) {
      series += std::to_string(static_cast<std::uint64_t>(est.rounds[i]));
      series += i + 1 < est.rounds.size() ? "/" : "";
    }
    ta.add_row({p.name, series, Table::fmt(est.fit.slope, 3),
                Table::fmt(est.fit.r2, 2), Table::fmt(p.analytic_upper, 3),
                p.upper_source});
    estimates.push_back(std::move(est));
  }
  ta.print();

  std::printf("\nFigure 1 arrows (δ(to) ≤ δ(from)):\n");
  auto edges = figure1_edges();
  const double tolerance = 0.35;
  auto violated = check_measured_edges(edges, estimates, tolerance);
  Table tb({"to", "from", "source", "status"});
  auto is_violated = [&](const Figure1Edge& e) {
    for (const auto& v : violated)
      if (v.to == e.to && v.from == e.from) return true;
    return false;
  };
  auto measured = [&](const std::string& name) {
    for (const auto& e : estimates)
      if (e.name == name) return true;
    return false;
  };
  for (const auto& e : edges) {
    std::string status;
    if (e.analytic_only) {
      status = "analytic (see source)";
    } else if (!measured(e.to) || !measured(e.from)) {
      status = "endpoint not in sweep";
    } else {
      status = is_violated(e) ? "VIOLATED" : "holds (measured)";
    }
    tb.add_row({e.to, e.from, e.source, status});
  }
  tb.print();
  if (!violated.empty()) {
    std::printf("\nShape check FAILED: %zu measured arrow%s VIOLATED beyond "
                "the %.2f tolerance.\n",
                violated.size(), violated.size() == 1 ? "" : "s", tolerance);
  } else {
    std::printf(
        "\nShape check: all measured arrows hold within tolerance; the "
        "ordering of the map —\nexponent-0 parameterised problems < "
        "detection/MM problems < learn-everything\nproblems — matches "
        "Figure 1. Absolute exponents carry a log-factor drag at these "
        "n\n(B = ⌈log₂n⌉ grows too), which inflates slopes toward the upper "
        "bounds.\n");
  }
  if (!ccq_trace_session.finish(nullptr)) return 1;
  return violated.empty() ? 0 : 1;
}
