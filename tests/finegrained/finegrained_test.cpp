// Tests for the §7 fine-grained framework: the problem registry, the
// exponent estimator, and the Figure 1 reduction DAG consistency.

#include <gtest/gtest.h>

#include <set>

#include "finegrained/registry.hpp"

namespace ccq {
namespace {

TEST(Registry, CoversTheFigureOneBoxes) {
  auto ps = figure1_problems();
  std::set<std::string> names;
  for (const auto& p : ps) names.insert(p.name);
  // Representative boxes from every region of Figure 1.
  for (const char* expect :
       {"BFS tree", "SSSP uw/ud", "APSP uw/ud", "Transitive closure",
        "Boolean MM", "(min,+) MM", "Semiring MM", "Ring MM",
        "Triangle/3-IS", "size 3 subgraph", "2-DS", "3-VC", "MaxIS",
        "MinVC", "3-COL"}) {
    EXPECT_TRUE(names.count(expect)) << expect;
  }
  EXPECT_GE(ps.size(), 15u);
}

TEST(Registry, GalacticEntriesHaveNoRunner) {
  auto ps = figure1_problems();
  EXPECT_FALSE(find_problem(ps, "Ring MM").run);
  EXPECT_FALSE(find_problem(ps, "APSP uw/d").run);
  EXPECT_NEAR(find_problem(ps, "Ring MM").analytic_upper, 1.0 - 2.0 / kOmega,
              1e-9);
}

TEST(Registry, MeasuredEntriesRun) {
  auto ps = figure1_problems();
  for (const char* name : {"BFS tree", "Triangle/3-IS", "3-VC", "2-DS"}) {
    const auto& p = find_problem(ps, name);
    ASSERT_TRUE(p.run) << name;
    auto cost = p.run(16, 7);
    EXPECT_GE(cost.rounds, 0u) << name;
  }
}

TEST(Registry, UnknownProblemThrows) {
  auto ps = figure1_problems();
  EXPECT_THROW(find_problem(ps, "no-such-problem"), ModelViolation);
}

TEST(Registry, EdgesReferenceRegisteredProblems) {
  auto ps = figure1_problems();
  std::set<std::string> names;
  for (const auto& p : ps) names.insert(p.name);
  for (const auto& e : figure1_edges()) {
    EXPECT_TRUE(names.count(e.to)) << e.to;
    EXPECT_TRUE(names.count(e.from)) << e.from;
    // analytic_only must be set whenever an endpoint has no runner.
    const bool has_runner = find_problem(ps, e.to).run != nullptr &&
                            find_problem(ps, e.from).run != nullptr;
    if (!has_runner) {
      EXPECT_TRUE(e.analytic_only) << e.to << "<-" << e.from;
    }
  }
}

TEST(Estimator, KvcExponentNearZero) {
  auto ps = figure1_problems();
  auto est = estimate_exponent(find_problem(ps, "3-VC"), {16, 32, 64});
  EXPECT_NEAR(est.fit.slope, 0.0, 0.2);
}

TEST(Estimator, MaxIsExponentNearOne) {
  auto ps = figure1_problems();
  auto est = estimate_exponent(find_problem(ps, "MaxIS"), {16, 32, 64});
  // One ⌈n/B⌉-bit broadcast: slope 1 minus a log-factor drag at small n.
  EXPECT_GT(est.fit.slope, 0.55);
  EXPECT_LT(est.fit.slope, 1.1);
}

TEST(Estimator, TriangleCheaperThanMaxIs) {
  auto ps = figure1_problems();
  auto tri = estimate_exponent(find_problem(ps, "Triangle/3-IS"),
                               {16, 32, 64});
  auto mis = estimate_exponent(find_problem(ps, "MaxIS"), {16, 32, 64});
  EXPECT_LT(tri.fit.slope, mis.fit.slope + 0.05);
}

TEST(Estimator, SeriesRecordedPerSize) {
  auto ps = figure1_problems();
  auto est = estimate_exponent(find_problem(ps, "BFS tree"), {16, 24, 32});
  ASSERT_EQ(est.ns.size(), 3u);
  ASSERT_EQ(est.rounds.size(), 3u);
  EXPECT_EQ(est.ns[1], 24.0);
}

TEST(EdgeChecker, DetectsViolations) {
  std::vector<Figure1Edge> edges = {{"A", "B", "test", false}};
  // Names are built in place: GCC 12's -O3 flags assigning a literal into
  // a default-constructed std::string element with a false -Wrestrict.
  std::vector<ExponentEstimate> ests;
  ests.push_back({std::string("A"), {}, {}, {}});
  ests.push_back({std::string("B"), {}, {}, {}});
  ests[0].fit.slope = 0.9;
  ests[1].fit.slope = 0.2;
  auto violated = check_measured_edges(edges, ests, 0.1);
  ASSERT_EQ(violated.size(), 1u);  // δ(A) ≤ δ(B) badly violated
  EXPECT_EQ(violated[0].to, "A");
  // Generous tolerance silences it.
  EXPECT_TRUE(check_measured_edges(edges, ests, 1.0).empty());
  // Analytic edges are skipped.
  edges[0].analytic_only = true;
  EXPECT_TRUE(check_measured_edges(edges, ests, 0.1).empty());
}

TEST(EdgeChecker, MeasuredOrderingsHoldOnSmallSweep) {
  // End-to-end sanity at test scale: measure a subset of problems and
  // check the DAG edges among them (generous tolerance — small n).
  auto ps = figure1_problems();
  std::vector<ExponentEstimate> ests;
  for (const char* name :
       {"BFS tree", "SSSP uw/ud", "Triangle/3-IS", "size 3 subgraph",
        "MaxIS", "MinVC", "3-VC"}) {
    ests.push_back(estimate_exponent(find_problem(ps, name), {16, 32, 64}));
  }
  auto violated = check_measured_edges(figure1_edges(), ests, 0.35);
  for (const auto& e : violated) {
    ADD_FAILURE() << "violated: δ(" << e.to << ") ≤ δ(" << e.from << ")";
  }
}

}  // namespace
}  // namespace ccq
