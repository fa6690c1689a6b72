#include "graph/corpus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "harness/manifest.hpp"
#include "harness/sweep.hpp"
#include "util/check.hpp"

namespace ccq {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---- edge-list loader ----------------------------------------------------

TEST(Corpus, EdgeListRoundTrip) {
  Graph g = gen::gnp(32, 0.3, 5);
  const std::string path = tmp_path("rt_plain.edges");
  corpus::save_edge_list(g, path);
  EXPECT_TRUE(corpus::load_edge_list(path) == g);
}

TEST(Corpus, EdgeListRoundTripWeighted) {
  Graph g = gen::gnp_weighted(24, 0.4, 100, 9);
  const std::string path = tmp_path("rt_weighted.edges");
  corpus::save_edge_list(g, path);
  Graph back = corpus::load_edge_list(path);
  EXPECT_TRUE(back.is_weighted());
  EXPECT_TRUE(back == g);
}

TEST(Corpus, EdgeListRoundTripDirected) {
  Graph g = gen::gnp_directed(20, 0.3, 11);
  const std::string path = tmp_path("rt_directed.edges");
  corpus::save_edge_list(g, path);
  Graph back = corpus::load_edge_list(path);
  EXPECT_TRUE(back.is_directed());
  EXPECT_TRUE(back == g);
}

TEST(Corpus, EdgeListCommentsAndBlanksIgnored) {
  Graph g = corpus::parse_edge_list(
      "# corpus sample\n"
      "\n"
      "ccq-edges 4\n"
      "0 1\n"
      "  # indented comment\n"
      "2 3\n",
      "inline");
  EXPECT_EQ(g.n(), 4u);
  EXPECT_EQ(g.m(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 2));
}

TEST(Corpus, EdgeListRejectionTable) {
  // Every malformed input is a ModelViolation, never a silently-wrong graph.
  const char* kBad[] = {
      "0 1\n",                             // missing header
      "ccq-graph 4\n0 1\n",                // wrong magic word
      "ccq-edges\n",                       // n missing
      "ccq-edges four\n",                  // n not a number
      "ccq-edges 4 sparse\n0 1\n",         // unknown header flag
      "ccq-edges 2097152\n",               // n > kMaxNodes
      "ccq-edges 4\n0 4\n",                // endpoint out of range
      "ccq-edges 4\n4 0\n",                // endpoint out of range
      "ccq-edges 4\n2 2\n",                // self loop
      "ccq-edges 4\n0 1\n0 1\n",           // duplicate edge
      "ccq-edges 4\n0 1\n1 0\n",           // duplicate, reversed orientation
      "ccq-edges 4 weighted\n0 1\n",       // weight missing
      "ccq-edges 4\n0 1 7\n",              // weight on unweighted graph
      "ccq-edges 4 weighted\n0 1 0\n",     // zero weight
      "ccq-edges 4 weighted\n0 1 4294967296\n",  // weight overflows u32
      "ccq-edges 4\n0 1 2 3\n",            // trailing tokens
      "ccq-edges 4\n0 -1\n",               // not an unsigned integer
  };
  for (const char* text : kBad) {
    EXPECT_THROW(corpus::parse_edge_list(text, "table"), ModelViolation)
        << "accepted malformed input:\n" << text;
  }
}

// ---- CSR loader ----------------------------------------------------------

struct CsrBytes {
  std::string s;
  CsrBytes& raw(std::string_view t) { s.append(t); return *this; }
  CsrBytes& u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
    return *this;
  }
  CsrBytes& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
    return *this;
  }
};

// The path 0-1-2 as stored CSR arcs (undirected: both endpoint rows).
std::string path3_csr(std::uint32_t flags,
                      const std::vector<std::uint64_t>& row_ptr,
                      const std::vector<std::uint32_t>& col,
                      const std::vector<std::uint32_t>& w = {}) {
  CsrBytes b;
  b.raw("CCQCSR01").u32(3).u32(flags).u64(col.size());
  for (std::uint64_t r : row_ptr) b.u64(r);
  for (std::uint32_t c : col) b.u32(c);
  for (std::uint32_t x : w) b.u32(x);
  return b.s;
}

TEST(Corpus, CsrRoundTrip) {
  Graph g = gen::gnp(40, 0.25, 13);
  const std::string path = tmp_path("rt_plain.csr");
  corpus::save_csr(g, path);
  EXPECT_TRUE(corpus::load_csr(path) == g);
}

TEST(Corpus, CsrRoundTripWeightedAndDirected) {
  for (Graph g : {gen::gnp_weighted(24, 0.4, 50, 3), gen::gnp_directed(20, 0.3, 4)}) {
    const std::string path = tmp_path("rt_flags.csr");
    corpus::save_csr(g, path);
    EXPECT_TRUE(corpus::load_csr(path) == g);
  }
}

TEST(Corpus, EdgeListCsrCrossRoundTrip) {
  // graph -> edge list -> graph -> CSR -> graph preserves identity exactly.
  Graph g = gen::gnp_weighted(32, 0.3, 16, 21);
  const std::string edges = tmp_path("cross.edges");
  const std::string csr = tmp_path("cross.csr");
  corpus::save_edge_list(g, edges);
  Graph via_edges = corpus::load_edge_list(edges);
  corpus::save_csr(via_edges, csr);
  EXPECT_TRUE(corpus::load_csr(csr) == g);
}

TEST(Corpus, CsrAcceptsWellFormed) {
  const std::string path = tmp_path("ok.csr");
  write_file(path, path3_csr(0, {0, 1, 3, 4}, {1, 0, 2, 1}));
  Graph g = corpus::load_csr(path);
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Corpus, CsrRejectionTable) {
  const std::string valid = path3_csr(0, {0, 1, 3, 4}, {1, 0, 2, 1});
  std::vector<std::pair<const char*, std::string>> bad;
  bad.emplace_back("bad magic", "XXQCSR01" + valid.substr(8));
  bad.emplace_back("truncated", valid.substr(0, valid.size() - 1));
  bad.emplace_back("trailing bytes", valid + '\0');
  bad.emplace_back("header only", valid.substr(0, 24));
  bad.emplace_back("unknown flag bit", path3_csr(4, {0, 1, 3, 4}, {1, 0, 2, 1}));
  bad.emplace_back("row_ptr[0] != 0", path3_csr(0, {1, 1, 3, 4}, {1, 0, 2, 1}));
  bad.emplace_back("row_ptr not monotone", path3_csr(0, {0, 3, 1, 4}, {1, 0, 2, 1}));
  bad.emplace_back("row_ptr[n] != nnz", path3_csr(0, {0, 1, 3, 3}, {1, 0, 2, 1}));
  bad.emplace_back("col out of range", path3_csr(0, {0, 1, 3, 4}, {1, 0, 5, 1}));
  bad.emplace_back("self loop", path3_csr(0, {0, 1, 3, 4}, {0, 0, 2, 1}));
  bad.emplace_back("columns unsorted", path3_csr(0, {0, 1, 3, 4}, {1, 2, 0, 1}));
  bad.emplace_back("asymmetric undirected", path3_csr(0, {0, 1, 1, 1}, {1}));
  bad.emplace_back("asymmetric weights",
                   path3_csr(2, {0, 1, 3, 4}, {1, 0, 2, 1}, {5, 9, 1, 1}));
  bad.emplace_back("zero weight",
                   path3_csr(2, {0, 1, 3, 4}, {1, 0, 2, 1}, {0, 0, 1, 1}));
  for (const auto& [what, bytes] : bad) {
    const std::string path = tmp_path("bad.csr");
    write_file(path, bytes);
    EXPECT_THROW(corpus::load_csr(path), ModelViolation)
        << "accepted malformed CSR: " << what;
  }
}

// ---- generators & family registry ----------------------------------------

TEST(Corpus, NewGeneratorsDeterministicPerSeed) {
  Graph a = gen::powerlaw_chung_lu(64, 2.5, 8.0, 7);
  EXPECT_TRUE(a == gen::powerlaw_chung_lu(64, 2.5, 8.0, 7));
  EXPECT_FALSE(a == gen::powerlaw_chung_lu(64, 2.5, 8.0, 8));
  gen::Planted c = gen::planted_communities(64, 4, 0.5, 0.05, 7);
  EXPECT_TRUE(c.graph == gen::planted_communities(64, 4, 0.5, 0.05, 7).graph);
  EXPECT_FALSE(c.graph == gen::planted_communities(64, 4, 0.5, 0.05, 9).graph);
}

TEST(Corpus, PowerlawDensityRoughlyRight) {
  Graph g = gen::powerlaw_chung_lu(256, 2.5, 8.0, 3);
  const double expected = 8.0 * 256 / 2;  // avg_degree * n / 2 edges
  EXPECT_GT(static_cast<double>(g.m()), expected * 0.5);
  EXPECT_LT(static_cast<double>(g.m()), expected * 1.5);
}

TEST(Corpus, FamilyRegistryDeterministic) {
  // Every non-file family is a pure function of (spec, n).
  for (const std::string& name : corpus::family_names()) {
    if (name == "edgelist" || name == "csr") continue;
    corpus::FamilySpec spec;
    spec.name = name;
    spec.seed = 5;
    Graph a = corpus::make_family(spec, 48);
    Graph b = corpus::make_family(spec, 48);
    EXPECT_TRUE(a == b) << "family '" << name << "' not deterministic";
    EXPECT_EQ(a.n(), 48u);
  }
  corpus::FamilySpec unknown;
  unknown.name = "mystery";
  EXPECT_THROW(corpus::make_family(unknown, 16), ModelViolation);
}

TEST(Corpus, FileFamiliesRequireMatchingN) {
  Graph g = gen::gnp(16, 0.4, 2);
  const std::string path = tmp_path("family_n.edges");
  corpus::save_edge_list(g, path);
  corpus::FamilySpec spec;
  spec.name = "edgelist";
  spec.path = path;
  EXPECT_TRUE(corpus::make_family(spec, 16) == g);
  EXPECT_THROW(corpus::make_family(spec, 8), ModelViolation);
}

// ---- manifest parsing & expansion ----------------------------------------

TEST(Corpus, ManifestAxisExpansion) {
  harness::Manifest m = harness::parse_manifest(R"json({
    "name": "grid",
    "trials": 3,
    "cells": [{
      "algorithm": ["routing_direct", "routing_balanced"],
      "family": "gnp", "p": 0.2,
      "n": [16, 32],
      "backend": "pooled",
      "chaos": [false, true]
    }]
  })json", "inline");
  EXPECT_EQ(m.trials, 3);
  EXPECT_EQ(m.cells.size(), 8u);  // 2 algos x 2 n x 2 chaos
  std::vector<std::string> ids;
  for (const auto& c : m.cells) {
    // "pooled" is an alias: it selects the sharded backend and its id.
    EXPECT_EQ(c.backend, ExecutionBackend::kSharded) << c.id();
    EXPECT_NE(c.id().find("/sharded/"), std::string::npos) << c.id();
    ids.push_back(c.id());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(Corpus, ManifestRejectionTable) {
  const char* kBad[] = {
      R"({"name": "x"})",                                   // no cells
      R"({"name": "x", "cells": [], "bogus": 1})",          // unknown key
      R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "frobnicate": 2}]})",   // unknown cell key
      R"({"name": "x", "cells": [{"algorithm": "nope",
          "family": "gnp", "n": 16}]})",                    // unknown algorithm
      R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "nope", "n": 16}]})",                   // unknown family
      R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "plane": "warped"}]})", // unknown plane
      R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "plane": "legacy"}]})", // removed plane
      R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 0}]})",                     // n out of range
      R"({"name": "x", "trials": 0, "cells": [{"algorithm":
          "routing_direct", "family": "gnp", "n": 16}]})",  // trials range
      R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "p": 1.5}]})",          // probability range
      R"({"name": "x", "cells": [
          {"algorithm": "routing_direct", "family": "gnp", "n": 16},
          {"algorithm": "routing_direct", "family": "gnp", "n": 16}]})",
      // ^ duplicate expanded cell id
      R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "backend": ["pooled", "sharded"]}]})",
      // ^ duplicate expanded cell id: "pooled" is an alias of "sharded"
      R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16,)",                      // truncated JSON
  };
  for (const char* text : kBad) {
    EXPECT_THROW(harness::parse_manifest(text, "table"), ModelViolation)
        << "accepted malformed manifest:\n" << text;
  }
  // The removed plane is named as removed, not merely unknown.
  try {
    harness::parse_manifest(R"({"name": "x", "cells": [{"algorithm":
        "routing_direct", "family": "gnp", "n": 16, "plane": "legacy"}]})",
                            "table");
    ADD_FAILURE() << "accepted plane 'legacy'";
  } catch (const ModelViolation& e) {
    EXPECT_NE(std::string(e.what()).find("plane 'legacy' was removed"),
              std::string::npos)
        << e.what();
  }
  // The alias pair fails as a duplicate cell, not as an unknown backend.
  try {
    harness::parse_manifest(R"({"name": "x", "cells": [{"algorithm":
        "routing_direct", "family": "gnp", "n": 16,
        "backend": ["pooled", "sharded"]}]})",
                            "table");
    ADD_FAILURE() << "accepted backends 'pooled' and 'sharded' together";
  } catch (const ModelViolation& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate expanded cell id"),
              std::string::npos)
        << e.what();
  }
}

// ---- end-to-end: cells through the engine with ledger cross-check --------

TEST(Corpus, TwoCellManifestEndToEnd) {
  // run_cell() itself asserts meter == trace-ledger totals and inter-trial
  // agreement; ok == true certifies the cross-check passed for the cell.
  harness::Manifest m = harness::parse_manifest(R"json({
    "name": "e2e",
    "trials": 2,
    "cells": [
      {"algorithm": "routing_balanced", "family": "gnp", "p": 0.3, "n": 32,
       "plane": "flat", "backend": "pooled", "chaos": false},
      {"algorithm": "routing_direct", "family": "powerlaw", "n": 32,
       "plane": "flat", "backend": "pooled", "chaos": true,
       "chaos_dup": 0.01}
    ]
  })json", "inline");
  ASSERT_EQ(m.cells.size(), 2u);
  for (const harness::CellSpec& spec : m.cells) {
    harness::CellResult r = harness::run_cell(spec, m.trials);
    EXPECT_TRUE(r.ok) << spec.id() << ": " << r.fail_reason;
    EXPECT_GT(r.cost.rounds, 0u) << spec.id();
    EXPECT_GT(r.cost.bits, 0u) << spec.id();
    if (spec.chaos) {
      EXPECT_GT(r.faults, 0u) << spec.id();
    } else {
      EXPECT_EQ(r.faults, 0u) << spec.id();
    }
  }
}

TEST(Corpus, CellDeterministicAcrossWorkerCounts) {
  harness::CellSpec spec;
  spec.algorithm = "mm_bool_3d";
  spec.family.name = "gnp";
  spec.family.p = 0.2;
  spec.n = 27;  // perfect cube: exercises the 3D grid path
  spec.family.seed = spec.seed = 3;
  EXPECT_EQ(harness::check_worker_determinism(spec), "");
}

}  // namespace
}  // namespace ccq
