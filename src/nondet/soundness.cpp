#include "nondet/soundness.hpp"

#include <utility>

#include "clique/chaos.hpp"
#include "graph/generators.hpp"
#include "nondet/edge_labelling.hpp"
#include "nondet/monte_carlo.hpp"
#include "nondet/verifiers.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace ccq::soundness {

namespace {

Labelling labels_from_values(NodeId n,
                             const std::vector<std::uint64_t>& vals,
                             unsigned bits) {
  Labelling z(n);
  for (NodeId v = 0; v < n; ++v) {
    BitVector b;
    b.append_bits(vals[v], bits);
    z[v] = std::move(b);
  }
  return z;
}

Labelling membership_labels(NodeId n, const std::vector<NodeId>& set) {
  Labelling z(n, BitVector(1));
  for (NodeId v : set) z[v].set(0);
  return z;
}

/// Wrap a RoundVerifier as a Case::accepts.
std::function<bool(const Instance&, const Labelling&, const Engine::Config&)>
verifier_accepts(RoundVerifier v) {
  return [v = std::move(v)](const Instance& inst, const Labelling& z,
                            const Engine::Config& cfg) {
    return run_verifier(inst.graph, v, z, cfg).accepted();
  };
}

/// Node-level certificate for edge_labelling_verifier: node u's label is
/// the concatenation of ℓ(u,w) over peers w in id order (the verifier's
/// peer_slot layout).
Labelling edge_labelling_certificate(const EdgeLabelling& ell,
                                     unsigned eb) {
  Labelling z(ell.n);
  for (NodeId u = 0; u < ell.n; ++u) {
    BitVector bits;
    for (NodeId w = 0; w < ell.n; ++w) {
      if (w != u) bits.append_bits(ell.label(u, w), eb);
    }
    z[u] = std::move(bits);
  }
  return z;
}

// --- case constructors --------------------------------------------------
//
// Each comment states the rigidity argument: why ANY single-bit flip of
// the honest certificate is rejected on this instance family.

// k-colouring on a complete 4-partite graph. cbits = 2 and k = 4, so
// every 2-bit value is a legal colour; a flip moves node b to a different
// colour class c', and in the complete multipartite graph b is adjacent to
// the whole of c' — a monochromatic edge, rejected. The campaign's first
// escape lived here: planted_k_colourable draws colours uniformly (an
// EMPTY class at n = 16 with probability ≈ 4%), and a flip into an empty
// class is a genuinely proper recolouring the verifier rightly accepts.
// Rigidity needs every class inhabited, so nodes 0..k−1 pin their own
// classes and the rest are random.
Case colouring_case() {
  Case c;
  c.name = "k-colouring";
  c.theorem = "Theorem 4";
  // byz floor: measured 0.955 at n=16 (empty garbage colour class collisions),
  // 1.0 beyond.
  c.byz_floor = 0.85;
  const unsigned k = 4, cbits = 2;
  c.prepare = [k, cbits](NodeId n, std::uint64_t seed) {
    CCQ_CHECK(n >= k);
    std::vector<std::uint64_t> colour(n);
    for (NodeId v = 0; v < n; ++v) {
      colour[v] = v < k ? v : mix64_below(seed ^ (v + 1), k);
    }
    Graph g = Graph::undirected(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId w = u + 1; w < n; ++w) {
        if (colour[u] != colour[w]) g.add_edge(u, w);
      }
    }
    return Instance{std::move(g), labels_from_values(n, colour, cbits)};
  };
  c.accepts = verifier_accepts(verifiers::k_colouring(k));
  return c;
}

// Hamiltonian path, positions from the planted order. The claimed
// positions must form a permutation: a flipped position p ⊕ 2^i either
// leaves [0, n) (range check) or collides with the node genuinely at that
// position (the other n−1 positions cover everything except b's true one).
// Rigid for every n, power of two or not.
Case ham_path_case() {
  Case c;
  c.name = "hamiltonian-path";
  c.theorem = "Theorem 4";
  // byz floor: measured 1.0 everywhere: garbage positions collide with the
  // permutation.
  c.byz_floor = 0.95;
  c.prepare = [](NodeId n, std::uint64_t seed) {
    auto planted = gen::planted_hamiltonian_path(n, 0.1, seed);
    std::vector<std::uint64_t> pos(n);
    for (NodeId i = 0; i < n; ++i) pos[planted.witness[i]] = i;
    return Instance{std::move(planted.graph),
                    labels_from_values(n, pos, node_id_bits(n))};
  };
  c.accepts = verifier_accepts(verifiers::hamiltonian_path());
  return c;
}

// k-clique / k-IS: 1-bit membership labels with an EXACT count check.
// Flipping a member off gives count k−1, flipping a non-member on gives
// k+1 — every node rejects on the count alone, any graph.
Case clique_case() {
  Case c;
  c.name = "k-clique";
  c.theorem = "Theorem 4";
  // byz floor: measured 1.0: any receiver seeing a flipped membership bit
  // breaks the exact count.
  c.byz_floor = 0.95;
  const unsigned k = 6;
  c.prepare = [k](NodeId n, std::uint64_t seed) {
    auto planted = gen::planted_clique(n, k, 0.3, seed);
    return Instance{std::move(planted.graph),
                    membership_labels(n, planted.witness)};
  };
  c.accepts = verifier_accepts(verifiers::k_clique(k));
  return c;
}

Case independent_set_case() {
  Case c;
  c.name = "k-independent-set";
  c.theorem = "Theorem 4";
  // byz floor: measured 1.0, same exact-count argument as k-clique.
  c.byz_floor = 0.95;
  const unsigned k = 6;
  c.prepare = [k](NodeId n, std::uint64_t seed) {
    auto planted = gen::planted_independent_set(n, k, 0.3, seed);
    return Instance{std::move(planted.graph),
                    membership_labels(n, planted.witness)};
  };
  c.accepts = verifier_accepts(verifiers::k_independent_set(k));
  return c;
}

// k-DS counts "at most k", so the exact-count argument fails: we make the
// instance rigid instead. A star forest over centers 0..k−1, every other
// node a leaf of exactly one center (leaves k..2k−1 deterministically give
// each center one), edges only center–leaf. Flipping a leaf on: count
// k+1 > k, rejected. Flipping a center off: count k−1 passes, but the
// center's neighbours are all non-member leaves, so the center itself is
// undominated — rejected. Needs n ≥ 2k.
Case dominating_set_case() {
  Case c;
  c.name = "k-dominating-set";
  c.theorem = "Theorem 4";
  // byz floor: measured 0.765 at n=16: a byzantine center is only caught by
  // its leaves (one at n=16), each fooled w.p. 1/2.
  c.byz_floor = 0.6;
  const unsigned k = 8;
  c.prepare = [k](NodeId n, std::uint64_t seed) {
    CCQ_CHECK_MSG(n >= 2 * k, "star forest needs n >= 2k");
    Graph g = Graph::undirected(n);
    for (NodeId u = k; u < n; ++u) {
      const NodeId center =
          u < 2 * k ? u - k
                    : static_cast<NodeId>(mix64_below(seed ^ (u + 1), k));
      g.add_edge(u, center);
    }
    std::vector<NodeId> centers(k);
    for (NodeId i = 0; i < k; ++i) centers[i] = i;
    return Instance{std::move(g), membership_labels(n, centers)};
  };
  c.accepts = verifier_accepts(verifiers::k_dominating_set(k));
  return c;
}

// Connectivity on a random-attachment tree, certificate = BFS (dist,
// parent) from the prover. On a tree every neighbour of b sits one level
// away, so: a flipped dist is 0 (two roots), ≥ n (range), or contradicts
// the parent's broadcast dist; a flipped parent points at a non-neighbour
// or at a child one level *down*. The root's parent field is covered by
// the canonical self-parent check (the soundness escape this campaign
// found and fixed — see verifiers.cpp).
Case connectivity_case() {
  Case c;
  c.name = "connectivity";
  c.theorem = "Theorem 4";
  // byz floor: measured 0.79-0.83: a byzantine leaf is only caught when some
  // receiver draws dist 0 (prob ~1-1/e) or by its children.
  c.byz_floor = 0.65;
  RoundVerifier v = verifiers::connectivity();
  c.prepare = [v](NodeId n, std::uint64_t seed) {
    Graph g = Graph::undirected(n);
    for (NodeId u = 1; u < n; ++u) {
      g.add_edge(u, static_cast<NodeId>(
                        mix64_below(seed ^ (u * 0x9e3779b97f4a7c15ULL), u)));
    }
    auto z = v.prover(g);
    CCQ_CHECK_MSG(z.has_value(), "tree must be connected");
    return Instance{std::move(g), std::move(*z)};
  };
  c.accepts = verifier_accepts(std::move(v));
  return c;
}

// Theorem 6, forward direction: an explicit edge labelling problem
// (ℓ(u,w) must equal u ⊕ w) through edge_labelling_verifier. Both
// endpoints carry a copy of every incident label and the verifier
// cross-checks them bit-for-bit before evaluating the constraint, so a
// flip in either copy is a mismatch — rejected regardless of content.
Case edge_parity_case() {
  Case c;
  c.name = "edge-labelling-parity";
  c.theorem = "Theorem 6";
  // byz floor: measured 1.0: garbage label copies mismatch the endpoint w.p.
  // 1-2^-eb per receiver.
  c.byz_floor = 0.95;
  EdgeLabellingProblem p;
  p.name = "xor-parity";
  p.label_bits = [](NodeId n) { return node_id_bits(n); };
  p.satisfied = [](NodeId n, NodeId u, const BitVector&,
                   const std::vector<std::uint64_t>& incident) {
    for (NodeId w = 0; w < n; ++w) {
      if (w != u && incident[w] != (u ^ w)) return false;
    }
    return true;
  };
  c.prepare = [](NodeId n, std::uint64_t seed) {
    const unsigned eb = node_id_bits(n);
    EdgeLabelling ell;
    ell.n = n;
    ell.bits = eb;
    ell.labels.assign(static_cast<std::size_t>(n) * (n - 1) / 2, 0);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId w = u + 1; w < n; ++w) {
        ell.labels[EdgeLabelling::pair_index(u, w, n)] = u ^ w;
      }
    }
    // The parity constraint ignores the input graph; a random one keeps
    // the engine runs honest about adjacency-dependent code paths.
    return Instance{gen::gnp(n, 0.1, seed),
                    edge_labelling_certificate(ell, eb)};
  };
  c.accepts = verifier_accepts(edge_labelling_verifier(p));
  return c;
}

// Theorem 6, reverse direction: the transcript labelling induced by the
// k-clique(4) verifier, honest labels from an accepting run. Same
// endpoint cross-check as above, so single-bit rigidity is structural;
// clean acceptance is exactly the theorem's honest direction.
Case edge_transcript_case() {
  Case c;
  c.name = "edge-labelling-transcript";
  c.theorem = "Theorem 6";
  // byz floor: measured 1.0, same endpoint cross-check.
  c.byz_floor = 0.95;
  const unsigned k = 4;
  RoundVerifier a = verifiers::k_clique(k);
  EdgeLabellingProblem p = edge_labelling_from_verifier(a);
  c.prepare = [a, p, k](NodeId n, std::uint64_t seed) {
    auto planted = gen::planted_clique(n, k, 0.3, seed);
    const Labelling z = membership_labels(n, planted.witness);
    const EdgeLabelling ell = edge_labels_from_run(planted.graph, a, z);
    return Instance{
        std::move(planted.graph),
        edge_labelling_certificate(
            ell, static_cast<unsigned>(p.label_bits(n)))};
  };
  c.accepts = verifier_accepts(edge_labelling_verifier(p));
  return c;
}

// §8 conversion: the k-path Monte Carlo trial with the seed as the
// certificate. Every node carries the same 16-bit seed and the verifier's
// first move is an agreement broadcast, so a flip at any node disagrees
// with all n−1 others — rejected before the trial even runs.
Case monte_carlo_case() {
  Case c;
  c.name = "monte-carlo-k-path";
  c.theorem = "Section 8";
  // byz floor: measured 1.0: the agreement broadcast catches a garbled 16-bit
  // seed.
  c.byz_floor = 0.95;
  const unsigned k = 4;
  MonteCarloVerifier mcv(k_path_monte_carlo(k));
  c.prepare = [mcv](NodeId n, std::uint64_t seed) {
    auto planted = gen::planted_hamiltonian_path(n, 0.05, seed);
    // A Hamiltonian path contains k-paths everywhere, so almost every
    // colour-coding seed accepts and the prover search is short.
    auto z = mcv.prove(planted.graph, /*max_trials=*/256);
    CCQ_CHECK_MSG(z.has_value(), "no accepting seed within 256 trials");
    return Instance{std::move(planted.graph), std::move(*z)};
  };
  c.accepts = [mcv](const Instance& inst, const Labelling& z,
                    const Engine::Config& cfg) {
    return mcv.verify(inst.graph, z, cfg).accepted();
  };
  return c;
}

}  // namespace

std::vector<Case> cases() {
  std::vector<Case> all;
  all.push_back(colouring_case());
  all.push_back(ham_path_case());
  all.push_back(clique_case());
  all.push_back(independent_set_case());
  all.push_back(dominating_set_case());
  all.push_back(connectivity_case());
  all.push_back(edge_parity_case());
  all.push_back(edge_transcript_case());
  all.push_back(monte_carlo_case());
  return all;
}

Report run_case(const Case& c, NodeId n, unsigned trials,
                std::uint64_t seed) {
  // Instances are reused for a few consecutive trials (fresh corruption
  // each trial) so prepare cost — notably the Monte Carlo prover search —
  // stays a small fraction of the campaign.
  constexpr unsigned kTrialsPerInstance = 10;

  Report r;
  r.name = c.name;
  r.theorem = c.theorem;
  r.n = n;
  r.trials = trials;
  r.byz_floor = c.byz_floor;

  Instance inst;
  for (unsigned t = 0; t < trials; ++t) {
    if (t % kTrialsPerInstance == 0) {
      inst = c.prepare(
          n, mix64(seed ^ ((t / kTrialsPerInstance + 1) *
                           0x9e3779b97f4a7c15ULL)));
    }

    Engine::Config cfg;
    cfg.backend = t % 2 == 0 ? ExecutionBackend::kSharded
                             : ExecutionBackend::kThreadPerNode;

    // Clean: the honest certificate must be accepted.
    r.clean_accepts += c.accepts(inst, inst.certificate, cfg) ? 1 : 0;

    // Corrupted: flip one deterministically chosen bit of one node's
    // certificate — rigidity demands rejection every time.
    const std::uint64_t h = mix64(seed ^ (t * 0xbf58476d1ce4e5b9ULL + 1));
    const NodeId b = static_cast<NodeId>(mix64_below(h ^ 1, n));
    Labelling bad = inst.certificate;
    CCQ_CHECK(!bad[b].empty());
    const std::size_t bit = mix64_below(h ^ 2, bad[b].size());
    bad[b].set(bit, !bad[b].get(bit));
    r.corrupt_rejects += c.accepts(inst, bad, cfg) ? 0 : 1;

    // Byzantine: honest certificate, but node b's every outgoing word is
    // replaced with seeded garbage on the wire.
    ChaosPlan::Config chaos_cfg;
    chaos_cfg.seed = h;
    chaos_cfg.byzantine = {b};
    ChaosPlan plan(std::move(chaos_cfg));
    Engine::Config byz_cfg = cfg;
    byz_cfg.chaos = &plan;
    r.byz_rejects += c.accepts(inst, inst.certificate, byz_cfg) ? 0 : 1;
    r.byz_faults += plan.fault_count(FaultKind::kByzantine);
  }
  return r;
}

}  // namespace ccq::soundness
