#pragma once

// The nondeterministic congested clique (§5).
//
// A nondeterministic algorithm A takes the input graph plus a labelling z
// (one label per node — the nondeterministic guesses / external certificate)
// and L = { G : ∃z. A(G,z) = 1 }.
//
// Verifiers here are *round-structured*: an explicit T(n)-round machine
// given by a `send` function (what node v transmits in round r, as a
// function of its local view: input row, label, messages received so far)
// and an `accept` predicate on the final view. This white-box shape is
// exactly the model of §3 and is what makes the Theorem 3 transcript
// construction implementable: the normal-form verifier must re-simulate a
// single node of A against a claimed transcript, which requires A's
// per-node behaviour to be a function, not an opaque program.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "clique/engine.hpp"
#include "graph/graph.hpp"

namespace ccq {

/// Everything node v knows at any point of a run.
struct LocalView {
  NodeId id = 0;
  NodeId n = 0;
  unsigned bandwidth = 0;
  BitVector row;    ///< incident edges
  BitVector label;  ///< z_v
  /// received[r][u] = word received from u in round r (rounds completed so
  /// far only).
  std::vector<std::vector<std::optional<Word>>> received;
};

struct RoundVerifier {
  std::string name;
  /// T(n): number of communication rounds.
  std::function<unsigned(NodeId)> rounds;
  /// S(n): exact label size in bits per node (uniform across nodes; a
  /// verifier is free to ignore trailing bits, which models "size at most").
  std::function<std::size_t(NodeId)> label_bits;
  /// Messages node view.id sends in round r.
  std::function<std::vector<std::pair<NodeId, Word>>(const LocalView&,
                                                     unsigned r)>
      send;
  /// Final decision of this node.
  std::function<bool(const LocalView&)> accept;
  /// Honest prover: an accepting labelling for yes-instances, nullopt for
  /// no-instances. Used by tests/benches; the ∃z semantics never consults
  /// it.
  std::function<std::optional<Labelling>(const Graph&)> prover;
};

/// Execute the verifier on (g, z) through the clique engine (so the run is
/// metered and bandwidth-checked). z must assign each node exactly
/// label_bits(n) bits. `config` selects the backend and may attach
/// fault injection (clique/chaos.hpp) — the soundness campaign sweeps it.
RunResult run_verifier(const Graph& g, const RoundVerifier& v,
                       const Labelling& z,
                       const Engine::Config& config = {});

/// Zero labelling of the right shape.
Labelling zero_labelling(const Graph& g, const RoundVerifier& v);

/// The ∃z semantics by exhaustive search over all labellings — the ground
/// truth for tiny instances. Requires n · label_bits(n) ≤ max_total_bits
/// (default 16 ⇒ ≤ 65536 engine runs).
struct NondetDecision {
  bool accepted = false;
  Labelling witness;  ///< an accepting labelling when accepted
};
NondetDecision exhaustive_nondet_decide(const Graph& g,
                                        const RoundVerifier& v,
                                        unsigned max_total_bits = 16);

/// Run with the honest prover: returns nullopt if the prover declines
/// (claims no-instance); otherwise the engine result on its certificate.
std::optional<RunResult> run_with_prover(const Graph& g,
                                         const RoundVerifier& v);

/// Central (threadless, unmetered) simulation of a verifier run — same
/// semantics as run_verifier (tests assert this), used where thousands of
/// runs are enumerated (∃z search, protocol counting).
struct SimulatedRun {
  bool accepted = false;
  std::vector<LocalView> views;  ///< final view of every node
};
SimulatedRun simulate_verifier(const Graph& g, const RoundVerifier& v,
                               const Labelling& z);

}  // namespace ccq
