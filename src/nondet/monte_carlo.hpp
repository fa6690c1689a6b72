#pragma once

// §8 ("Randomness"): a one-sided Monte Carlo algorithm converts to a
// nondeterministic algorithm — "the Monte Carlo algorithm can be converted
// to a nondeterministic algorithm" — which is how Theorem 4's separations
// extend to randomised computation.
//
// A OneSidedMonteCarlo is a shared-randomness decider: a deterministic
// run parameterised by a public seed, with NO false positives (it accepts
// only genuine yes-instances) and per-seed success probability bounded away
// from 0 on yes-instances. The conversion makes the seed the certificate:
//   G ∈ L  ⇒  some seed accepts  ⇒  ∃z the verifier accepts;
//   G ∉ L  ⇒  no seed accepts (one-sidedness)  ⇒  ∀z the verifier rejects.
// The verifier runs in the Monte Carlo algorithm's per-trial time.

#include <functional>
#include <string>

#include "clique/engine.hpp"
#include "graph/graph.hpp"
#include "nondet/round_verifier.hpp"

namespace ccq {

struct OneSidedMonteCarlo {
  std::string name;
  /// Deterministic single-trial run under a public seed. Must have no
  /// false positives. Returns the engine result (all-1 outputs = accept).
  /// The engine config is passed through so callers can select the
  /// backend or attach fault injection (clique/chaos.hpp) for the trial.
  std::function<RunResult(const Graph&, std::uint64_t seed,
                          const Engine::Config&)>
      trial;
  /// Seed bits the verifier's certificate carries (seeds < 2^seed_bits).
  unsigned seed_bits = 16;

  RunResult run_trial(const Graph& g, std::uint64_t seed,
                      const Engine::Config& config = {}) const {
    return trial(g, seed, config);
  }
};

/// The §8 conversion. The resulting "verifier" interface exposes:
///  * run(g, seed): deterministic verification of a claimed seed;
///  * prove(g, max_trials): honest prover — search for an accepting seed;
///  * certificate size = seed_bits (every node carries the same seed; the
///    verifier cross-checks agreement in one round).
class MonteCarloVerifier {
 public:
  explicit MonteCarloVerifier(OneSidedMonteCarlo mc) : mc_(std::move(mc)) {}

  const std::string& name() const { return mc_.name; }
  unsigned certificate_bits() const { return mc_.seed_bits; }

  /// Verify a claimed seed: one agreement round (all nodes must hold the
  /// same seed — a forged, disagreeing certificate is rejected) plus the
  /// deterministic trial. Returns the combined engine result. Both runs
  /// execute under `config` (backend selection, fault injection).
  RunResult verify(const Graph& g, const Labelling& z,
                   const Engine::Config& config = {}) const;

  /// Honest prover: search seeds 0..max_trials-1 for an accepting one.
  std::optional<Labelling> prove(const Graph& g, unsigned max_trials = 64,
                                 const Engine::Config& config = {}) const;

  /// Certificate carrying `seed` at every node.
  Labelling certificate(NodeId n, std::uint64_t seed) const;

 private:
  OneSidedMonteCarlo mc_;
};

/// The paper's running example of randomised advantage, §7.3/§8 flavour:
/// one colour-coding trial of k-path detection as a OneSidedMonteCarlo
/// (accepts only when a genuine colourful k-path exists — one-sided).
OneSidedMonteCarlo k_path_monte_carlo(unsigned k);

}  // namespace ccq
