#pragma once

// The verifier-soundness campaign — the chaos layer's reason to exist.
//
// Completeness of the §5–§8 verifiers is exercised everywhere (honest
// provers, planted instances); soundness is not: nothing in the honest
// engine ever hands a verifier a corrupted certificate or a lying node.
// This module makes soundness an executable claim. Each Case pairs one
// verifier family from src/nondet with a planted instance family chosen to
// be *rigid*: the honest certificate is accepted, and every single-bit
// corruption of it must be rejected (per-case rigidity arguments live next
// to each constructor in soundness.cpp). run_case then drives three
// regimes per seeded trial:
//
//   clean      — honest certificate: must accept (completeness);
//   corrupted  — one deterministically chosen bit of one node's
//                certificate flipped: must reject, every time (rigidity);
//   byzantine  — honest certificate, but one node's every outgoing word is
//                replaced with seeded garbage by the chaos plane
//                (clique/chaos.hpp): rejection *rate* must meet the
//                per-case floor (soundness against a lying node is
//                probabilistic — garbage can collide with the truth).
//
// Trials alternate the execution backend, so a soundness escape on either
// backend fails the campaign, not just the semantics.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clique/engine.hpp"
#include "graph/graph.hpp"

namespace ccq::soundness {

/// A yes-instance together with its honest certificate.
struct Instance {
  Graph graph;
  Labelling certificate;
};

struct Case {
  std::string name;
  std::string theorem;  ///< which paper result's soundness this probes
  /// Required byzantine rejection rate (set from measured rates with
  /// margin; the clean/corrupted regimes are exact and need no floor).
  double byz_floor = 0.5;
  /// Deterministically build a yes-instance plus honest certificate.
  std::function<Instance(NodeId n, std::uint64_t seed)> prepare;
  /// Run the case's verifier on (instance, certificate) under `config`
  /// (backend selection, fault injection) and report acceptance.
  std::function<bool(const Instance&, const Labelling&,
                     const Engine::Config&)>
      accepts;
};

/// The campaign roster: every verifier family in src/nondet.
std::vector<Case> cases();

struct Report {
  std::string name;
  std::string theorem;
  NodeId n = 0;
  unsigned trials = 0;
  unsigned clean_accepts = 0;    ///< must equal trials
  unsigned corrupt_rejects = 0;  ///< must equal trials
  unsigned byz_rejects = 0;      ///< rate must meet byz_floor
  std::uint64_t byz_faults = 0;  ///< words replaced across byzantine runs
  double byz_floor = 0.5;

  bool clean_ok() const { return clean_accepts == trials; }
  bool corrupt_ok() const { return corrupt_rejects == trials; }
  double byz_rate() const {
    return trials == 0 ? 1.0
                       : static_cast<double>(byz_rejects) / trials;
  }
  bool byz_ok() const { return byz_rate() >= byz_floor; }
  bool ok() const { return clean_ok() && corrupt_ok() && byz_ok(); }
};

/// Run one case for `trials` seeded trials at size n. Trial t runs on the
/// sharded fiber backend when t is even and thread-per-node when odd, reuses each
/// prepared instance for a few consecutive trials (fresh corruption every
/// trial), and derives the corrupted node / bit / byzantine fault stream
/// from (seed, t) alone — a failing trial replays from two integers.
Report run_case(const Case& c, NodeId n, unsigned trials,
                std::uint64_t seed = 0x5eedULL);

}  // namespace ccq::soundness
