#pragma once

// Declarative sweep manifests for the scenario matrix (DESIGN.md §14).
//
// A manifest is a JSON file describing a grid of measurement cells:
// {algorithm} × {graph family} × {n} × {backend} × {chaos on/off}.
// Each entry in "cells" is a *group* whose axis-valued keys (algorithm,
// family, n, backend, chaos) may be single values or arrays; the group
// expands to the cross product. "plane" is still accepted for old
// manifests and job frames, but its only value is "flat" and it does not
// expand: the arena plane is the only message plane. Parsing is strict:
// unknown keys, unknown enum values, out-of-range numbers, and duplicate
// expanded cell ids are all ModelViolations naming the manifest — a
// manifest nobody can trust is a trajectory nobody can read.
//
// The full schema (every key, type, default, validation rule) is documented
// in DESIGN.md §14; tools/check_docs.py cross-checks that table against the
// key lists in manifest.cpp, so the two cannot drift apart.

#include <cstdint>
#include <string>
#include <vector>

#include "clique/engine.hpp"
#include "graph/corpus.hpp"
#include "util/json.hpp"

namespace ccq::harness {

/// One fully expanded measurement cell.
struct CellSpec {
  std::string label;      ///< optional manifest-author prefix for id()
  std::string algorithm;  ///< sweep registry key (harness/sweep.hpp)
  corpus::FamilySpec family;
  NodeId n = 64;
  ExecutionBackend backend = ExecutionBackend::kSharded;
  bool chaos = false;
  // Default fault profile is flip+drop only: both preserve word counts, so
  // any algorithm survives them structurally (corruption stays semantic).
  // Duplicates add words and are rejected by fixed-framing collectives
  // (broadcast, MM) as ModelViolations — enable chaos_dup only on cells
  // whose protocol tolerates variable inbox sizes (e.g. routing_direct).
  double chaos_flip = 0.02;
  double chaos_drop = 0.01;
  double chaos_dup = 0.0;
  std::size_t workers = 0;
  unsigned bandwidth = 1;
  std::uint64_t seed = 1;

  /// Canonical identity used to match cells across runs (the trajectory
  /// checker's join key): "[label/]algorithm/family/n=../backend/
  /// chaos=on|off[/w=..][/B=..]". Tuning parameters (p, seed, ...) are not
  /// part of the id — cells are *scenarios*; retuning one is a baseline
  /// refresh, not a new scenario.
  std::string id() const;
};

struct Manifest {
  std::string name;
  int trials = 2;
  std::vector<CellSpec> cells;  ///< fully expanded, ids unique
};

/// Parse a manifest from memory; `origin` names the source in errors.
Manifest parse_manifest(const std::string& text, const std::string& origin);

/// Load and parse `path` (ModelViolation on unreadable file or any
/// validation failure).
Manifest load_manifest(const std::string& path);

/// Parse one ccqd job body (an already-parsed JSON object using the cell
/// schema above). Same validation as a manifest cell group, but the object
/// must expand to exactly one cell — axis arrays are rejected. `origin`
/// names the connection in errors.
CellSpec parse_job_cell(const json::Value& job, const std::string& origin);

const char* backend_name(ExecutionBackend b);

}  // namespace ccq::harness
