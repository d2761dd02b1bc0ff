#ifndef DIVA_CORE_CONSTRAINT_GRAPH_H_
#define DIVA_CORE_CONSTRAINT_GRAPH_H_

#include <cstdint>
#include <vector>

#include "constraint/diversity_constraint.h"
#include "relation/relation.h"

namespace diva {

/// The constraint-interaction graph of Section 3.3: one node per
/// diversity constraint, an undirected edge between sigma_i and sigma_j
/// iff their target tuple sets overlap (I_si ∩ I_sj != ∅).
struct ConstraintGraph {
  /// targets[i] = I_sigma_i, sorted ascending by row id.
  std::vector<std::vector<RowId>> targets;
  /// adjacency[i] = indices of neighboring constraints (sorted).
  std::vector<std::vector<size_t>> adjacency;

  /// row_tags[r] = a fixed-seed random 64-bit tag for row r. A row set's
  /// fingerprint is the XOR of its members' tags, so adding/removing a
  /// row updates the fingerprint in O(1) — the coloring engine keys its
  /// cluster registry and candidate memo on these instead of rehashing
  /// whole row vectors. Seed is a constant, so tags (and everything keyed
  /// on them) are identical across runs and thread widths.
  std::vector<uint64_t> row_tags;

  /// Work counter of the overlap sweep that built `adjacency`
  /// (TargetOverlaps::incidence_visits); 0 for a hand-built graph. A
  /// pure function of `targets`, reported as graph.incidence_visits.
  uint64_t incidence_visits = 0;

  size_t NumNodes() const { return targets.size(); }
  bool HasEdge(size_t i, size_t j) const;
};

/// Builds the graph for (R, Sigma) — BuildGraph of Algorithm 3: every
/// I_sigma from one row pass (FindTargets), the edges from one overlap
/// sweep (ComputeOverlaps).
ConstraintGraph BuildConstraintGraph(const Relation& relation,
                                     const ConstraintSet& constraints);

/// Rebuilds `graph->adjacency` and `graph->incidence_visits` from
/// `graph->targets` (sorted lists of row ids < num_rows) with one
/// overlap sweep. Shared by the cold build and incremental maintenance.
void LinkOverlappingTargets(ConstraintGraph* graph, size_t num_rows);

/// The fixed-seed tag table BuildConstraintGraph stores in `row_tags`.
/// Exposed so the coloring engine can regenerate identical tags for a
/// hand-constructed graph that never went through BuildConstraintGraph.
std::vector<uint64_t> MakeRowTags(size_t num_rows);

}  // namespace diva

#endif  // DIVA_CORE_CONSTRAINT_GRAPH_H_
