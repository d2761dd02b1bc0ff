#include "core/constraint_graph.h"

#include <algorithm>

#include "common/rng.h"
#include "constraint/targets.h"

namespace diva {

bool ConstraintGraph::HasEdge(size_t i, size_t j) const {
  const auto& neighbors = adjacency[i];
  return std::binary_search(neighbors.begin(), neighbors.end(), j);
}

ConstraintGraph BuildConstraintGraph(const Relation& relation,
                                     const ConstraintSet& constraints) {
  ConstraintGraph graph;
  const TargetSets sets = FindTargets(relation, constraints);
  graph.targets.reserve(sets.size());
  for (size_t c = 0; c < sets.size(); ++c) {
    graph.targets.emplace_back(sets[c].begin(), sets[c].end());
  }
  LinkOverlappingTargets(&graph, relation.NumRows());
  graph.row_tags = MakeRowTags(relation.NumRows());
  return graph;
}

void LinkOverlappingTargets(ConstraintGraph* graph, size_t num_rows) {
  const std::vector<std::span<const RowId>> lists(graph->targets.begin(),
                                                  graph->targets.end());
  const TargetOverlaps overlaps = ComputeOverlaps(lists, num_rows);
  // Pairs arrive sorted by (i, j), so every neighbor list fills in
  // ascending order: first the i < node, then the j > node.
  graph->adjacency.assign(graph->targets.size(), {});
  for (const TargetOverlap& pair : overlaps.pairs) {
    graph->adjacency[pair.i].push_back(pair.j);
    graph->adjacency[pair.j].push_back(pair.i);
  }
  graph->incidence_visits = overlaps.incidence_visits;
}

std::vector<uint64_t> MakeRowTags(size_t num_rows) {
  // Constant seed: row tags (and every fingerprint derived from them)
  // must not vary run to run, or the coloring search would stop being
  // reproducible for a given options seed.
  Rng tag_rng(uint64_t{0x5e7f1a9bc0ffee11ULL});
  std::vector<uint64_t> tags(num_rows);
  for (uint64_t& tag : tags) {
    tag = tag_rng.Next();
  }
  return tags;
}

}  // namespace diva
