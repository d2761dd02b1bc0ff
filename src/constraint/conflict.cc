#include "constraint/conflict.h"

#include <algorithm>

#include "constraint/targets.h"

namespace diva {

size_t SortedIntersectionSize(const std::vector<RowId>& a,
                              const std::vector<RowId>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double PairConflictRate(const Relation& relation,
                        const DiversityConstraint& a,
                        const DiversityConstraint& b) {
  std::vector<RowId> ta = a.TargetTuples(relation);
  std::vector<RowId> tb = b.TargetTuples(relation);
  if (ta.empty() || tb.empty()) return 0.0;
  // TargetTuples scans rows in order, so both lists are already sorted.
  size_t overlap = SortedIntersectionSize(ta, tb);
  return static_cast<double>(overlap) /
         static_cast<double>(std::min(ta.size(), tb.size()));
}

double ConflictRate(const Relation& relation,
                    const ConstraintSet& constraints) {
  if (constraints.size() < 2) return 0.0;
  const TargetSets targets = FindTargets(relation, constraints);
  const TargetOverlaps overlaps =
      ComputeOverlaps(targets.Lists(), relation.NumRows());
  // Disjoint pairs add exactly 0.0, so summing the intersecting pairs in
  // (i, j) order gives the all-pairs sum bit for bit.
  double total = 0.0;
  for (const TargetOverlap& pair : overlaps.pairs) {
    total += static_cast<double>(pair.overlap) /
             static_cast<double>(std::min(targets[pair.i].size(),
                                          targets[pair.j].size()));
  }
  const size_t n = constraints.size();
  return total / static_cast<double>(n * (n - 1) / 2);
}

}  // namespace diva
