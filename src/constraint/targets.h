#ifndef DIVA_CONSTRAINT_TARGETS_H_
#define DIVA_CONSTRAINT_TARGETS_H_

/// The target sets I_sigma of a whole constraint set, and their pairwise
/// overlaps, from one pass over the relation.
///
/// BuildGraph (Algorithm 3) needs every I_sigma and which of them
/// intersect; the conflict rate and the nesting lint need the exact
/// |I_si ∩ I_sj|. Scanning the relation once per constraint and then
/// intersecting every pair costs O(|Σ|·|R| + |Σ|²·|I|). Here:
///
///  - FindTargets resolves each constraint's codes once, indexes the
///    constraints by (first attribute, code), and makes one parallel row
///    pass that checks only the constraints indexed under each row's
///    codes. A count pass sizes every list, a fill pass writes them into
///    one flat buffer: O(|R|·a + Σ|I_sigma|) for a first attributes.
///    CountAllOccurrences is the count pass alone.
///  - ComputeOverlaps sweeps the row→constraint incidence (a CSR built
///    from the lists) and accumulates, per constraint i, its overlap with
///    every j > i: O(Σ|I_sigma| + Σ_r m_r²), m_r the number of
///    constraints row r matches.
///
/// All are exact and identical at every thread width.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "constraint/diversity_constraint.h"
#include "relation/relation.h"

namespace diva {

/// A constraint's target values resolved once against one relation's
/// dictionaries. Matches(row) then costs |X| code compares, with no
/// string lookup. A constraint with a value absent from the dictionary
/// matches no row. Suppressing cells never invalidates a matcher;
/// interning a new target value into the dictionary does.
class TargetMatcher {
 public:
  TargetMatcher(const DiversityConstraint& constraint,
                const Relation& relation);

  bool Matches(const Relation& relation, RowId row) const {
    if (!resolved_) return false;
    for (size_t i = 0; i < attributes_.size(); ++i) {
      if (relation.At(row, attributes_[i]) != codes_[i]) return false;
    }
    return true;
  }

 private:
  std::vector<size_t> attributes_;
  std::vector<ValueCode> codes_;
  bool resolved_ = false;
};

/// Every I_sigma of a constraint set in one flat buffer: the list of
/// constraint c is rows[offsets[c], offsets[c + 1]), ascending by row id
/// — exactly constraints[c].TargetTuples(relation), restricted to rows
/// >= the pass's first row.
struct TargetSets {
  std::vector<size_t> offsets;
  std::vector<RowId> rows;

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const RowId> operator[](size_t c) const {
    return {rows.data() + offsets[c], offsets[c + 1] - offsets[c]};
  }
  /// One view per constraint, the input shape of ComputeOverlaps.
  std::vector<std::span<const RowId>> Lists() const;
};

/// One pass over rows [first_row, NumRows()) of `relation` for every
/// constraint of `constraints`.
TargetSets FindTargets(const Relation& relation,
                       const ConstraintSet& constraints,
                       size_t first_row = 0);

/// Occurrence counts of every constraint from the count pass alone:
/// counts[c] == constraints[c].CountOccurrences(relation), exactly.
/// Exact integer sums, identical at every pool width.
std::vector<size_t> CountAllOccurrences(const Relation& relation,
                                        const ConstraintSet& constraints);

/// One intersecting pair of target sets: i < j, overlap = |I_i ∩ I_j| > 0.
struct TargetOverlap {
  size_t i = 0;
  size_t j = 0;
  size_t overlap = 0;
};

struct TargetOverlaps {
  /// Every pair with a non-empty intersection, sorted by (i, j).
  std::vector<TargetOverlap> pairs;
  /// Incidence entries the sweep visited: for each row, the pairs of
  /// constraints it matches, Σ_r m_r·(m_r − 1)/2. A pure function of
  /// the target sets, so it is a deterministic work counter.
  uint64_t incidence_visits = 0;
};

/// The overlap sweep over `targets` (each list sorted ascending, every
/// row id < num_rows).
TargetOverlaps ComputeOverlaps(std::span<const std::span<const RowId>> targets,
                               size_t num_rows);

}  // namespace diva

#endif  // DIVA_CONSTRAINT_TARGETS_H_
