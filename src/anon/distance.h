#ifndef DIVA_ANON_DISTANCE_H_
#define DIVA_ANON_DISTANCE_H_

#include <cmath>
#include <span>
#include <vector>

#include "relation/relation.h"

namespace diva {

/// The quasi-identifier codes of `rows`, packed row-major in
/// qi_indices() order: row i's codes are [i * |QI|, (i + 1) * |QI|).
/// This is the input of the packed forms below, which read one
/// contiguous run of codes per row instead of one random row-major
/// Relation::At per attribute.
std::vector<ValueCode> PackQiCodes(const Relation& relation,
                                   std::span<const RowId> rows);

/// Normalized tuple distance over quasi-identifier attributes:
/// categorical attributes contribute 0/1 (Hamming), numeric attributes
/// contribute |a - b| / range. Suppressed cells mismatch everything
/// (including other suppressed cells, except themselves by identity).
///
/// Precomputes, once, each numeric QI's value table (code -> value, from
/// NumericValueOf) and 1 / range. The packed form then scores two runs
/// of PackQiCodes codes; Distance(RowId, RowId) gathers both rows and
/// calls it. Terms are summed in qi_indices() order, so every caller gets
/// the same double for the same pair.
class DistanceMetric {
 public:
  explicit DistanceMetric(const Relation& relation);

  /// Distance in [0, |QI|] between two rows.
  double Distance(RowId a, RowId b) const;

  /// Distance between two rows' packed QI codes (|QI| codes each).
  double Distance(std::span<const ValueCode> a,
                  std::span<const ValueCode> b) const {
    double total = 0.0;
    for (size_t i = 0; i < inv_range_qi_.size(); ++i) {
      const ValueCode ca = a[i];
      const ValueCode cb = b[i];
      if (ca == cb) {
        if (ca == kSuppressed) total += 1.0;  // two stars are incomparable
        continue;
      }
      if (ca == kSuppressed || cb == kSuppressed) {
        total += 1.0;
        continue;
      }
      const std::vector<double>& values = values_[i];
      total += values.empty()
                   ? 1.0
                   : std::fabs(values[ca] - values[cb]) * inv_range_qi_[i];
    }
    return total;
  }

  /// True if attribute `col` is measured numerically (declared numeric
  /// and every dictionary value parses as a number).
  bool IsNumericColumn(size_t col) const { return numeric_[col]; }

  /// 1 / (max - min) over the attribute's numeric domain; 0 when the
  /// domain is degenerate or the column is not numeric.
  double InvRange(size_t col) const { return inv_range_[col]; }

 private:
  const Relation* relation_;
  std::vector<bool> numeric_;       // per attribute
  std::vector<double> inv_range_;   // per attribute; 0 if degenerate
  /// Per QI position: 1 / range, and the value table (code -> value) of
  /// a numeric QI, empty for one measured categorically.
  std::vector<double> inv_range_qi_;
  std::vector<std::vector<double>> values_;
};

/// Incremental suppression-cost tracker for greedy clustering (k-member).
/// Maintains, per QI attribute, the value shared by every member so far
/// (or "diverged", held as kSuppressed). Adding a tuple that disagrees on
/// d more attributes raises the cluster's ★ count from size*div to
/// (size+1)*(div+d).
///
/// The packed forms take a row's PackQiCodes codes; the RowId forms
/// gather the row's codes and call them.
class ClusterCostTracker {
 public:
  explicit ClusterCostTracker(const Relation& relation);

  /// Restarts the cluster with a single seed row.
  void Reset(RowId seed);
  void Reset(std::span<const ValueCode> seed);

  /// Live (not yet diverged) attributes on which `candidate` disagrees
  /// with the cluster: the d above. Branch-free over every QI position.
  size_t Mismatches(std::span<const ValueCode> candidate) const {
    size_t d = 0;
    for (size_t i = 0; i < common_.size(); ++i) {
      d += static_cast<size_t>((candidate[i] != common_[i]) &
                               (common_[i] != kSuppressed));
    }
    return d;
  }

  /// ★s added to the cluster's total if `candidate` joined now. Strictly
  /// increasing in Mismatches(candidate), so both have the same first
  /// minimum; the lower bound (div) is reached at 0 mismatches.
  size_t CostIncrease(RowId candidate) const;
  size_t CostIncrease(std::span<const ValueCode> candidate) const {
    return (size_ + 1) * (divergent_ + Mismatches(candidate)) -
           size_ * divergent_;
  }

  /// Adds `candidate` to the cluster.
  void Add(RowId candidate);
  void Add(std::span<const ValueCode> candidate);

  size_t size() const { return size_; }
  /// Current total ★ count of the cluster.
  size_t TotalCost() const { return size_ * divergent_; }

 private:
  const Relation* relation_;
  std::vector<ValueCode> common_;  // per QI index position
  size_t size_ = 0;
  size_t divergent_ = 0;
};

}  // namespace diva

#endif  // DIVA_ANON_DISTANCE_H_
