#include "anon/distance.h"

#include <algorithm>

#include "common/logging.h"

namespace diva {

std::vector<ValueCode> PackQiCodes(const Relation& relation,
                                   std::span<const RowId> rows) {
  const std::vector<size_t>& qi = relation.schema().qi_indices();
  std::vector<ValueCode> codes;
  codes.reserve(rows.size() * qi.size());
  for (RowId row : rows) {
    for (size_t col : qi) codes.push_back(relation.At(row, col));
  }
  return codes;
}

DistanceMetric::DistanceMetric(const Relation& relation)
    : relation_(&relation),
      numeric_(relation.NumAttributes(), false),
      inv_range_(relation.NumAttributes(), 0.0) {
  const std::vector<size_t>& qi = relation.schema().qi_indices();
  values_.resize(qi.size());
  for (size_t i = 0; i < qi.size(); ++i) {
    const size_t col = qi[i];
    const Attribute& attr = relation.schema().attribute(col);
    if (attr.kind != AttributeKind::kNumeric) continue;
    const Dictionary& dict = relation.dictionary(col);
    if (!dict.AllNumeric()) continue;
    std::vector<double>& values = values_[i];
    values.reserve(dict.size());
    for (size_t code = 0; code < dict.size(); ++code) {
      values.push_back(*dict.NumericValueOf(static_cast<ValueCode>(code)));
    }
    double lo = values[0];
    double hi = values[0];
    for (double v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    numeric_[col] = true;
    inv_range_[col] = (hi > lo) ? 1.0 / (hi - lo) : 0.0;
  }
  for (size_t col : qi) inv_range_qi_.push_back(inv_range_[col]);
}

double DistanceMetric::Distance(RowId a, RowId b) const {
  const RowId rows[] = {a, b};
  const std::vector<ValueCode> codes = PackQiCodes(*relation_, rows);
  const std::span<const ValueCode> packed(codes);
  const size_t width = inv_range_qi_.size();
  return Distance(packed.first(width), packed.subspan(width));
}

ClusterCostTracker::ClusterCostTracker(const Relation& relation)
    : relation_(&relation),
      common_(relation.schema().qi_indices().size(), kSuppressed) {}

void ClusterCostTracker::Reset(RowId seed) {
  Reset(PackQiCodes(*relation_, {&seed, 1}));
}

void ClusterCostTracker::Reset(std::span<const ValueCode> seed) {
  std::copy(seed.begin(), seed.begin() + common_.size(), common_.begin());
  size_ = 1;
  // A seed with suppressed cells starts with those attributes diverged.
  divergent_ = static_cast<size_t>(
      std::count(common_.begin(), common_.end(), kSuppressed));
}

size_t ClusterCostTracker::CostIncrease(RowId candidate) const {
  DIVA_DCHECK(size_ > 0);
  return CostIncrease(PackQiCodes(*relation_, {&candidate, 1}));
}

void ClusterCostTracker::Add(RowId candidate) {
  Add(PackQiCodes(*relation_, {&candidate, 1}));
}

void ClusterCostTracker::Add(std::span<const ValueCode> candidate) {
  DIVA_DCHECK(size_ > 0);
  for (size_t i = 0; i < common_.size(); ++i) {
    if (common_[i] != kSuppressed && candidate[i] != common_[i]) {
      common_[i] = kSuppressed;
      ++divergent_;
    }
  }
  ++size_;
}

}  // namespace diva
