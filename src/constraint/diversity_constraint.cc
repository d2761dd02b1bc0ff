#include "constraint/diversity_constraint.h"

#include <unordered_set>

#include "common/parallel.h"
#include "common/string_util.h"
#include "constraint/targets.h"

namespace diva {

Result<DiversityConstraint> DiversityConstraint::Make(
    const Schema& schema, std::vector<std::string> attributes,
    std::vector<std::string> values, uint32_t lower, uint32_t upper) {
  if (attributes.empty()) {
    return Status::InvalidArgument(
        "diversity constraint needs at least one attribute");
  }
  if (attributes.size() != values.size()) {
    return Status::InvalidArgument(
        "constraint attribute/value arity mismatch: " +
        std::to_string(attributes.size()) + " vs " +
        std::to_string(values.size()));
  }
  if (lower > upper) {
    return Status::InvalidArgument(
        "constraint frequency range is empty: [" + std::to_string(lower) +
        "," + std::to_string(upper) + "]");
  }
  DiversityConstraint constraint;
  std::unordered_set<size_t> seen;
  for (const std::string& name : attributes) {
    auto index = schema.IndexOf(name);
    if (!index.has_value()) {
      return Status::NotFound("constraint references unknown attribute '" +
                              name + "'");
    }
    if (!seen.insert(*index).second) {
      return Status::InvalidArgument("constraint repeats attribute '" + name +
                                     "'");
    }
    constraint.attribute_indices_.push_back(*index);
  }
  constraint.attribute_names_ = std::move(attributes);
  constraint.values_ = std::move(values);
  constraint.lower_ = lower;
  constraint.upper_ = upper;
  return constraint;
}

bool DiversityConstraint::ResolveCodes(const Relation& relation,
                                       std::vector<ValueCode>* codes) const {
  codes->clear();
  codes->reserve(attribute_indices_.size());
  for (size_t i = 0; i < attribute_indices_.size(); ++i) {
    auto code = relation.FindCode(attribute_indices_[i], values_[i]);
    if (!code.has_value()) return false;
    codes->push_back(*code);
  }
  return true;
}

size_t DiversityConstraint::CountOccurrences(const Relation& relation) const {
  std::vector<ValueCode> codes;
  if (!ResolveCodes(relation, &codes)) return 0;
  // Exact integer sum of chunk partials: the parallel total equals the
  // sequential scan for every thread count.
  return ParallelReduce<size_t>(
      relation.NumRows(), /*grain=*/0, size_t{0},
      [&](size_t begin, size_t end) {
        size_t count = 0;
        for (size_t row = begin; row < end; ++row) {
          bool match = true;
          for (size_t i = 0; i < attribute_indices_.size(); ++i) {
            if (relation.At(static_cast<RowId>(row), attribute_indices_[i]) !=
                codes[i]) {
              match = false;
              break;
            }
          }
          if (match) ++count;
        }
        return count;
      },
      [](size_t a, size_t b) { return a + b; });
}

bool DiversityConstraint::IsSatisfiedBy(const Relation& relation) const {
  size_t count = CountOccurrences(relation);
  return count >= lower_ && count <= upper_;
}

std::vector<RowId> DiversityConstraint::TargetTuples(
    const Relation& relation) const {
  std::vector<ValueCode> codes;
  if (!ResolveCodes(relation, &codes)) return {};
  // Chunk-local hit lists concatenated in ascending chunk order rebuild
  // the exact row order of the sequential scan.
  return ParallelReduce<std::vector<RowId>>(
      relation.NumRows(), /*grain=*/0, {},
      [&](size_t begin, size_t end) {
        std::vector<RowId> local;
        for (size_t row = begin; row < end; ++row) {
          bool match = true;
          for (size_t i = 0; i < attribute_indices_.size(); ++i) {
            if (relation.At(static_cast<RowId>(row), attribute_indices_[i]) !=
                codes[i]) {
              match = false;
              break;
            }
          }
          if (match) local.push_back(static_cast<RowId>(row));
        }
        return local;
      },
      [](std::vector<RowId> acc, std::vector<RowId> chunk) {
        acc.insert(acc.end(), chunk.begin(), chunk.end());
        return acc;
      });
}

std::string DiversityConstraint::ToString() const {
  std::string out = Join(attribute_names_, ",");
  out += "[";
  out += Join(values_, ",");
  out += "] in [";
  out += std::to_string(lower_);
  out += ",";
  out += std::to_string(upper_);
  out += "]";
  return out;
}

bool DiversityConstraint::operator==(const DiversityConstraint& other) const {
  return attribute_indices_ == other.attribute_indices_ &&
         values_ == other.values_ && lower_ == other.lower_ &&
         upper_ == other.upper_;
}

bool SatisfiesAll(const Relation& relation,
                  const ConstraintSet& constraints) {
  return ViolatedConstraints(relation, constraints).empty();
}

std::vector<size_t> ViolatedConstraints(const Relation& relation,
                                        const ConstraintSet& constraints) {
  std::vector<size_t> counts = CountAllOccurrences(relation, constraints);
  std::vector<size_t> violated;
  for (size_t i = 0; i < constraints.size(); ++i) {
    if (counts[i] < constraints[i].lower() || counts[i] > constraints[i].upper())
      violated.push_back(i);
  }
  return violated;
}

}  // namespace diva
