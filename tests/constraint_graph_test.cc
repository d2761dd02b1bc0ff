// Differential test for the one-pass target/overlap primitive
// (constraint/targets.h) and everything built on it: CountAllOccurrences,
// BuildConstraintGraph, ConflictRate, AnalyzeConstraintSet, ApplyDelta's
// maintained graph, and the auditor's one-pass bound counts. Each is
// checked against a naive reference written here — one TargetTuples scan
// per constraint plus one SortedIntersectionSize per pair — on seeded
// random relations with single- and multi-attribute constraints, shared
// first attributes, duplicate targets, target values absent from the
// dictionary, and suppressed cells, at pool widths 1, 2 and 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "constraint/analysis.h"
#include "constraint/conflict.h"
#include "constraint/targets.h"
#include "core/constraint_graph.h"
#include "core/diva.h"
#include "core/incremental.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "tests/test_util.h"
#include "verify/auditor.h"

namespace diva {
namespace {

constexpr size_t kSeeds = 200;
constexpr size_t kWidths[] = {1, 2, 8};
constexpr size_t kAttributes = 4;

std::shared_ptr<const Schema> RandomSchema() {
  auto schema = Schema::Make({
      {"A0", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"A1", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"A2", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK(schema.ok());
  return schema.value();
}

struct Instance {
  Relation relation;
  ConstraintSet constraints;
};

/// A random relation (0-400 rows, small skewed domains, ~10% "*" cells)
/// and 0-14 constraints of 1-3 attributes. Some constraints repeat an
/// earlier target, some target a value that never occurs.
Instance RandomInstance(uint64_t seed) {
  Rng rng(seed);
  auto schema = RandomSchema();
  const size_t rows = static_cast<size_t>(rng.NextBounded(401));
  std::vector<size_t> domain(kAttributes);
  for (size_t& d : domain) d = 1 + static_cast<size_t>(rng.NextBounded(5));
  std::vector<std::vector<std::string>> data;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t a = 0; a < kAttributes; ++a) {
      if (rng.NextBounded(10) == 0) {
        row.push_back("*");
      } else {
        // min of two draws skews toward small values, so targets overlap.
        size_t v = std::min(rng.NextBounded(domain[a]),
                            rng.NextBounded(domain[a]));
        row.push_back("v" + std::to_string(v));
      }
    }
    data.push_back(std::move(row));
  }
  auto relation = RelationFromRows(schema, data);
  DIVA_CHECK(relation.ok());

  ConstraintSet constraints;
  const size_t count = static_cast<size_t>(rng.NextBounded(15));
  for (size_t c = 0; c < count; ++c) {
    if (!constraints.empty() && rng.NextBounded(8) == 0) {
      const DiversityConstraint& twin =
          constraints[rng.NextBounded(constraints.size())];
      auto dup = DiversityConstraint::Make(
          *schema, twin.attribute_names(), twin.values(),
          static_cast<uint32_t>(rng.NextBounded(5)),
          static_cast<uint32_t>(5 + rng.NextBounded(200)));
      DIVA_CHECK(dup.ok());
      constraints.push_back(std::move(dup).value());
      continue;
    }
    std::vector<size_t> order(kAttributes);
    for (size_t a = 0; a < kAttributes; ++a) order[a] = a;
    for (size_t a = kAttributes - 1; a > 0; --a) {
      std::swap(order[a], order[rng.NextBounded(a + 1)]);
    }
    const size_t arity = 1 + static_cast<size_t>(rng.NextBounded(3));
    std::vector<std::string> names;
    std::vector<std::string> values;
    for (size_t i = 0; i < arity; ++i) {
      names.push_back(schema->attribute(order[i]).name);
      values.push_back(rng.NextBounded(12) == 0
                           ? std::string("absent")
                           : "v" + std::to_string(
                                       rng.NextBounded(domain[order[i]])));
    }
    const uint32_t lower = static_cast<uint32_t>(rng.NextBounded(40));
    const uint32_t upper = lower + static_cast<uint32_t>(rng.NextBounded(80));
    auto constraint =
        DiversityConstraint::Make(*schema, names, values, lower, upper);
    DIVA_CHECK(constraint.ok());
    constraints.push_back(std::move(constraint).value());
  }
  return {std::move(relation).value(), std::move(constraints)};
}

std::vector<std::vector<RowId>> NaiveTargets(const Relation& relation,
                                             const ConstraintSet& constraints) {
  std::vector<std::vector<RowId>> targets;
  for (const DiversityConstraint& c : constraints) {
    targets.push_back(c.TargetTuples(relation));
  }
  return targets;
}

std::vector<std::vector<size_t>> NaiveAdjacency(
    const std::vector<std::vector<RowId>>& targets) {
  std::vector<std::vector<size_t>> adjacency(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      if (i != j && SortedIntersectionSize(targets[i], targets[j]) > 0) {
        adjacency[i].push_back(j);
      }
    }
  }
  return adjacency;
}

/// Σ_r m_r·(m_r − 1)/2 over the rows' constraint multiplicities.
uint64_t NaiveVisits(const std::vector<std::vector<RowId>>& targets,
                     size_t num_rows) {
  std::vector<uint64_t> m(num_rows, 0);
  for (const auto& list : targets) {
    for (RowId row : list) ++m[row];
  }
  uint64_t visits = 0;
  for (uint64_t v : m) visits += v * (v == 0 ? 0 : v - 1) / 2;
  return visits;
}

double NaiveConflictRate(const std::vector<std::vector<RowId>>& targets) {
  if (targets.size() < 2) return 0.0;
  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    for (size_t j = i + 1; j < targets.size(); ++j) {
      ++pairs;
      if (targets[i].empty() || targets[j].empty()) continue;
      total += static_cast<double>(
                   SortedIntersectionSize(targets[i], targets[j])) /
               static_cast<double>(
                   std::min(targets[i].size(), targets[j].size()));
    }
  }
  return total / static_cast<double>(pairs);
}

/// Same (attribute, value) set, in any attribute order.
bool SameConstraintTarget(const DiversityConstraint& a,
                          const DiversityConstraint& b) {
  auto pairs = [](const DiversityConstraint& c) {
    std::vector<std::pair<size_t, std::string>> out;
    for (size_t i = 0; i < c.attribute_indices().size(); ++i) {
      out.emplace_back(c.attribute_indices()[i], c.values()[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  return pairs(a) == pairs(b);
}

/// The nesting part of AnalyzeConstraintSet, from pairwise intersections:
/// (child, parent) for every nested pair whose child demands more than
/// the parent's upper bound, in the analyzer's pair order.
std::vector<std::pair<size_t, size_t>> NaiveNestedConflicts(
    const ConstraintSet& constraints,
    const std::vector<std::vector<RowId>>& targets) {
  std::vector<std::pair<size_t, size_t>> nested;
  for (size_t i = 0; i < constraints.size(); ++i) {
    for (size_t j = i + 1; j < constraints.size(); ++j) {
      const DiversityConstraint& c = constraints[i];
      const DiversityConstraint& d = constraints[j];
      if (SameConstraintTarget(c, d)) continue;
      size_t overlap = SortedIntersectionSize(targets[i], targets[j]);
      if (overlap == 0) continue;
      if (overlap == targets[i].size() && c.lower() > d.upper()) {
        nested.emplace_back(i, j);
      } else if (overlap == targets[j].size() && d.lower() > c.upper()) {
        nested.emplace_back(j, i);
      }
    }
  }
  return nested;
}

class WidthTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { SetParallelThreads(GetParam()); }
  void TearDown() override { SetParallelThreads(1); }
};

TEST_P(WidthTest, TargetsAndOverlapsMatchPairwiseReference) {
  size_t nonempty_pairs = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Instance inst = RandomInstance(seed);
    const auto naive = NaiveTargets(inst.relation, inst.constraints);

    const TargetSets sets = FindTargets(inst.relation, inst.constraints);
    const std::vector<size_t> counts =
        CountAllOccurrences(inst.relation, inst.constraints);
    ASSERT_EQ(sets.size(), inst.constraints.size());
    ASSERT_EQ(counts.size(), inst.constraints.size());
    for (size_t c = 0; c < sets.size(); ++c) {
      EXPECT_EQ(std::vector<RowId>(sets[c].begin(), sets[c].end()), naive[c]);
      EXPECT_EQ(counts[c], naive[c].size());
    }
    // A pass from a later first row finds exactly the tail of each list.
    const size_t first = inst.relation.NumRows() / 3;
    const TargetSets tail = FindTargets(inst.relation, inst.constraints, first);
    for (size_t c = 0; c < tail.size(); ++c) {
      std::vector<RowId> expected;
      for (RowId row : naive[c]) {
        if (row >= first) expected.push_back(row);
      }
      EXPECT_EQ(std::vector<RowId>(tail[c].begin(), tail[c].end()), expected);
    }

    const TargetOverlaps overlaps =
        ComputeOverlaps(sets.Lists(), inst.relation.NumRows());
    std::vector<TargetOverlap> expected_pairs;
    for (size_t i = 0; i < naive.size(); ++i) {
      for (size_t j = i + 1; j < naive.size(); ++j) {
        size_t overlap = SortedIntersectionSize(naive[i], naive[j]);
        if (overlap > 0) expected_pairs.push_back({i, j, overlap});
      }
    }
    ASSERT_EQ(overlaps.pairs.size(), expected_pairs.size());
    for (size_t p = 0; p < expected_pairs.size(); ++p) {
      EXPECT_EQ(overlaps.pairs[p].i, expected_pairs[p].i);
      EXPECT_EQ(overlaps.pairs[p].j, expected_pairs[p].j);
      EXPECT_EQ(overlaps.pairs[p].overlap, expected_pairs[p].overlap);
    }
    EXPECT_EQ(overlaps.incidence_visits,
              NaiveVisits(naive, inst.relation.NumRows()));
    nonempty_pairs += expected_pairs.size();
  }
  // The generator must actually produce intersecting target sets.
  EXPECT_GT(nonempty_pairs, kSeeds);
}

TEST_P(WidthTest, ConstraintGraphMatchesPairwiseReference) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Instance inst = RandomInstance(seed);
    const auto naive = NaiveTargets(inst.relation, inst.constraints);
    const ConstraintGraph graph =
        BuildConstraintGraph(inst.relation, inst.constraints);
    EXPECT_EQ(graph.targets, naive);
    EXPECT_EQ(graph.adjacency, NaiveAdjacency(naive));
    EXPECT_EQ(graph.row_tags, MakeRowTags(inst.relation.NumRows()));
    EXPECT_EQ(graph.incidence_visits,
              NaiveVisits(naive, inst.relation.NumRows()));
  }
}

TEST_P(WidthTest, ConflictRateAndAnalysisMatchPairwiseReference) {
  size_t nested_seen = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Instance inst = RandomInstance(seed);
    const auto naive = NaiveTargets(inst.relation, inst.constraints);

    const double rate = ConflictRate(inst.relation, inst.constraints);
    const double expected_rate = NaiveConflictRate(naive);
    // Bit-identical, not merely close: same terms, same summation order.
    EXPECT_EQ(std::memcmp(&rate, &expected_rate, sizeof(rate)), 0)
        << rate << " vs " << expected_rate;

    const size_t k = 1 + seed % 5;
    const std::vector<ConstraintIssue> issues =
        AnalyzeConstraintSet(inst.relation, inst.constraints, k);
    std::vector<std::pair<size_t, size_t>> nested;
    size_t support = 0;
    size_t unclusterable = 0;
    size_t same_target = 0;
    for (const ConstraintIssue& issue : issues) {
      switch (issue.kind) {
        case ConstraintIssueKind::kNestedConflict:
          nested.emplace_back(issue.constraint, issue.other);
          break;
        case ConstraintIssueKind::kInsufficientSupport:
          ++support;
          EXPECT_LT(naive[issue.constraint].size(),
                    inst.constraints[issue.constraint].lower());
          break;
        case ConstraintIssueKind::kUnclusterableRange:
          ++unclusterable;
          break;
        case ConstraintIssueKind::kDuplicateTarget:
        case ConstraintIssueKind::kContradictoryBounds:
          ++same_target;
          break;
      }
    }
    EXPECT_EQ(nested, NaiveNestedConflicts(inst.constraints, naive));
    size_t expected_support = 0;
    size_t expected_unclusterable = 0;
    for (size_t i = 0; i < inst.constraints.size(); ++i) {
      const DiversityConstraint& c = inst.constraints[i];
      if (c.lower() > 0 && naive[i].size() < c.lower()) ++expected_support;
      if (c.lower() > 0 && std::max<size_t>(k, c.lower()) > c.upper()) {
        ++expected_unclusterable;
      }
    }
    size_t expected_same = 0;
    for (size_t i = 0; i < inst.constraints.size(); ++i) {
      for (size_t j = i + 1; j < inst.constraints.size(); ++j) {
        if (SameConstraintTarget(inst.constraints[i], inst.constraints[j])) {
          ++expected_same;
        }
      }
    }
    EXPECT_EQ(support, expected_support);
    EXPECT_EQ(unclusterable, expected_unclusterable);
    EXPECT_EQ(same_target, expected_same);
    nested_seen += nested.size();
  }
  EXPECT_GT(nested_seen, 0u);
}

TEST_P(WidthTest, AuditCountsMatchPerConstraintScanInConstraintOrder) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Instance inst = RandomInstance(seed);
    AuditOptions options;
    options.max_details_per_check = 1000;
    // Waive every third constraint: still counted, never flagged.
    for (size_t c = 0; c < inst.constraints.size(); c += 3) {
      options.waived_constraints.push_back(c);
    }
    auto report = AuditAnonymization(inst.relation, inst.relation, 1,
                                     inst.constraints, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    std::vector<std::string> expected_details;
    ASSERT_EQ(report->stats.constraint_counts.size(), inst.constraints.size());
    for (size_t c = 0; c < inst.constraints.size(); ++c) {
      const DiversityConstraint& constraint = inst.constraints[c];
      const size_t count = constraint.CountOccurrences(inst.relation);
      EXPECT_EQ(report->stats.constraint_counts[c], count)
          << "constraint " << c;
      if ((count < constraint.lower() || count > constraint.upper()) &&
          c % 3 != 0) {
        expected_details.push_back("constraint #" + std::to_string(c) + " " +
                                   constraint.ToString() + " has " +
                                   std::to_string(count) + " occurrences");
      }
    }
    std::vector<std::string> details;
    for (const AuditViolation& violation : report->violations) {
      if (violation.check == AuditCheck::kConstraintBounds) {
        details.push_back(violation.detail);
      }
    }
    EXPECT_EQ(details, expected_details);
  }
}

/// A relation whose REGION attribute splits rows into disjoint groups,
/// with constraints inside each region: the conflict graph has several
/// components, so an incremental run captures a reusable snapshot.
struct RegionalInstance {
  Relation relation;
  ConstraintSet constraints;
  DeltaBatch delta;
};

std::vector<std::string> RegionalRow(Rng& rng, size_t region) {
  auto cell = [&](const std::string& prefix, size_t domain) {
    if (rng.NextBounded(12) == 0) return std::string("*");
    return prefix + std::to_string(region) + "_" +
           std::to_string(std::min(rng.NextBounded(domain),
                                   rng.NextBounded(domain)));
  };
  return {"r" + std::to_string(region), cell("g", 3), cell("j", 4),
          "s" + std::to_string(rng.NextBounded(3))};
}

RegionalInstance RandomRegionalInstance(uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Make({
      {"REGION", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"GROUP", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"JOB", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK(schema.ok());
  const size_t regions = 2 + static_cast<size_t>(rng.NextBounded(4));
  const size_t rows = 60 + static_cast<size_t>(rng.NextBounded(140));
  std::vector<std::vector<std::string>> data;
  // The first two rows of every region are never deleted, so each
  // region stays a populated component after the delta.
  const size_t kept = 2 * regions;
  for (size_t r = 0; r < rows; ++r) {
    data.push_back(
        RegionalRow(rng, r < kept ? r % regions : rng.NextBounded(regions)));
  }
  auto relation = RelationFromRows(*schema, data);
  DIVA_CHECK(relation.ok());

  std::string text;
  for (size_t region = 0; region < regions; ++region) {
    const std::string id = std::to_string(region);
    text += "REGION[r" + id + "] in [0,1000]\n";
    text += "GROUP[g" + id + "_0] in [0,1000]\n";
    if (rng.NextBounded(2) == 0) {
      text += "GROUP,JOB[g" + id + "_1,j" + id + "_0] in [0,1000]\n";
    }
    if (rng.NextBounded(3) == 0) {
      text += "JOB[j" + id + "_" + std::to_string(rng.NextBounded(4)) +
              "] in [0,1000]\n";
    }
  }
  // A value no row carries yet; inserted rows may intern it.
  text += "JOB[j0_9] in [0,1000]\n";
  auto constraints = ParseConstraintSet(**schema, text);
  DIVA_CHECK(constraints.ok());

  DeltaBatch delta;
  const size_t deletes = static_cast<size_t>(rng.NextBounded(rows / 4));
  for (size_t d = 0; d < deletes; ++d) {
    delta.deleted.push_back(
        static_cast<RowId>(kept + rng.NextBounded(rows - kept)));
  }
  const size_t inserts = static_cast<size_t>(rng.NextBounded(30));
  for (size_t i = 0; i < inserts; ++i) {
    const size_t region = rng.NextBounded(regions);
    std::vector<std::string> row = RegionalRow(rng, region);
    if (region == 0 && rng.NextBounded(4) == 0) row[2] = "j0_9";
    delta.inserted.push_back(std::move(row));
  }
  return {std::move(relation).value(), std::move(constraints).value(),
          std::move(delta)};
}

TEST(ConstraintGraphTest, ApplyDeltaGraphEqualsColdBuildOfPostDeltaRelation) {
  size_t checked = 0;
  constexpr size_t kDeltaSeeds = 60;
  for (size_t width : {size_t{1}, size_t{8}}) {
    for (uint64_t seed = 0; seed < kDeltaSeeds; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " width " +
                   std::to_string(width));
      RegionalInstance inst = RandomRegionalInstance(1000 + seed);
      DivaOptions options;
      options.k = 2;
      options.threads = width;
      options.incremental = true;
      options.baseline = BaselineAlgorithm::kMondrian;
      auto prior = RunDiva(inst.relation, inst.constraints, options);
      ASSERT_TRUE(prior.ok()) << prior.status().ToString();
      if (prior->snapshot == nullptr) continue;
      auto next = ApplyDelta(*prior->snapshot, inst.delta, options);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ASSERT_NE(next->snapshot, nullptr);
      const PipelineSnapshot& snapshot = *next->snapshot;
      const ConstraintGraph cold =
          BuildConstraintGraph(*snapshot.input, inst.constraints);
      EXPECT_EQ(snapshot.graph.targets, cold.targets);
      EXPECT_EQ(snapshot.graph.adjacency, cold.adjacency);
      EXPECT_EQ(snapshot.graph.row_tags, cold.row_tags);
      EXPECT_EQ(snapshot.graph.incidence_visits, cold.incidence_visits);
      ++checked;
    }
  }
  // Every regional instance has >= 2 components, so none may skip.
  EXPECT_EQ(checked, 2 * kDeltaSeeds);
}

TEST(ConstraintGraphTest, TargetMatcherAgreesWithTargetTuples) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Instance inst = RandomInstance(seed);
    for (const DiversityConstraint& c : inst.constraints) {
      const TargetMatcher matcher(c, inst.relation);
      std::vector<RowId> hits;
      for (RowId row = 0; row < inst.relation.NumRows(); ++row) {
        if (matcher.Matches(inst.relation, row)) hits.push_back(row);
      }
      EXPECT_EQ(hits, c.TargetTuples(inst.relation)) << c.ToString();
    }
  }
}

std::string WidthName(const ::testing::TestParamInfo<size_t>& info) {
  return "threads" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthTest, ::testing::ValuesIn(kWidths),
                         WidthName);

}  // namespace
}  // namespace diva
