// The parallel layer's headline guarantee, asserted end to end: the
// published relation (and everything measured about it) is byte-identical
// no matter how many threads execute the pipeline. See common/parallel.h
// for why this holds by construction — chunk boundaries and gather order
// never depend on the thread count.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/parallel.h"
#include "constraint/generator.h"
#include "core/diva.h"
#include "datagen/profiles.h"
#include "metrics/metrics.h"
#include "relation/csv.h"
#include "tests/test_util.h"
#include "verify/auditor.h"

namespace diva {
namespace {

/// One full DIVA run serialized to CSV, plus the report fields that a
/// thread-count-dependent execution would perturb first.
struct RunFingerprint {
  std::string csv;
  bool complete = false;
  uint64_t coloring_steps = 0;
  uint64_t backtracks = 0;
  size_t sigma_rows = 0;
  size_t repair_cells = 0;
  size_t stars = 0;
  uint64_t discernibility = 0;
  std::vector<size_t> unsatisfied;
  /// Deterministic-scope counters that moved during the run, as
  /// "name=value/sum" strings. Execution-scope counters (pool chunk
  /// accounting, deadline polls) legitimately vary with the pool width
  /// and are excluded; so are zero deltas, whose presence depends only
  /// on registration order elsewhere in the process.
  std::vector<std::string> counters;

  bool operator==(const RunFingerprint&) const = default;
};

std::vector<std::string> DeterministicCounters(
    const std::vector<counters::Sample>& delta) {
  std::vector<std::string> moved;
  for (const counters::Sample& sample :
       counters::FilterScope(delta, counters::Scope::kDeterministic)) {
    if (sample.value == 0 && sample.sum == 0) continue;
    moved.push_back(sample.name + "=" + std::to_string(sample.value) + "/" +
                    std::to_string(sample.sum));
  }
  return moved;
}

RunFingerprint FingerprintRun(const Relation& relation,
                              const ConstraintSet& constraints, size_t k,
                              size_t threads) {
  DivaOptions options;
  options.k = k;
  options.threads = threads;
  options.audit = true;
  auto result = RunDiva(relation, constraints, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunFingerprint print;
  if (!result.ok()) return print;
  std::ostringstream csv;
  EXPECT_TRUE(WriteCsv(result->relation, csv).ok());
  print.csv = csv.str();
  print.complete = result->report.clustering_complete;
  print.coloring_steps = result->report.coloring_steps;
  print.backtracks = result->report.backtracks;
  print.sigma_rows = result->report.sigma_rows;
  print.repair_cells = result->report.repair_cells;
  print.stars = CountStars(result->relation);
  print.discernibility = Discernibility(result->relation, k);
  print.unsatisfied = result->report.unsatisfied;
  print.counters = DeterministicCounters(result->report.counters);
  return print;
}

TEST(DeterminismTest, PaperExampleIsByteIdenticalAcrossThreadCounts) {
  Relation relation = testing::MedicalRelation();
  ConstraintSet constraints =
      testing::MedicalConstraints(*testing::MedicalSchema());
  RunFingerprint baseline = FingerprintRun(relation, constraints, 2, 1);
  EXPECT_FALSE(baseline.csv.empty());
  for (size_t threads : {2u, 8u}) {
    RunFingerprint parallel = FingerprintRun(relation, constraints, 2, threads);
    EXPECT_EQ(parallel, baseline) << "threads = " << threads;
  }
  SetParallelThreads(1);
}

TEST(DeterminismTest, ProfileWorkloadIsByteIdenticalAcrossThreadCounts) {
  // Large enough that every parallel hot loop (enumeration, suppression,
  // baseline clustering, metrics, audit) actually chunks.
  ProfileOptions profile_options;
  profile_options.num_rows = 1200;
  profile_options.seed = 20210329;  // the paper's EDBT date, arbitrary
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(relation.ok());
  ConstraintGenOptions generator_options;
  generator_options.count = 12;
  generator_options.seed = 7;
  auto constraints = GenerateConstraints(*relation, generator_options);
  ASSERT_TRUE(constraints.ok());

  // Width 1 runs the conflict-graph components inline on the caller;
  // widths 2 and 8 run them as concurrent work items (core/shard.h). The
  // fingerprint must not tell the two apart.
  RunFingerprint baseline = FingerprintRun(*relation, *constraints, 4, 1);
  EXPECT_FALSE(baseline.csv.empty());
  for (size_t threads : {2u, 8u}) {
    RunFingerprint parallel =
        FingerprintRun(*relation, *constraints, 4, threads);
    EXPECT_EQ(parallel, baseline) << "threads = " << threads;
  }
  SetParallelThreads(1);
}

TEST(DeterminismTest, AuditReportIsIdenticalAcrossThreadCounts) {
  // The auditor's capped violation details (and their omission markers)
  // replay in chunk order; the rendered report must not depend on the
  // pool width even when violations exceed the per-check cap.
  ProfileOptions profile_options;
  profile_options.num_rows = 600;
  profile_options.seed = 99;
  auto original = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(original.ok());

  // Publish a deliberately broken relation: k = 600 makes every QI group
  // undersized, so the group-size check floods past its detail cap.
  Relation published = *original;
  std::string baseline;
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    auto audit =
        AuditAnonymization(*original, published, /*k=*/600, {}, {});
    ASSERT_TRUE(audit.ok());
    EXPECT_FALSE(audit->ok());
    if (threads == 1u) {
      baseline = audit->ToString();
    } else {
      EXPECT_EQ(audit->ToString(), baseline) << "threads = " << threads;
    }
  }
  SetParallelThreads(1);
}

TEST(DeterminismTest, MetricsAreIdenticalAcrossThreadCounts) {
  ProfileOptions profile_options;
  profile_options.num_rows = 800;
  profile_options.seed = 5;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(relation.ok());
  ConstraintGenOptions generator_options;
  generator_options.count = 8;
  generator_options.seed = 3;
  auto constraints = GenerateConstraints(*relation, generator_options);
  ASSERT_TRUE(constraints.ok());

  SetParallelThreads(1);
  size_t stars = CountStars(*relation);
  uint64_t disc = Discernibility(*relation, 5);
  double satisfied = SatisfiedFraction(*relation, *constraints);
  for (size_t threads : {2u, 8u}) {
    SetParallelThreads(threads);
    EXPECT_EQ(CountStars(*relation), stars);
    EXPECT_EQ(Discernibility(*relation, 5), disc);
    EXPECT_EQ(SatisfiedFraction(*relation, *constraints), satisfied);
  }
  SetParallelThreads(1);
}

}  // namespace
}  // namespace diva
