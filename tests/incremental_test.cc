// Incremental re-anonymization (core/incremental.h): churn fuzz and edge
// cases asserting the headline contract — ApplyDelta's output, report,
// deterministic counters, and audit are byte-identical to a cold RunDiva
// on the post-delta relation, at every thread width — plus reuse
// accounting (clean components adopt, dirty ones re-color) and the delta
// file parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "constraint/parser.h"
#include "core/diva.h"
#include "core/incremental.h"
#include "relation/csv.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "tests/test_util.h"

namespace diva {
namespace {

std::shared_ptr<const Schema> ChurnSchema() {
  auto schema = Schema::Make({
      {"REGION", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"GROUP", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"AGE", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"JOB", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"DIAG", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK(schema.ok());
  return schema.value();
}

std::vector<std::string> MakeChurnRow(Rng& rng, size_t regions) {
  return {NumberedLabel("r", rng.NextBounded(regions)),
          NumberedLabel("g", rng.NextBounded(2 * regions)),
          std::to_string(18 + rng.NextBounded(60)),
          NumberedLabel("j", rng.NextBounded(8)),
          NumberedLabel("d", rng.NextBounded(5))};
}

/// One per-region constraint per region: disjoint target sets, so the
/// conflict graph decomposes into one component per populated region.
ConstraintSet RegionConstraints(const Schema& schema, size_t regions) {
  std::string text;
  for (size_t r = 0; r < regions; ++r) {
    text += "REGION[r" + std::to_string(r) + "] in [2,400]\n";
  }
  auto constraints = ParseConstraintSet(schema, text);
  DIVA_CHECK(constraints.ok());
  return std::move(constraints).value();
}

/// Everything a divergent execution would perturb first (the determinism
/// suite's fingerprint, plus the shard/report flags the incremental path
/// could plausibly skew).
struct RunFingerprint {
  std::string csv;
  bool complete = false;
  bool audited = false;
  size_t shards = 0;
  size_t residual_rows = 0;
  uint64_t coloring_steps = 0;
  uint64_t backtracks = 0;
  size_t sigma_rows = 0;
  size_t repair_cells = 0;
  std::vector<size_t> unsatisfied;
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

RunFingerprint Fingerprint(const DivaResult& result) {
  RunFingerprint print;
  std::ostringstream csv;
  EXPECT_TRUE(WriteCsv(result.relation, csv).ok());
  print.csv = csv.str();
  print.complete = result.report.clustering_complete;
  print.audited = result.report.audited;
  print.shards = result.report.shards;
  print.residual_rows = result.report.residual_rows;
  print.coloring_steps = result.report.coloring_steps;
  print.backtracks = result.report.backtracks;
  print.sigma_rows = result.report.sigma_rows;
  print.repair_cells = result.report.repair_cells;
  print.unsatisfied = result.report.unsatisfied;
  print.counters = DeterministicCounters(result.report.counters);
  return print;
}

DivaOptions ChurnOptions(size_t k, size_t threads) {
  DivaOptions options;
  options.k = k;
  options.threads = threads;
  options.audit = true;
  options.incremental = true;
  return options;
}

/// Value of the execution-scope counter `name` moved by `fn` (the
/// incremental.* counters fire outside the pipeline's own report delta,
/// so they are only visible through a process-level snapshot).
template <typename Fn>
uint64_t ExecCounterMoved(const std::string& name, Fn&& fn) {
  std::vector<counters::Sample> before = counters::Snapshot();
  fn();
  std::vector<counters::Sample> after = counters::Snapshot();
  for (const counters::Sample& sample : counters::Delta(before, after)) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

/// The fuzz core: a seeded multi-component workload, a seeded batch of
/// deletes + inserts, then cold-vs-incremental equality at 1/2/8 threads.
void RunChurnSeed(uint64_t seed) {
  Rng rng(seed);
  const size_t regions = 3 + rng.NextBounded(4);
  const size_t num_rows = 120 + rng.NextBounded(120);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  rows.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    rows.push_back(MakeChurnRow(rng, regions));
  }
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ConstraintSet constraints = RegionConstraints(*schema, regions);
  const size_t k = 2 + rng.NextBounded(3);

  auto prior = RunDiva(*base, constraints, ChurnOptions(k, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr)
      << "a clean multi-component incremental run must capture a snapshot";

  DeltaBatch delta;
  for (RowId row = 0; row < static_cast<RowId>(num_rows); ++row) {
    if (rng.NextBounded(8) == 0) delta.deleted.push_back(row);
  }
  const size_t num_inserts = rng.NextBounded(30);
  for (size_t i = 0; i < num_inserts; ++i) {
    std::vector<std::string> row = MakeChurnRow(rng, regions);
    if (rng.NextBounded(4) == 0) {
      // A never-seen value: grows a dictionary, which must dirty every
      // component (Mondrian scans the global domain) — still identical
      // output, just the cold-cost path.
      row[3] = NumberedLabel("jx", seed) + "_" + std::to_string(i);
    }
    delta.inserted.push_back(std::move(row));
  }

  auto post = ApplyDeltaToRelation(*prior->snapshot->input, delta);
  ASSERT_TRUE(post.ok()) << post.status().ToString();

  RunFingerprint cold_baseline;
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    auto cold = RunDiva(*post, constraints, ChurnOptions(k, threads));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto incremental =
        ApplyDelta(*prior->snapshot, delta, ChurnOptions(k, threads));
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    if (threads == 1u) cold_baseline = Fingerprint(*cold);
    EXPECT_EQ(Fingerprint(*cold), cold_baseline);
    EXPECT_EQ(Fingerprint(*incremental), cold_baseline);
  }
  SetParallelThreads(1);
}

TEST(IncrementalTest, ChurnFuzzMatchesColdRunAtEveryThreadWidth) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    RunChurnSeed(seed);
  }
}

TEST(IncrementalTest, EmptyDeltaReusesEveryComponent) {
  Rng rng(77);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 160; ++i) rows.push_back(MakeChurnRow(rng, 4));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 4);

  auto prior = RunDiva(*base, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr);

  Result<DivaResult> replay = Status::Internal("unset");
  uint64_t reused = ExecCounterMoved("incremental.shards_reused", [&] {
    replay = ApplyDelta(*prior->snapshot, DeltaBatch{}, ChurnOptions(2, 1));
  });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(Fingerprint(*replay), Fingerprint(*prior))
      << "an empty delta must reproduce the prior run exactly";
  EXPECT_EQ(reused, replay->report.shards)
      << "an empty delta must adopt every component";
  SetParallelThreads(1);
}

TEST(IncrementalTest, DeleteWholeComponentMatchesColdRun) {
  Rng rng(78);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 180; ++i) rows.push_back(MakeChurnRow(rng, 4));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 4);

  auto prior = RunDiva(*base, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr);

  // Delete every r0 row: REGION[r0]'s target set empties and its whole
  // component disappears from the plan.
  DeltaBatch delta;
  for (RowId row = 0; row < static_cast<RowId>(rows.size()); ++row) {
    if (rows[row][0] == "r0") delta.deleted.push_back(row);
  }
  ASSERT_FALSE(delta.deleted.empty());

  auto post = ApplyDeltaToRelation(*prior->snapshot->input, delta);
  ASSERT_TRUE(post.ok());
  for (size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    auto cold = RunDiva(*post, constraints, ChurnOptions(2, threads));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto incremental =
        ApplyDelta(*prior->snapshot, delta, ChurnOptions(2, threads));
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_EQ(Fingerprint(*incremental), Fingerprint(*cold));
  }
  SetParallelThreads(1);
}

TEST(IncrementalTest, InsertBridgingTwoComponentsMatchesColdRun) {
  // r0 rows carry job j1 only and r1 rows job j0 only, so JOB[j0] shares
  // its component with REGION[r1] while REGION[r0] sits alone. Inserting
  // an (r0, j0) row fuses the two components into one.
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  Rng rng(79);
  for (size_t i = 0; i < 60; ++i) {
    bool left = i % 2 == 0;
    rows.push_back({left ? "r0" : "r1", NumberedLabel("g", i % 6),
                    std::to_string(20 + rng.NextBounded(50)),
                    left ? "j1" : "j0", NumberedLabel("d", i % 4)});
  }
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  auto constraints = ParseConstraintSet(*schema,
                                        "REGION[r0] in [2,100]\n"
                                        "REGION[r1] in [2,100]\n"
                                        "JOB[j0] in [2,100]\n");
  ASSERT_TRUE(constraints.ok());

  auto prior = RunDiva(*base, *constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr);
  EXPECT_EQ(prior->report.shards, 2u);

  DeltaBatch delta;
  delta.inserted.push_back({"r0", "g1", "33", "j0", "d1"});

  auto post = ApplyDeltaToRelation(*prior->snapshot->input, delta);
  ASSERT_TRUE(post.ok());
  auto cold = RunDiva(*post, *constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto incremental =
      ApplyDelta(*prior->snapshot, delta, ChurnOptions(2, 1));
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_EQ(Fingerprint(*incremental), Fingerprint(*cold));
  EXPECT_EQ(incremental->report.shards, cold->report.shards);
  SetParallelThreads(1);
}

TEST(IncrementalTest, SnapshotsChainAcrossDeltas) {
  Rng rng(80);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 150; ++i) rows.push_back(MakeChurnRow(rng, 4));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 4);

  auto prior = RunDiva(*base, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr);

  DeltaBatch first;
  first.deleted = {3, 17, 42};
  first.inserted.push_back(MakeChurnRow(rng, 4));
  auto mid = ApplyDelta(*prior->snapshot, first, ChurnOptions(2, 1));
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  ASSERT_NE(mid->snapshot, nullptr)
      << "ApplyDelta must emit a chainable snapshot";

  DeltaBatch second;
  second.deleted = {0, 9};
  second.inserted.push_back(MakeChurnRow(rng, 4));
  auto chained = ApplyDelta(*mid->snapshot, second, ChurnOptions(2, 1));
  ASSERT_TRUE(chained.ok()) << chained.status().ToString();

  auto post = ApplyDeltaToRelation(*mid->snapshot->input, second);
  ASSERT_TRUE(post.ok());
  auto cold = RunDiva(*post, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(Fingerprint(*chained), Fingerprint(*cold));
  SetParallelThreads(1);
}

TEST(IncrementalTest, RejectsOutOfRangeDeleteAndStaleSnapshot) {
  Rng rng(81);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 120; ++i) rows.push_back(MakeChurnRow(rng, 3));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 3);

  auto prior = RunDiva(*base, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok());
  ASSERT_NE(prior->snapshot, nullptr);

  DeltaBatch out_of_range;
  out_of_range.deleted = {100000};
  auto bad = ApplyDelta(*prior->snapshot, out_of_range, ChurnOptions(2, 1));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  PipelineSnapshot invalid;
  auto stale = ApplyDelta(invalid, DeltaBatch{}, ChurnOptions(2, 1));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalTest, ParsesDeltaFileFormat) {
  auto delta = ParseDeltaFile(
      "# churn batch\n"
      "- 7\n"
      "-  12\n"
      "\n"
      "+ r1, g2, 44, j3, d0\n"
      "+ r0,g1,27,j2,*\n");
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->deleted, (std::vector<RowId>{7, 12}));
  ASSERT_EQ(delta->inserted.size(), 2u);
  EXPECT_EQ(delta->inserted[0],
            (std::vector<std::string>{"r1", "g2", "44", "j3", "d0"}));
  EXPECT_EQ(delta->inserted[1],
            (std::vector<std::string>{"r0", "g1", "27", "j2", "*"}));

  EXPECT_FALSE(ParseDeltaFile("- notanumber\n").ok());
  EXPECT_FALSE(ParseDeltaFile("? what\n").ok());
  EXPECT_TRUE(ParseDeltaFile("").ok());
}

}  // namespace
}  // namespace diva
