// End-to-end scale benchmark — the component-sharding gate's probe.
//
// One pinned shape, built in memory (no I/O in the timed region):
//
//   scale_1m — 1,000,000 rows over a REGION attribute with 64 values and
//              a GROUP attribute with 128 values, correlated so that the
//              3 constraints written per region (one on the region, one
//              on each of its two groups) form exactly 64 independent
//              conflict-graph components of ~15,625 target rows each.
//              Every row is targeted (empty residual), and each
//              constraint's lower bound demands ~70% of its occurrences
//              survive, so the coloring phase does real per-component
//              cluster-selection work instead of a satisfiability
//              no-op.
//
// The timed region is the whole RunDiva pipeline (graph build, sharded
// coloring, integration over a Mondrian baseline, suppression, report),
// min over reps. The published relation must hash identically across
// reps; its hash halves (output_hash_lo/hi) and the deterministic report
// metrics gate CI via tools/bench_diff.py against
// bench/baselines/BENCH_scale.json, so a DIVA_THREADS=1 run and a
// DIVA_THREADS=8 run — shards inline vs concurrent (core/shard.h) —
// must publish the same bytes. Timing keys are informational per
// machine; the sharding payoff itself is gated in CI as the t1/t8 wall
// ratio across the two runs.
//
// Usage: bench_scale [out.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "constraint/parser.h"
#include "core/diva.h"
#include "metrics/metrics.h"
#include "relation/relation.h"
#include "relation/schema.h"

using namespace diva;         // NOLINT
using namespace diva::bench;  // NOLINT

namespace {

// Pinned shape — changing any knob invalidates the recorded baseline.
constexpr size_t kNumRows = 1000000;
constexpr size_t kNumRegions = 64;   // = components in the conflict graph
constexpr size_t kNumJobs = 40;      // uncorrelated QI noise
constexpr size_t kNumDiagnoses = 8;  // sensitive domain
constexpr size_t kK = 10;
constexpr uint64_t kSeed = 1000;
/// Each constraint's lower bound as a fraction of its occurrence count:
/// the coloring must preserve at least this share per target value.
constexpr uint64_t kPreserveNumerator = 7;
constexpr uint64_t kPreserveDenominator = 10;

struct ScaleWorkload {
  Relation relation;
  ConstraintSet constraints;
};

/// Builds the pinned relation and its 192-constraint Sigma. Row i gets
/// REGION i%64 and GROUP 2*region + parity, so each region's rows split
/// across exactly two groups; AGE and JOB are seeded noise. The three
/// constraints of a region overlap pairwise through the region's target
/// set and touch no other region's rows: 64 components by construction.
ScaleWorkload BuildWorkload() {
  auto schema = Schema::Make({
      {"REGION", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"GROUP", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"AGE", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"JOB", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"DIAG", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK_MSG(schema.ok(), schema.status().ToString());
  Relation relation(*schema);

  std::vector<ValueCode> regions(kNumRegions);
  std::vector<ValueCode> groups(2 * kNumRegions);
  for (size_t r = 0; r < kNumRegions; ++r) {
    regions[r] = relation.Encode(0, NumberedLabel("r", r));
  }
  for (size_t g = 0; g < 2 * kNumRegions; ++g) {
    groups[g] = relation.Encode(1, NumberedLabel("g", g));
  }
  std::vector<ValueCode> ages(60);
  for (size_t a = 0; a < ages.size(); ++a) {
    ages[a] = relation.Encode(2, std::to_string(18 + a));
  }
  std::vector<ValueCode> jobs(kNumJobs);
  for (size_t j = 0; j < kNumJobs; ++j) {
    jobs[j] = relation.Encode(3, NumberedLabel("j", j));
  }
  std::vector<ValueCode> diagnoses(kNumDiagnoses);
  for (size_t d = 0; d < kNumDiagnoses; ++d) {
    diagnoses[d] = relation.Encode(4, NumberedLabel("d", d));
  }

  std::vector<uint64_t> region_count(kNumRegions, 0);
  std::vector<uint64_t> group_count(2 * kNumRegions, 0);
  Rng rng(kSeed);
  std::vector<ValueCode> row(5);
  for (size_t i = 0; i < kNumRows; ++i) {
    const size_t region = i % kNumRegions;
    const size_t group = 2 * region + (i / kNumRegions) % 2;
    ++region_count[region];
    ++group_count[group];
    row[0] = regions[region];
    row[1] = groups[group];
    row[2] = ages[rng.NextBounded(ages.size())];
    row[3] = jobs[rng.NextBounded(kNumJobs)];
    row[4] = diagnoses[rng.NextBounded(kNumDiagnoses)];
    relation.AppendRow(row);
  }

  auto lower = [](uint64_t count) {
    uint64_t bound = count * kPreserveNumerator / kPreserveDenominator;
    return bound < kK ? kK : bound;
  };
  std::string sigma;
  char line[96];
  for (size_t r = 0; r < kNumRegions; ++r) {
    std::snprintf(line, sizeof(line), "REGION[r%zu] in [%llu,%llu]\n", r,
                  (unsigned long long)lower(region_count[r]),
                  (unsigned long long)region_count[r]);
    sigma += line;
    for (size_t g = 2 * r; g < 2 * r + 2; ++g) {
      std::snprintf(line, sizeof(line), "GROUP[g%zu] in [%llu,%llu]\n", g,
                    (unsigned long long)lower(group_count[g]),
                    (unsigned long long)group_count[g]);
      sigma += line;
    }
  }
  auto constraints = ParseConstraintSet(relation.schema(), sigma);
  DIVA_CHECK_MSG(constraints.ok(), constraints.status().ToString());
  return {std::move(relation), std::move(constraints).value()};
}

struct LegResult {
  double wall_seconds = 0.0;  // min over reps
  uint64_t output_hash = 0;
  DivaReport report;  // of the rep whose wall is `wall_seconds`
};

DivaOptions LegOptions() {
  DivaOptions options;
  options.k = kK;
  options.seed = kSeed;
  options.baseline = BaselineAlgorithm::kMondrian;
  return options;
}

LegResult RunLeg(const ScaleWorkload& workload) {
  const DivaOptions options = LegOptions();
  LegResult result;
  for (size_t rep = 0; rep < Reps(); ++rep) {
    StopWatch watch;
    auto run = RunDiva(workload.relation, workload.constraints, options);
    double secs = watch.ElapsedSeconds();
    DIVA_CHECK_MSG(run.ok(), run.status().ToString());
    uint64_t hash = HashRelation(run->relation);
    if (rep > 0) {
      DIVA_CHECK_MSG(hash == result.output_hash,
                     "published bytes differ across reps");
    }
    // Phase times come from the same rep as the wall they sit next to.
    if (rep == 0 || secs < result.wall_seconds) {
      result.wall_seconds = secs;
      result.output_hash = hash;
      result.report = run->report;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  PrintPreamble("bench_scale",
                "1M-row sharded pipeline — component-sharding gate");

  StopWatch build_watch;
  ScaleWorkload workload = BuildWorkload();
  // The pool width the leg runs at (DivaOptions::threads, which
  // defaults to DIVA_THREADS), not the hardware count.
  std::printf("built %zu rows, %zu constraints in %.2fs (threads=%zu)\n",
              workload.relation.NumRows(), workload.constraints.size(),
              build_watch.ElapsedSeconds(),
              ResolveThreadCount(LegOptions().threads));

  LegResult scale = RunLeg(workload);
  DIVA_CHECK_MSG(scale.report.shards == kNumRegions,
                 "unexpected component count");

  std::printf(
      "scale_1m     shards=%zu residual=%zu complete=%d steps=%llu "
      "backtracks=%llu\n"
      "             wall=%.3fs (min of %zu)  output_hash=%016llx\n"
      "             sigma_rows=%zu repair_cells=%zu\n"
      "             phases: clustering=%.3fs anonymize=%.3fs "
      "integrate=%.3fs\n\n",
      scale.report.shards, scale.report.residual_rows,
      (int)scale.report.clustering_complete,
      (unsigned long long)scale.report.coloring_steps,
      (unsigned long long)scale.report.backtracks, scale.wall_seconds, Reps(),
      (unsigned long long)scale.output_hash, scale.report.sigma_rows,
      scale.report.repair_cells, scale.report.clustering_seconds,
      scale.report.anonymize_seconds, scale.report.integrate_seconds);

  std::string json = "{\n  \"scale_1m\": {\n";
  bool first = true;
  AppendMetric(&json, "steps", (double)scale.report.coloring_steps, &first);
  AppendMetric(&json, "backtracks", (double)scale.report.backtracks, &first);
  AppendMetric(&json, "complete", scale.report.clustering_complete ? 1 : 0,
               &first);
  AppendMetric(&json, "shards", (double)scale.report.shards, &first);
  AppendMetric(&json, "residual_rows", (double)scale.report.residual_rows,
               &first);
  AppendMetric(&json, "sigma_rows", (double)scale.report.sigma_rows, &first);
  AppendMetric(&json, "repair_cells", (double)scale.report.repair_cells,
               &first);
  AppendMetric(&json, "colored_constraints",
               (double)scale.report.colored_constraints, &first);
  // The conflict graph's overlap sweep: Σ_r m_r·(m_r − 1)/2 entries.
  AppendIntMetric(
      &json, "incidence_visits",
      CounterValue(scale.report.counters, "graph.incidence_visits"), &first);
  // Published-bytes identity, split so each half is exact in JSON.
  AppendIntMetric(&json, "output_hash_lo",
                  scale.output_hash & 0xffffffffULL, &first);
  AppendIntMetric(&json, "output_hash_hi", scale.output_hash >> 32, &first);
  AppendMetric(&json, "wall_seconds", scale.wall_seconds, &first);
  AppendMetric(&json, "clustering_seconds", scale.report.clustering_seconds,
               &first);
  AppendMetric(&json, "anonymize_seconds", scale.report.anonymize_seconds,
               &first);
  AppendMetric(&json, "integrate_seconds", scale.report.integrate_seconds,
               &first);
  json += "\n  }\n}\n";

  if (argc > 1) {
    std::FILE* out = std::fopen(argv[1], "w");
    DIVA_CHECK_MSG(out != nullptr, "cannot open output file");
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("wrote %s\n", argv[1]);
  }
  return 0;
}
