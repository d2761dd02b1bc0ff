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
// coloring, integration over a Mondrian baseline, suppression, report).
// Two legs, min-over-reps each: DivaOptions::shard on (concurrent
// per-component work items) and off (the same per-shard computations,
// sequential). The published relation must hash identically across legs
// and reps — the shard flag is an execution knob, never a semantic one
// (core/shard.h) — and the deterministic report metrics gate CI via
// tools/bench_diff.py against bench/baselines/BENCH_scale.json. Timing
// keys are informational per machine; the sharding payoff itself is
// gated in CI as the t1/t8 wall ratio across two DIVA_THREADS runs.
//
// Usage: bench_scale [out.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
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
    regions[r] = relation.Encode(0, "r" + std::to_string(r));
  }
  for (size_t g = 0; g < 2 * kNumRegions; ++g) {
    groups[g] = relation.Encode(1, "g" + std::to_string(g));
  }
  std::vector<ValueCode> ages(60);
  for (size_t a = 0; a < ages.size(); ++a) {
    ages[a] = relation.Encode(2, std::to_string(18 + a));
  }
  std::vector<ValueCode> jobs(kNumJobs);
  for (size_t j = 0; j < kNumJobs; ++j) {
    jobs[j] = relation.Encode(3, "j" + std::to_string(j));
  }
  std::vector<ValueCode> diagnoses(kNumDiagnoses);
  for (size_t d = 0; d < kNumDiagnoses; ++d) {
    diagnoses[d] = relation.Encode(4, "d" + std::to_string(d));
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

/// Order-sensitive FNV-1a over every published cell — cheap byte
/// identity for 1M-row outputs without serializing them.
uint64_t HashRelation(const Relation& relation) {
  uint64_t hash = 1469598103934665603ULL;
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (const ValueCode code : relation.Row(row)) {
      hash ^= static_cast<uint64_t>(code) + 1;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

struct LegResult {
  double wall_seconds = 0.0;  // min over reps
  uint64_t output_hash = 0;
  DivaReport report;  // of the rep whose wall is `wall_seconds`
};

DivaOptions LegOptions(bool shard) {
  DivaOptions options;
  options.k = kK;
  options.seed = kSeed;
  options.shard = shard;
  options.baseline = BaselineAlgorithm::kMondrian;
  return options;
}

LegResult RunLeg(const ScaleWorkload& workload, bool shard) {
  const DivaOptions options = LegOptions(shard);
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
  // The pool width the legs run at (DivaOptions::threads, which
  // defaults to DIVA_THREADS), not the hardware count.
  std::printf("built %zu rows, %zu constraints in %.2fs (threads=%zu)\n",
              workload.relation.NumRows(), workload.constraints.size(),
              build_watch.ElapsedSeconds(),
              ResolveThreadCount(LegOptions(true).threads));

  LegResult on = RunLeg(workload, /*shard=*/true);
  LegResult off = RunLeg(workload, /*shard=*/false);
  DIVA_CHECK_MSG(on.output_hash == off.output_hash,
                 "shard flag changed the published bytes");
  DIVA_CHECK_MSG(on.report.shards == kNumRegions,
                 "unexpected component count");

  double shard_speedup = off.wall_seconds / on.wall_seconds;
  std::printf(
      "scale_1m     shards=%zu residual=%zu complete=%d steps=%llu "
      "backtracks=%llu\n"
      "             wall=%.3fs (min of %zu, shard on)  shard-off=%.3fs "
      "(x%.2f)\n"
      "             sigma_rows=%zu repair_cells=%zu\n"
      "             phases: clustering=%.3fs anonymize=%.3fs "
      "integrate=%.3fs\n\n",
      on.report.shards, on.report.residual_rows,
      (int)on.report.clustering_complete,
      (unsigned long long)on.report.coloring_steps,
      (unsigned long long)on.report.backtracks, on.wall_seconds, Reps(),
      off.wall_seconds, shard_speedup, on.report.sigma_rows,
      on.report.repair_cells, on.report.clustering_seconds,
      on.report.anonymize_seconds, on.report.integrate_seconds);

  std::string json = "{\n  \"scale_1m\": {\n";
  bool first = true;
  AppendMetric(&json, "steps", (double)on.report.coloring_steps, &first);
  AppendMetric(&json, "backtracks", (double)on.report.backtracks, &first);
  AppendMetric(&json, "complete", on.report.clustering_complete ? 1 : 0,
               &first);
  AppendMetric(&json, "shards", (double)on.report.shards, &first);
  AppendMetric(&json, "residual_rows", (double)on.report.residual_rows,
               &first);
  AppendMetric(&json, "sigma_rows", (double)on.report.sigma_rows, &first);
  AppendMetric(&json, "repair_cells", (double)on.report.repair_cells, &first);
  AppendMetric(&json, "colored_constraints",
               (double)on.report.colored_constraints, &first);
  // The conflict graph's overlap sweep: Σ_r m_r·(m_r − 1)/2 entries.
  AppendIntMetric(&json, "incidence_visits",
                  CounterValue(on.report.counters, "graph.incidence_visits"),
                  &first);
  AppendMetric(&json, "wall_seconds", on.wall_seconds, &first);
  AppendMetric(&json, "shard_off_seconds", off.wall_seconds, &first);
  AppendMetric(&json, "clustering_seconds", on.report.clustering_seconds,
               &first);
  AppendMetric(&json, "anonymize_seconds", on.report.anonymize_seconds,
               &first);
  AppendMetric(&json, "integrate_seconds", on.report.integrate_seconds,
               &first);
  // exec_-prefixed: the on/off wall ratio is machine- and
  // scheduling-dependent, never gated by bench_diff.
  AppendMetric(&json, "exec_shard_speedup", shard_speedup, &first);
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
