// Ablation study for the design choices called out in DESIGN.md §5:
//   (1) candidate-pool cap of the clustering enumerator,
//   (2) ordered (minimal-suppression-first) vs shuffled candidates,
//   (3) the single-block partition variant,
//   (4) sampled vs exact k-member in the Anonymize phase,
//   (5) coloring step budget.
// Each knob is varied in isolation on a fixed Pop-Syn workload.

#include <functional>

#include "bench/bench_common.h"
#include "anon/suppress.h"
#include "constraint/generator.h"
#include "hierarchy/recoding.h"
#include "metrics/metrics.h"

using namespace diva;         // NOLINT
using namespace diva::bench;  // NOLINT

namespace {

struct Workload {
  Relation relation;
  ConstraintSet constraints;
};

Workload MakeWorkload() {
  ProfileOptions profile_options;
  profile_options.num_rows = static_cast<size_t>(100000 * Scale());
  profile_options.seed = 33;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  DIVA_CHECK(relation.ok());
  ConstraintGenOptions gen;
  gen.count = 8;
  gen.min_support = 50;
  gen.seed = 33;
  auto constraints = GenerateConstraints(*relation, gen);
  DIVA_CHECK(constraints.ok());
  return {std::move(relation).value(), std::move(constraints).value()};
}

/// Runs DIVA with a caller-tweaked option set and reports accuracy,
/// runtime and colored-constraint count.
void Report(const Workload& workload, const char* label,
            const std::function<void(DivaOptions*)>& tweak) {
  DivaOptions options;
  options.k = 10;
  options.seed = 33;
  options.coloring_budget = ColoringBudget();
  options.anonymizer.sample_size = 64;
  tweak(&options);

  StopWatch watch;
  auto result = RunDiva(workload.relation, workload.constraints, options);
  double seconds = watch.ElapsedSeconds();
  DIVA_CHECK_MSG(result.ok(), result.status().ToString());
  std::printf("%-34s  acc=%.4f  time=%7.3fs  colored=%zu/%zu  steps=%llu\n",
              label,
              OverallAccuracy(result->relation, options.k,
                              workload.constraints),
              seconds, result->report.colored_constraints,
              result->report.total_constraints,
              static_cast<unsigned long long>(result->report.coloring_steps));
}

}  // namespace

int main() {
  PrintPreamble("Ablations", "DESIGN.md §5 design choices, varied in isolation");
  Workload workload = MakeWorkload();
  std::printf("workload: Pop-Syn |R|=%zu, |Sigma|=%zu, k=10\n\n",
              workload.relation.NumRows(), workload.constraints.size());

  std::printf("--- (1) candidate-pool cap (MaxFanOut, ordered) ---\n");
  for (size_t cap : {8u, 16u, 64u, 256u}) {
    std::string label = "max_clusterings=" + std::to_string(cap);
    Report(workload, label.c_str(), [cap](DivaOptions* options) {
      options->auto_tune_enumeration = false;
      options->enumeration.max_clusterings = cap;
      options->enumeration.seed = options->seed;
    });
  }

  std::printf("\n--- (2) candidate order ---\n");
  Report(workload, "ordered (min suppression first)",
         [](DivaOptions* options) {
           options->auto_tune_enumeration = false;
           options->enumeration.ordered = true;
           options->enumeration.seed = options->seed;
         });
  Report(workload, "shuffled (Basic's order)", [](DivaOptions* options) {
    options->auto_tune_enumeration = false;
    options->enumeration.ordered = false;
    options->enumeration.seed = options->seed;
  });

  std::printf("\n--- (3) single-block partition variant ---\n");
  Report(workload, "with single-block variants", [](DivaOptions* options) {
    options->auto_tune_enumeration = false;
    options->enumeration.single_block_variant = true;
    options->enumeration.seed = options->seed;
  });
  Report(workload, "k-blocks only", [](DivaOptions* options) {
    options->auto_tune_enumeration = false;
    options->enumeration.single_block_variant = false;
    options->enumeration.seed = options->seed;
  });

  std::printf("\n--- (4) Anonymize-phase k-member search ---\n");
  Report(workload, "sampled candidates (64)", [](DivaOptions* options) {
    options->anonymizer.sample_size = 64;
  });
  Report(workload, "exact (quadratic) search", [](DivaOptions* options) {
    options->anonymizer.sample_size = 0;
  });

  std::printf("\n--- (5) coloring step budget ---\n");
  for (uint64_t budget : {1000ULL, 10000ULL, 100000ULL}) {
    std::string label = "budget=" + std::to_string(budget);
    Report(workload, label.c_str(), [budget](DivaOptions* options) {
      options->coloring_budget = budget;
    });
  }

  // (6) Recoding family comparison: local suppression vs LCA
  // generalization vs Samarati full-domain recoding, same k.
  std::printf("\n--- (6) recoding family (k=10, NCP information loss) ---\n");
  {
    const Relation& r = workload.relation;
    GeneralizationContext context(r.NumAttributes());
    size_t age = *r.schema().IndexOf("AGE");
    auto age_taxonomy = Taxonomy::Intervals(18, 98, 10);
    DIVA_CHECK(age_taxonomy.ok());
    context.SetTaxonomy(age, std::move(age_taxonomy).value());

    std::vector<RowId> rows(r.NumRows());
    for (RowId i = 0; i < r.NumRows(); ++i) rows[i] = i;
    auto kmember = MakeKMember({});
    auto clusters = kmember->BuildClusters(r, rows, 10);
    DIVA_CHECK(clusters.ok());

    Relation suppressed = r;
    StopWatch suppress_watch;
    SuppressClustersInPlace(&suppressed, *clusters);
    std::printf("%-34s  ncp=%.4f  disc_acc=%.4f  time=%7.3fs\n",
                "k-member + suppression", NcpLoss(suppressed, context),
                DiscernibilityAccuracy(suppressed, 10),
                suppress_watch.ElapsedSeconds());

    Relation generalized = r;
    StopWatch generalize_watch;
    DIVA_CHECK(
        GeneralizeClustersInPlace(&generalized, *clusters, context).ok());
    std::printf("%-34s  ncp=%.4f  disc_acc=%.4f  time=%7.3fs\n",
                "k-member + LCA generalization", NcpLoss(generalized, context),
                DiscernibilityAccuracy(generalized, 10),
                generalize_watch.ElapsedSeconds());

    GlobalRecoder recoder(r, context);
    StopWatch recode_watch;
    auto recoded = recoder.FindMinimalRecoding(10);
    DIVA_CHECK_MSG(recoded.ok(), recoded.status().ToString());
    std::printf("%-34s  ncp=%.4f  disc_acc=%.4f  time=%7.3fs  vector=%s\n",
                "Samarati full-domain recoding", recoded->ncp,
                DiscernibilityAccuracy(recoded->relation, 10),
                recode_watch.ElapsedSeconds(),
                recoded->vector.ToString().c_str());
  }
  return 0;
}
