// Batch workloads: set-up, cold publishes, the delta chain, and the
// traced replay that splits a RunDiva call into its layers.

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>

#include "anon/suppress.h"
#include "bench.h"
#include "common/bitset.h"
#include "common/counters.h"
#include "common/parallel.h"
#include "core/constraint_graph.h"
#include "core/integrate.h"
#include "core/shard.h"
#include "relation/columnar.h"
#include "relation/csv.h"
#include "verify/auditor.h"

namespace perfbench {

namespace {

using diva::Clustering;
using diva::DivaResult;
using diva::Result;
using diva::RowId;
using diva::ValueCode;

constexpr int kMinReps = 2;
/// Set-up sampling time after each rep.
constexpr double kSetupSeconds = 1.0;

/// Order-sensitive FNV-1a over every cell (byte identity of outputs).
uint64_t HashRelation(const Relation& relation) {
  uint64_t hash = 1469598103934665603ULL;
  for (diva::RowId row = 0; row < relation.NumRows(); ++row) {
    for (const ValueCode code : relation.Row(row)) {
      hash ^= static_cast<uint64_t>(code) + 1;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

/// Published stars: cells suppressed in `output` but not in `input`.
uint64_t CountStars(const Relation& input, const Relation& output) {
  uint64_t stars = 0;
  for (diva::RowId row = 0; row < output.NumRows(); ++row) {
    for (size_t col = 0; col < output.NumAttributes(); ++col) {
      stars += output.IsSuppressed(row, col) && !input.IsSuppressed(row, col);
    }
  }
  return stars;
}

/// What the replay did, for the checks against RunDiva's report.
struct Replayed {
  uint64_t steps = 0;
  uint64_t backtracks = 0;
  size_t sigma_rows = 0;
  size_t baseline_rows = 0;
  size_t repair_cells = 0;
  size_t graph_edges = 0;
  size_t target_rows = 0;
  size_t shards = 0;
  size_t shard_max_rows = 0;
  bool leftover = false;
  uint64_t output_hash = 0;
};

/// The baseline phase of RunDiva: per component when the shard plan is
/// effective (undersized components pooled with the untargeted rows),
/// else one call over every uncovered row. Rows of a pool smaller than
/// k are returned in `leftover`.
Result<Clustering> BuildBaseline(const Relation& relation,
                                 const diva::Bitset& covered,
                                 const diva::ShardPlan& plan,
                                 const DivaOptions& options,
                                 std::vector<RowId>* leftover) {
  std::unique_ptr<diva::Anonymizer> baseline =
      diva::MakeBaselineAnonymizer(options);
  std::vector<RowId> remaining;
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    if (!covered.Test(row)) remaining.push_back(row);
  }
  if (remaining.empty()) return Clustering{};
  if (!plan.Effective()) {
    if (remaining.size() < options.k) {
      *leftover = remaining;
      return Clustering{};
    }
    return baseline->BuildClusters(relation, remaining, options.k);
  }

  auto build_local = [&](const std::vector<RowId>& rows,
                         Clustering* out) -> Status {
    const Relation sub = relation.SelectRows(rows);
    std::vector<RowId> local(rows.size());
    for (size_t i = 0; i < local.size(); ++i) local[i] = static_cast<RowId>(i);
    DIVA_ASSIGN_OR_RETURN(Clustering built,
                          baseline->BuildClusters(sub, local, options.k));
    for (diva::Cluster& cluster : built) {
      for (RowId& row : cluster) row = rows[static_cast<size_t>(row)];
      out->push_back(std::move(cluster));
    }
    return Status::OK();
  };

  diva::Bitset targeted(relation.NumRows());
  std::vector<std::vector<RowId>> uncovered(plan.shards.size());
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    for (RowId row : plan.shards[s].rows) {
      targeted.Set(static_cast<size_t>(row));
      if (!covered.Test(row)) uncovered[s].push_back(row);
    }
  }
  std::vector<RowId> pool;
  for (RowId row : remaining) {
    if (!targeted.Test(static_cast<size_t>(row))) pool.push_back(row);
  }
  for (const std::vector<RowId>& rows : uncovered) {
    if (!rows.empty() && rows.size() < options.k) {
      pool.insert(pool.end(), rows.begin(), rows.end());
    }
  }
  std::sort(pool.begin(), pool.end());

  Clustering clusters;
  for (const std::vector<RowId>& rows : uncovered) {
    if (rows.size() >= options.k) {
      DIVA_RETURN_IF_ERROR(build_local(rows, &clusters));
    }
  }
  if (pool.size() >= options.k) {
    DIVA_RETURN_IF_ERROR(build_local(pool, &clusters));
  } else if (!pool.empty()) {
    *leftover = std::move(pool);
  }
  return clusters;
}

/// RunDiva's phases as public layer calls, in pipeline order, each in a
/// span under `parent`. Covers the configurations the workloads use (no
/// generalization, l-diversity or t-closeness, no deadline).
Status Replay(const Relation& relation, const ConstraintSet& constraints,
              const DivaOptions& options, Recorder* recorder, int parent,
              int run, Replayed* replayed) {
  diva::SetParallelThreads(options.threads);
  diva::ConstraintGraph graph;
  {
    ScopedSpan span(recorder, "core.graph_build", parent, run);
    graph = diva::BuildConstraintGraph(relation, constraints);
  }
  diva::ShardPlan plan;
  {
    ScopedSpan span(recorder, "core.shard_plan", parent, run);
    plan = diva::ComputeShardPlan(graph, relation.NumRows());
  }

  diva::ColoringOptions coloring_options;
  coloring_options.k = options.k;
  coloring_options.strategy = options.strategy;
  coloring_options.seed = options.seed;
  coloring_options.step_budget = options.coloring_budget;
  coloring_options.enumeration = options.enumeration;
  if (options.auto_tune_enumeration) {
    // RunDiva's tuning for the MinChoice/MaxFanOut strategies.
    coloring_options.enumeration.seed = options.seed;
    coloring_options.enumeration.ordered = true;
  }
  diva::ColoringOutcome coloring;
  {
    // Only the sharded path builds a column store; on a single
    // component this span times the branch alone, so the layer reads ~0.
    std::optional<diva::ColumnStore> store;
    {
      ScopedSpan span(recorder, "relation.column_store", parent, run);
      if (plan.Effective()) store = diva::ColumnStore::FromRelation(relation);
    }
    ScopedSpan span(recorder, "core.coloring", parent, run);
    if (store.has_value()) {
      DIVA_ASSIGN_OR_RETURN(
          coloring, diva::RunShardedColoring(
                        *store, constraints, graph, plan, coloring_options,
                        diva::ResolveThreadCount(options.threads)));
    } else {
      coloring =
          diva::ColorConstraints(relation, constraints, graph, coloring_options);
    }
  }
  const Clustering& sigma_clusters = coloring.chosen_clusters;

  std::optional<Relation> out;
  {
    ScopedSpan span(recorder, "anon.suppress", parent, run);
    out = relation;
    diva::SuppressClustersInPlace(&*out, sigma_clusters);
  }
  diva::Bitset covered(relation.NumRows());
  for (const diva::Cluster& cluster : sigma_clusters) {
    for (RowId row : cluster) covered.Set(row);
  }
  Clustering rk_clusters;
  std::vector<RowId> leftover;
  {
    ScopedSpan span(recorder, "anon.baseline", parent, run);
    DIVA_ASSIGN_OR_RETURN(
        rk_clusters,
        BuildBaseline(relation, covered, plan, options, &leftover));
  }
  {
    ScopedSpan span(recorder, "anon.suppress", parent, run);
    diva::SuppressClustersInPlace(&*out, rk_clusters);
  }
  diva::IntegrateStats repair;
  std::vector<size_t> unsatisfied;
  {
    ScopedSpan span(recorder, "core.integrate", parent, run);
    repair = diva::IntegrateRepair(&*out, constraints, rk_clusters);
    diva::SuppressIdentifiers(&*out);
    unsatisfied = diva::ViolatedConstraints(*out, constraints);
  }
  {
    ScopedSpan span(recorder, "verify.audit", parent, run);
    diva::AuditOptions audit_options;
    audit_options.waived_constraints = unsatisfied;
    DIVA_ASSIGN_OR_RETURN(
        diva::AuditReport audit,
        diva::AuditAnonymization(relation, *out, options.k, constraints,
                                 audit_options));
    // Leftover rows are merged by RunDiva-internal code the replay does
    // not reproduce, so its output is incomplete then (flagged below).
    if (!audit.ok() && leftover.empty()) {
      return Status::Internal("replayed output failed the audit:\n" +
                              audit.ToString());
    }
  }

  replayed->steps = coloring.steps;
  replayed->backtracks = coloring.backtracks;
  replayed->sigma_rows = diva::TotalRows(sigma_clusters);
  replayed->baseline_rows = relation.NumRows() - replayed->sigma_rows;
  replayed->repair_cells = repair.suppressed_cells;
  for (const auto& adjacent : graph.adjacency) {
    replayed->graph_edges += adjacent.size();
  }
  replayed->graph_edges /= 2;
  for (const auto& targets : graph.targets) {
    replayed->target_rows += targets.size();
  }
  replayed->shards = plan.shards.size();
  replayed->shard_max_rows = plan.MaxShardRows();
  replayed->leftover = !leftover.empty();
  replayed->output_hash = HashRelation(*out);
  return Status::OK();
}

uint64_t CounterValue(const std::vector<diva::counters::Sample>& samples,
                      const std::string& name) {
  for (const auto& sample : samples) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

/// Audits a published output independently of RunDiva's self-audit
/// (star count included) and records its quality figures.
void CheckPublished(const Relation& input, const ConstraintSet& constraints,
                    const DivaOptions& options, const DivaResult& run,
                    Recorder* recorder) {
  const uint64_t stars = CountStars(input, run.relation);
  recorder->Value("stars", static_cast<double>(stars));
  recorder->Value("satisfied", static_cast<double>(
                                   constraints.size() -
                                   run.report.unsatisfied.size()));
  recorder->Attempt();
  diva::AuditOptions audit_options;
  audit_options.waived_constraints = run.report.unsatisfied;
  audit_options.expected_added_stars = stars;
  auto audit = diva::AuditAnonymization(input, run.relation, options.k,
                                        constraints, audit_options);
  if (recorder->Ok(audit.status(), "audit") && !audit->ok()) {
    recorder->Fail("published output failed the audit:\n" + audit->ToString());
  }
}

Status WriteToMemory(const Relation& relation) {
  std::ostringstream csv;
  return diva::WriteCsv(relation, csv);
}

/// One traced rep: a RunDiva call, the replay of the same run through
/// the layers' public calls, and the published write, each in a span.
/// The replay must reproduce RunDiva's coloring and output bytes.
void TracedRep(const Relation& relation, const ConstraintSet& constraints,
               const DivaOptions& options, int run, Recorder* recorder) {
  recorder->Attempt();
  ScopedSpan rep_span(recorder, "rep", -1, run);
  auto diva_run = [&] {
    ScopedSpan span(recorder, "core.run_diva", rep_span.id(), run);
    return diva::RunDiva(relation, constraints, options);
  }();
  if (!recorder->Ok(diva_run.status(), "RunDiva")) return;
  const diva::DivaReport& report = diva_run->report;

  Replayed replayed;
  Status replay_status = [&] {
    ScopedSpan span(recorder, "core.replay", rep_span.id(), run);
    return Replay(relation, constraints, options, recorder, span.id(), run,
                  &replayed);
  }();
  {
    ScopedSpan span(recorder, "relation.write_csv", rep_span.id(), run);
    recorder->Ok(WriteToMemory(diva_run->relation), "write csv");
  }
  if (!recorder->Ok(replay_status, "replay")) return;
  // The per-layer numbers describe what RunDiva did only if the replay
  // made the same search and published the same bytes.
  if (replayed.steps != report.coloring_steps ||
      replayed.backtracks != report.backtracks ||
      replayed.sigma_rows != report.sigma_rows) {
    recorder->Fail("replayed coloring differs from RunDiva's report");
  }
  if (replayed.leftover) {
    recorder->Fail("replay cannot reproduce RunDiva's leftover merge");
  } else if (replayed.output_hash != HashRelation(diva_run->relation)) {
    recorder->Fail("replayed output differs from RunDiva's");
  }
  if (run > 0) return;

  recorder->Value("constraint.target_rows",
                  static_cast<double>(replayed.target_rows));
  recorder->Value("core.graph_edges",
                  static_cast<double>(replayed.graph_edges));
  recorder->Value("core.shards", static_cast<double>(replayed.shards));
  recorder->Value("core.shard_max_rows",
                  static_cast<double>(replayed.shard_max_rows));
  recorder->Value("anon.baseline_rows",
                  static_cast<double>(replayed.baseline_rows));
  recorder->Value("core.repair_cells",
                  static_cast<double>(replayed.repair_cells));
  for (const char* name :
       {"coloring.steps", "coloring.backtracks", "clusterings.enumerated",
        "coloring.memo_hits", "coloring.memo_misses", "coloring.nogood_hits",
        "coloring.nogood_misses", "coloring.spec_adopted",
        "coloring.spec_reruns", "coloring.spec_probes",
        "coloring.spec_probe_hits"}) {
    recorder->Value(std::string("counter.") + name,
                    static_cast<double>(CounterValue(report.counters, name)));
  }
}

/// The benchmark's own application of `delta` to `input`, written
/// independently of the library's (which ApplyDelta uses internally):
/// the surviving rows in order, then the inserted rows. Fails on an
/// out-of-range or repeated delete.
Result<Relation> ReferenceApply(const Relation& input, const DeltaBatch& delta) {
  std::vector<bool> gone(input.NumRows(), false);
  for (RowId row : delta.deleted) {
    if (row >= input.NumRows() || gone[row]) {
      return Status::InvalidArgument("bad delete of row " + std::to_string(row));
    }
    gone[row] = true;
  }
  Relation post = input.EmptyLike();
  for (RowId row = 0; row < input.NumRows(); ++row) {
    if (!gone[row]) post.AppendRow(input.Row(row));
  }
  for (const std::vector<std::string>& fields : delta.inserted) {
    DIVA_RETURN_IF_ERROR(post.AppendRowStrings(fields).status());
  }
  return post;
}

/// Churn deltas, one per Step(). With a reuse snapshot (>= 2
/// components) they chain through ApplyDelta: after each step the chain
/// carries its own post-delta relation forward with ReferenceApply and
/// checks that ApplyDelta worked on the same one, and Finish() checks
/// the last output against a cold run on that relation. Without a
/// snapshot every delta is a cold rerun anyway, so one fixed delta is
/// applied to the input and re-run each time. Untraced a step records a
/// `delta_s` sample (delta applied, re-anonymized and written), traced
/// the `core.delta_*` spans.
class DeltaChain {
 public:
  DeltaChain(const Workload& workload, const Relation& relation,
             const ConstraintSet& constraints,
             std::shared_ptr<const diva::PipelineSnapshot> snapshot,
             Recorder* recorder)
      : workload_(workload),
        constraints_(constraints),
        snapshot_(std::move(snapshot)),
        recorder_(recorder),
        current_(relation),
        rng_(42) {  // pinned like the instance: every run churns alike
    options_ = workload.options;
    options_.incremental = true;
    if (snapshot_ == nullptr) fixed_ = MakeDelta(relation, workload, &rng_);
  }

  /// One delta; false once the chain has failed.
  bool Step() {
    if (failed_) return false;
    const int run = static_cast<int>(steps_++);
    const DeltaBatch delta =
        snapshot_ != nullptr ? MakeDelta(current_, workload_, &rng_) : fixed_;
    recorder_->Attempt();
    ScopedSpan delta_span(recorder_, "delta", -1, run);
    const auto before = diva::counters::Snapshot();
    const double start = Now();
    std::optional<Relation> post;
    if (snapshot_ == nullptr || recorder_->tracing()) {
      ScopedSpan span(recorder_, "core.delta_apply", delta_span.id(), run);
      auto applied = diva::ApplyDeltaToRelation(current_, delta);
      if (!Check(applied.status(), "apply delta")) return false;
      post = std::move(applied).value();
    }
    auto result = [&] {
      ScopedSpan span(recorder_, "core.delta_rerun", delta_span.id(), run);
      return snapshot_ != nullptr
                 ? diva::ApplyDelta(*snapshot_, delta, options_)
                 : diva::RunDiva(*post, constraints_, options_);
    }();
    if (!Check(result.status(), "delta")) return false;
    if (!recorder_->tracing()) {
      if (!Check(WriteToMemory(result->relation), "write csv")) return false;
      recorder_->Sample("delta_s", Now() - start);
    }
    const auto counters =
        diva::counters::Delta(before, diva::counters::Snapshot());
    if (!result->report.audited) recorder_->Fail("delta output not audited");
    last_hash_ = HashRelation(result->relation);
    if (snapshot_ == nullptr) {
      recolored_ += result->report.shards;  // a cold run colors everything
      return true;
    }
    reused_ += CounterValue(counters, "incremental.shards_reused");
    recolored_ += CounterValue(counters, "incremental.shards_recolored");
    snapshot_ = result->snapshot;
    if (snapshot_ == nullptr || !snapshot_->input.has_value()) {
      recorder_->Fail("delta chain kept no reuse snapshot");
      failed_ = true;
      return false;
    }
    // Untimed: the post-delta relation as the delta defines it.
    auto reference = ReferenceApply(current_, delta);
    if (!Check(reference.status(), "reference apply")) return false;
    current_ = std::move(reference).value();
    if (HashRelation(current_) != HashRelation(*snapshot_->input)) {
      recorder_->Fail("ApplyDelta worked on a wrong post-delta relation");
      failed_ = true;
      return false;
    }
    return true;
  }

  void Finish() {
    if (steps_ == 0 || failed_) return;
    recorder_->Value("core.shards_reused",
                     static_cast<double>(reused_) / static_cast<double>(steps_));
    recorder_->Value("core.shards_recolored", static_cast<double>(recolored_) /
                                                  static_cast<double>(steps_));
    if (snapshot_ == nullptr) return;
    // Incremental output must be byte-identical to a cold run on the
    // post-delta relation the chain applied itself.
    recorder_->Attempt();
    auto cold = diva::RunDiva(current_, constraints_, workload_.options);
    if (recorder_->Ok(cold.status(), "cold rerun") &&
        HashRelation(cold->relation) != last_hash_) {
      recorder_->Fail("chained delta output differs from a cold run");
    }
  }

 private:
  bool Check(const Status& status, const std::string& what) {
    failed_ = !recorder_->Ok(status, what);
    return !failed_;
  }

  const Workload& workload_;
  const ConstraintSet& constraints_;
  std::shared_ptr<const diva::PipelineSnapshot> snapshot_;
  Recorder* recorder_;
  DivaOptions options_;
  Relation current_;
  Rng rng_;
  DeltaBatch fixed_;
  size_t steps_ = 0;
  bool failed_ = false;
  uint64_t last_hash_ = 0;
  uint64_t reused_ = 0;
  uint64_t recolored_ = 0;
};

}  // namespace

void MeasurePipeline(const Workload& workload, const Relation& relation,
                     const ConstraintSet& constraints, double seconds,
                     Recorder* recorder, const std::function<void()>& between) {
  // Warm-up run (untimed): fills the allocator and page cache, captures
  // the delta chain's reuse snapshot, and gives the output the checks
  // and quality figures are taken from. Later reps must match its bytes.
  uint64_t published = 0;
  std::optional<DeltaChain> chain;
  {
    DivaOptions capture = workload.options;
    capture.incremental = true;
    recorder->Attempt();
    auto warm = diva::RunDiva(relation, constraints, capture);
    if (!recorder->Ok(warm.status(), "RunDiva")) return;
    if (!warm->report.audited) recorder->Fail("output not audited");
    CheckPublished(relation, constraints, workload.options, *warm, recorder);
    published = HashRelation(warm->relation);
    const size_t components = warm->report.shards;
    recorder->Value("size.components", static_cast<double>(components));
    if (components >= 2 && warm->snapshot == nullptr) {
      recorder->Fail("capture run kept no reuse snapshot");
      return;
    }
    chain.emplace(workload, relation, constraints, warm->snapshot, recorder);
  }

  // Cold reps and deltas alternate, so both see the same machine; each
  // rep is followed by deltas for about as long as the rep took, so the
  // cheaper operation gets as much measured time as the dearer one.
  // After kMinReps, an iteration starts only if one as long as the last
  // still ends within `seconds`.
  const double stop = Now() + seconds;
  double last_iteration = 0.0;
  for (int rep = 0; rep < kMinReps || Now() + last_iteration <= stop; ++rep) {
    const double rep_start = Now();
    if (recorder->tracing()) {
      TracedRep(relation, constraints, workload.options, rep, recorder);
    } else {
      recorder->Attempt();
      const double start = Now();
      auto run = diva::RunDiva(relation, constraints, workload.options);
      if (!recorder->Ok(run.status(), "RunDiva") ||
          !recorder->Ok(WriteToMemory(run->relation), "write csv")) {
        return;
      }
      recorder->Sample("anonymize_s", Now() - start);
      if (!run->report.audited) recorder->Fail("output not audited");
      if (HashRelation(run->relation) != published) {
        recorder->Fail("published bytes differ across reps");
      }
    }
    const double deltas_until = 2 * Now() - rep_start;
    while (chain->Step() && Now() < deltas_until) {
    }
    if (between) between();
    last_iteration = Now() - rep_start;
  }
  chain->Finish();
}

namespace {

/// One set-up round: the workload's bytes read and parsed, timed as a
/// `setup_s` sample.
bool SetupRound(const Workload& workload, int round, Recorder* recorder,
                Relation* relation, ConstraintSet* constraints) {
  recorder->Attempt();
  ScopedSpan span(recorder, "setup", -1, round);
  const double start = Now();
  if (!recorder->Ok(LoadInputs(workload, recorder, span.id(), round, relation,
                               constraints),
                    "setup")) {
    return false;
  }
  recorder->Sample("setup_s", Now() - start);
  return true;
}

}  // namespace

void RunBatch(const Workload& workload, double seconds, uint64_t seed,
              Recorder* recorder) {
  Relation relation(workload.schema);
  ConstraintSet constraints;
  if (!SetupRound(workload, 0, recorder, &relation, &constraints)) return;
  recorder->Value("size.rows", static_cast<double>(relation.NumRows()));
  recorder->Value("size.constraints", static_cast<double>(constraints.size()));
  // Further set-up rounds run between the measured iterations, so set-up
  // is sampled across the whole run like the other metrics: rounds for
  // about a second each time (at least one), so a set-up far cheaper than
  // a rep still gets dozens of samples.
  int round = 1;
  MeasurePipeline(workload, relation, constraints, seconds, recorder, [&] {
    const double until = Now() + kSetupSeconds;
    do {
      Relation loaded(workload.schema);
      ConstraintSet parsed;
      if (!SetupRound(workload, round++, recorder, &loaded, &parsed)) return;
    } while (Now() < until);
  });
  if (recorder->tracing()) {
    RunServeProbe(workload, relation, constraints, seed, recorder);
  }
}

}  // namespace perfbench
