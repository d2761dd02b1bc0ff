#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the DIVA benchmark runner: the span recorder, the
// result recorder the runner prints as raw JSON, and the seeded
// workload generators. run.py turns the raw JSON into metrics.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/diva.h"
#include "core/incremental.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace perfbench {

using diva::ConstraintSet;
using diva::DeltaBatch;
using diva::DivaOptions;
using diva::Relation;
using diva::Rng;
using diva::Status;

/// Seconds on the one clock every span and sample uses.
double Now();

/// One closed span: a named interval, the span it ran inside (-1 at the
/// top level) and the run it belongs to (a rep, a setup round, a client).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = 0;
};

/// Everything one benchmark process measured. Spans stay in memory and
/// are written out with the rest when the run ends. Thread-safe: serve
/// clients record from their own threads.
class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace) {}

  bool tracing() const { return trace_; }

  /// Opens a span and returns its id (-1 when not tracing).
  int Open(const std::string& name, int parent, int run);
  void Close(int id);

  void Sample(const std::string& name, double value);
  void Value(const std::string& name, double value);
  void Attempt(uint64_t n = 1);
  /// Counts one failed operation or check; the run is then incorrect.
  void Fail(const std::string& what);
  /// Checks `status`; a non-OK one is a failure described by `what`.
  bool Ok(const Status& status, const std::string& what);

  /// The raw record as one JSON object.
  std::string ToJson() const;

 private:
  const bool trace_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// RAII span; a no-op when the recorder is not tracing.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* recorder, const std::string& name, int parent = -1,
             int run = 0)
      : recorder_(recorder), id_(recorder->Open(name, parent, run)) {}
  ~ScopedSpan() { recorder_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Recorder* recorder_;
  int id_;
};

/// How the serve-layer traffic of a workload is shaped.
struct ServeShape {
  size_t clients = 1;
  size_t pipeline_threads = 1;
  /// Request params of `anonymize` and `update` (k, seed, baseline).
  std::map<std::string, std::string> params;
};

/// One workload's generated inputs and run configuration. The program
/// sees only `schema`, `csv` and `sigma`, never the generator.
struct Workload {
  std::shared_ptr<const diva::Schema> schema;
  std::string csv;
  std::string sigma;
  DivaOptions options;
  /// Rows a delta deletes, and inserts (0.5% of the rows each, 1% churn
  /// in all; the row count stays constant).
  size_t delta_rows = 0;
  /// When >= 0, a delta touches only rows holding one of
  /// `delta_values` seeded values of this column, so churn stays inside
  /// a few conflict-graph components; -1 = uniform churn.
  int delta_column = -1;
  size_t delta_values = 0;
  /// Leading columns an inserted row takes from the deleted row it
  /// replaces; the rest come from a seeded row of the churn pool.
  size_t delta_keep_columns = 0;
  bool serve = false;
  ServeShape shape;
};

/// Builds the named workload's inputs from `seed`. Fails on an unknown
/// name.
[[nodiscard]] diva::Result<Workload> MakeWorkload(const std::string& name,
                                                  uint64_t seed);

/// Reads the workload's CSV bytes and parses its Sigma, recording the
/// `relation.read_csv` and `constraint.parse` spans under `parent`.
[[nodiscard]] Status LoadInputs(const Workload& workload, Recorder* recorder,
                                int parent, int run, Relation* relation,
                                ConstraintSet* constraints);

/// A churn delta over `current`: `workload.delta_rows` distinct seeded
/// deletes plus as many inserted rows built from the values of rows in
/// the workload's churn locality, so the row count, the dictionaries and
/// the component structure are all preserved.
DeltaBatch MakeDelta(const Relation& current, const Workload& workload,
                     Rng* rng);

/// Runs a batch workload: untraced, the end-to-end samples; traced,
/// the per-layer spans and counts plus a serve probe of its relation.
void RunBatch(const Workload& workload, double seconds, uint64_t seed,
              Recorder* recorder);

/// Runs the serve workload: set-up rounds, then the closed-loop mix for
/// `seconds` (traced: preceded by the per-layer replay of its base).
void RunServeWorkload(const Workload& workload, double seconds,
                      uint64_t seed, Recorder* recorder);

/// A short fixed sequence of every verb against an in-process server
/// over `base`, for the serve-layer spans of a batch workload.
void RunServeProbe(const Workload& workload, const Relation& base,
                   const ConstraintSet& constraints, uint64_t seed,
                   Recorder* recorder);

/// The pipeline measurement of a workload for `seconds`: one untimed
/// warm-up run, then cold reps, each followed by churn deltas for about
/// as long as the rep took (at least one) and a call of `between`: at
/// least 2 reps, and more while another iteration as long as the last
/// ends within `seconds`. Untraced, it records
/// `anonymize_s` and `delta_s` samples; traced, each rep also replays
/// the run through the layers' public calls in spans, and must reproduce
/// RunDiva's coloring and bytes.
void MeasurePipeline(const Workload& workload, const Relation& relation,
                     const ConstraintSet& constraints, double seconds,
                     Recorder* recorder,
                     const std::function<void()>& between = {});

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
