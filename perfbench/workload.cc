#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "bench.h"
#include "common/parallel.h"
#include "constraint/generator.h"
#include "constraint/parser.h"
#include "datagen/profiles.h"
#include "relation/csv.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Recorder::Open(const std::string& name, int parent, int run) {
  if (!trace_) return -1;
  const double start = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, start, parent, run});
  return static_cast<int>(spans_.size() - 1);
}

void Recorder::Close(int id) {
  if (id < 0) return;
  const double end = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end = end;
}

void Recorder::Sample(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_[name].push_back(value);
}

void Recorder::Value(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_[name] = value;
}

void Recorder::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += n;
}

void Recorder::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(what);
}

bool Recorder::Ok(const Status& status, const std::string& what) {
  if (status.ok()) return true;
  Fail(what + ": " + status.ToString());
  return false;
}

namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string Recorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + Quote(failures_[i]);
  }
  out += "], \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : samples_) {
    out += (first ? "" : ", ") + Quote(name) + ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i ? ", " : "") + Number(values[i]);
    }
    out += "]";
    first = false;
  }
  out += "}, \"values\": {";
  first = true;
  for (const auto& [name, value] : values_) {
    out += (first ? "" : ", ") + Quote(name) + ": " + Number(value);
    first = false;
  }
  out += "}, \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out += (i ? ",\n" : "\n") + std::string("{\"name\": ") +
           Quote(span.name) + ", \"start\": " + Number(span.start) +
           ", \"end\": " + Number(span.end) +
           ", \"parent\": " + std::to_string(span.parent) +
           ", \"run\": " + std::to_string(span.run) + "}";
  }
  return out + "]}";
}

namespace {

using diva::AttributeKind;
using diva::AttributeRole;
using diva::ValueCode;

/// The pinned instance behind a workload, before rendering.
struct Instance {
  Relation relation;
  ConstraintSet constraints;
};

/// bench_scale's component-structured shape, scaled: REGION r has two
/// GROUPs, and the three constraints written per region (one on it, one
/// on each group) touch only that region's rows, so the conflict graph
/// has exactly `regions` components. Each lower bound keeps 70% of its
/// value's occurrences, so every component does real selection work.
/// AGE, JOB and DIAG are noise drawn from bench_scale's pinned seed.
diva::Result<Instance> ComponentInstance(size_t rows, size_t regions) {
  DIVA_ASSIGN_OR_RETURN(
      std::shared_ptr<const diva::Schema> schema,
      diva::Schema::Make({
          {"REGION", AttributeRole::kQuasiIdentifier,
           AttributeKind::kCategorical},
          {"GROUP", AttributeRole::kQuasiIdentifier,
           AttributeKind::kCategorical},
          {"AGE", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
          {"JOB", AttributeRole::kQuasiIdentifier,
           AttributeKind::kCategorical},
          {"DIAG", AttributeRole::kSensitive, AttributeKind::kCategorical},
      }));
  constexpr size_t kAges = 60;
  constexpr size_t kJobs = 40;
  constexpr size_t kDiagnoses = 8;
  constexpr uint64_t kK = 10;

  Relation relation(schema);
  std::vector<uint64_t> region_count(regions, 0);
  std::vector<uint64_t> group_count(2 * regions, 0);
  Rng rng(1000);
  for (size_t i = 0; i < rows; ++i) {
    const size_t region = i % regions;
    const size_t group = 2 * region + (i / regions) % 2;
    ++region_count[region];
    ++group_count[group];
    const ValueCode row[] = {
        relation.Encode(0, "r" + std::to_string(region)),
        relation.Encode(1, "g" + std::to_string(group)),
        relation.Encode(2, std::to_string(18 + rng.NextBounded(kAges))),
        relation.Encode(3, "j" + std::to_string(rng.NextBounded(kJobs))),
        relation.Encode(4, "d" + std::to_string(rng.NextBounded(kDiagnoses))),
    };
    relation.AppendRow(row);
  }

  auto lower = [=](uint64_t count) {
    return std::max<uint64_t>(count * 7 / 10, kK);
  };
  std::string sigma;
  for (size_t r = 0; r < regions; ++r) {
    sigma += "REGION[r" + std::to_string(r) + "] in [" +
             std::to_string(lower(region_count[r])) + "," +
             std::to_string(region_count[r]) + "]\n";
    for (size_t g = 2 * r; g < 2 * r + 2; ++g) {
      sigma += "GROUP[g" + std::to_string(g) + "] in [" +
               std::to_string(lower(group_count[g])) + "," +
               std::to_string(group_count[g]) + "]\n";
    }
  }
  DIVA_ASSIGN_OR_RETURN(ConstraintSet constraints,
                        diva::ParseConstraintSet(*schema, sigma));
  return Instance{std::move(relation), std::move(constraints)};
}

/// The configuration generate_workload + anonymize_cli give a user: the
/// Pop-Syn profile with its default-size proportional Sigma, drawn with
/// generate_workload's default seed.
diva::Result<Instance> PopSynInstance(size_t rows) {
  constexpr uint64_t kSeed = 42;
  diva::ProfileOptions profile;
  profile.num_rows = rows;
  profile.seed = kSeed;
  DIVA_ASSIGN_OR_RETURN(
      Relation relation,
      diva::GenerateProfile(diva::DatasetProfile::kPopSyn, profile));
  diva::ConstraintGenOptions gen;
  gen.count = diva::DefaultConstraintCount(diva::DatasetProfile::kPopSyn);
  gen.min_support = 8;
  gen.seed = kSeed;
  DIVA_ASSIGN_OR_RETURN(ConstraintSet constraints,
                        diva::GenerateConstraints(relation, gen));
  return Instance{std::move(relation), std::move(constraints)};
}

/// Renders the pinned instance as the program's inputs, relabeled by
/// `seed`: each categorical attribute's value names are permuted. The
/// program assigns codes in order of first occurrence, so every seed is
/// the same instance to it, in different bytes. Instances are pinned
/// because the search cost of different draws varies up to threefold
/// (the coloring is an NP-hard search), which no run length averages.
diva::Result<Workload> Render(const Instance& instance, uint64_t seed) {
  const Relation& relation = instance.relation;
  const diva::Schema& schema = relation.schema();
  Rng rng(seed);
  std::vector<std::vector<std::string>> names(relation.NumAttributes());
  for (size_t col = 0; col < names.size(); ++col) {
    const diva::Attribute& attribute = schema.attributes()[col];
    if (attribute.kind != AttributeKind::kCategorical ||
        attribute.role == AttributeRole::kIdentifier) {
      continue;
    }
    const diva::Dictionary& dictionary = relation.dictionary(col);
    for (size_t code = 0; code < dictionary.size(); ++code) {
      names[col].push_back(dictionary.ValueOf(static_cast<ValueCode>(code)));
    }
    for (size_t i = names[col].size(); i > 1; --i) {
      std::swap(names[col][i - 1], names[col][rng.NextBounded(i)]);
    }
  }
  auto name = [&](size_t col, ValueCode code) {
    return names[col].empty() ? relation.dictionary(col).ValueOf(code)
                              : names[col][code];
  };

  Workload workload;
  workload.schema = relation.schema_ptr();
  // bench_incremental's 1% churn: 0.5% of the rows deleted, as many
  // inserted.
  workload.delta_rows = std::max<size_t>(relation.NumRows() / 200, 1);
  for (size_t col = 0; col < names.size(); ++col) {
    if (col > 0) workload.csv += ',';
    workload.csv += schema.attributes()[col].name;
  }
  workload.csv += '\n';
  for (diva::RowId row = 0; row < relation.NumRows(); ++row) {
    for (size_t col = 0; col < names.size(); ++col) {
      if (col > 0) workload.csv += ',';
      workload.csv += name(col, relation.At(row, col));
    }
    workload.csv += '\n';
  }
  for (const auto& constraint : instance.constraints) {
    std::vector<std::string> values;
    for (size_t i = 0; i < constraint.values().size(); ++i) {
      const size_t col = constraint.attribute_indices()[i];
      values.push_back(
          name(col, *relation.FindCode(col, constraint.values()[i])));
    }
    DIVA_ASSIGN_OR_RETURN(
        diva::DiversityConstraint relabeled,
        diva::DiversityConstraint::Make(schema, constraint.attribute_names(),
                                        values, constraint.lower(),
                                        constraint.upper()));
    workload.sigma += relabeled.ToString() + "\n";
  }
  return workload;
}

}  // namespace

diva::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload workload;
  diva::BaselineAlgorithm baseline = diva::BaselineAlgorithm::kMondrian;
  if (name == "batch_default") {
    DIVA_ASSIGN_OR_RETURN(Instance instance, PopSynInstance(60000));
    DIVA_ASSIGN_OR_RETURN(workload, Render(instance, seed));
    baseline = diva::BaselineAlgorithm::kKMember;
  } else if (name == "batch_sharded") {
    DIVA_ASSIGN_OR_RETURN(Instance instance, ComponentInstance(1000000, 64));
    DIVA_ASSIGN_OR_RETURN(workload, Render(instance, seed));
  } else if (name == "serve_mixed") {
    DIVA_ASSIGN_OR_RETURN(Instance instance, ComponentInstance(4000, 8));
    DIVA_ASSIGN_OR_RETURN(workload, Render(instance, seed));
    workload.serve = true;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  if (name != "batch_default") {
    // bench_incremental's churn locality: 2 regions, and each inserted
    // row keeps the REGION and GROUP of the row it replaces, so every
    // constraint's occurrence count is restored.
    workload.delta_column = 0;
    workload.delta_values = 2;
    workload.delta_keep_columns = 2;
  }
  workload.options.baseline = baseline;
  workload.shape.params["baseline"] =
      baseline == diva::BaselineAlgorithm::kKMember ? "kmember" : "mondrian";
  const size_t width = diva::HardwareConcurrency();
  workload.options.k = 10;
  workload.options.strategy = diva::SelectionStrategy::kMaxFanOut;
  workload.options.anonymizer.sample_size = 0;  // exact k-member
  workload.options.audit = true;
  workload.options.deadline_ms = 0;
  workload.options.threads = width;

  workload.shape.params["k"] = std::to_string(workload.options.k);
  workload.shape.params["seed"] = std::to_string(workload.options.seed);
  if (workload.serve) {
    // Two closed-loop clients, one request in flight each, against the
    // server's two session workers, whose pipelines run single-threaded.
    workload.shape.clients = 2;
    workload.shape.pipeline_threads = 1;
    workload.options.threads = 1;
  } else if (name == "batch_default") {
    // One component, so the global coloring search runs, and on a wider
    // pool it speculates: how much speculative work is adopted depends
    // on thread scheduling, and at width 2 or 4 the same input took
    // 2.3-4.9 s from one rep to the next. At width 1 the search is
    // sequential, and a rep's time is the program's work alone.
    workload.shape.clients = 1;
    workload.shape.pipeline_threads = 1;
    workload.options.threads = 1;
  } else {
    workload.shape.clients = 1;
    workload.shape.pipeline_threads = width;
  }
  return workload;
}

Status LoadInputs(const Workload& workload, Recorder* recorder, int parent,
                  int run, Relation* relation, ConstraintSet* constraints) {
  {
    ScopedSpan span(recorder, "relation.read_csv", parent, run);
    std::istringstream input(workload.csv);
    DIVA_ASSIGN_OR_RETURN(*relation, diva::ReadCsv(input, workload.schema));
  }
  ScopedSpan span(recorder, "constraint.parse", parent, run);
  DIVA_ASSIGN_OR_RETURN(*constraints, diva::ParseConstraintSet(
                                          relation->schema(), workload.sigma));
  return Status::OK();
}

DeltaBatch MakeDelta(const Relation& current, const Workload& workload,
                     Rng* rng) {
  const size_t n = current.NumRows();
  std::vector<diva::RowId> pool;
  if (workload.delta_column >= 0) {
    const auto col = static_cast<size_t>(workload.delta_column);
    std::unordered_set<ValueCode> hot;
    while (hot.size() < workload.delta_values) {
      hot.insert(current.At(static_cast<diva::RowId>(rng->NextBounded(n)), col));
    }
    for (diva::RowId row = 0; row < n; ++row) {
      if (hot.count(current.At(row, col))) pool.push_back(row);
    }
  } else {
    pool.resize(n);
    for (size_t i = 0; i < n; ++i) pool[i] = static_cast<diva::RowId>(i);
  }
  const size_t rows = std::min(workload.delta_rows, pool.size());
  DeltaBatch delta;
  std::unordered_set<diva::RowId> chosen;
  while (chosen.size() < rows) {
    chosen.insert(pool[rng->NextBounded(pool.size())]);
  }
  delta.deleted.assign(chosen.begin(), chosen.end());
  std::sort(delta.deleted.begin(), delta.deleted.end());
  for (size_t i = 0; i < rows; ++i) {
    const diva::RowId source = pool[rng->NextBounded(pool.size())];
    std::vector<std::string> fields(current.NumAttributes());
    for (size_t col = 0; col < fields.size(); ++col) {
      fields[col] = current.ValueString(
          col < workload.delta_keep_columns ? delta.deleted[i] : source, col);
    }
    delta.inserted.push_back(std::move(fields));
  }
  return delta;
}

}  // namespace perfbench
