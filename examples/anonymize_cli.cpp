// anonymize_cli — command-line (k, Sigma)-anonymization tool.
//
// Reads a CSV relation, a schema declaration, and a diversity-constraint
// file; runs DIVA (or one of the baseline k-anonymizers) and writes the
// anonymized CSV plus a quality report.
//
// Usage:
//   anonymize_cli --input data.csv --schema schema.txt --k 10
//       [--constraints sigma.txt] [--algorithm diva|kmember|oka|mondrian]
//       [--strategy basic|minchoice|maxfanout] [--seed N]
//       [--taxonomy ATTR=taxonomy.txt]... [--json]
//       [--strict] [--deadline-ms N] [--trace-out trace.json]
//       [--apply-delta delta.txt] [--output out.csv]
//
// --apply-delta FILE (DIVA only) re-anonymizes incrementally: the run on
// --input captures a reusable snapshot, FILE's row delta is applied to
// it, and only the conflict-graph components the delta touches are
// re-colored — clean components adopt the prior run's clusterings. The
// published output is byte-identical to a cold run on the post-delta
// relation (core/incremental.h). Delta file format: one directive per
// line — "- <row_id>" deletes a row of the input CSV (0-based),
// "+ v1,v2,..." inserts a row ("*" = suppressed cell); '#' comments and
// blank lines are ignored.
//
// Multi-component instances color each conflict-graph component as its
// own work item; DIVA_THREADS decides how many run at once, and output
// bytes never depend on it (see docs/development.md, "Component
// sharding").
//
// --deadline-ms N bounds the run's wall time: on expiry DIVA publishes
// its best-effort (still k-anonymous) relation and flags the degraded
// phases in the report; with --strict expiry is an error. Equivalent to
// the DIVA_DEADLINE_MS environment knob, which it overrides.
//
// --trace-out FILE enables span tracing for the run and writes a
// Chrome-trace JSON (open in ui.perfetto.dev or chrome://tracing) with
// one span per pipeline phase and per pool chunk; see "Observability"
// in docs/development.md. A traced DIVA run also turns on the self-audit
// so the trace covers all five phases (clustering, suppress, anonymize,
// integrate, audit). Without the flag, tracing stays off and costs one
// relaxed atomic load per span site.
//
// Schema file: one attribute per line, "NAME,role,kind" where role is
// id|qi|sensitive and kind is cat|num. Example:
//   GEN,qi,cat
//   AGE,qi,num
//   DIAG,sensitive,cat
//
// Constraint file: one constraint per line, e.g. "ETH[Asian] in [2,5]"
// ('#' comments allowed).

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "anon/anonymizer.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "constraint/analysis.h"
#include "constraint/parser.h"
#include "core/diva.h"
#include "core/incremental.h"
#include "core/report_json.h"
#include "hierarchy/generalize.h"
#include "examples/example_util.h"
#include "metrics/metrics.h"
#include "relation/csv.h"
#include "relation/qi_groups.h"

namespace {

using namespace diva;            // NOLINT: example brevity
using namespace diva::examples;  // NOLINT

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

Result<std::shared_ptr<const Schema>> LoadSchema(const std::string& path) {
  std::ifstream input(path);
  if (!input) return Status::IoError("cannot open schema file: " + path);
  std::vector<Attribute> attributes;
  std::string line;
  size_t line_number = 0;
  while (std::getline(input, line)) {
    ++line_number;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    auto parts = Split(trimmed, ',');
    if (parts.size() != 3) {
      return Status::InvalidArgument(
          "schema line " + std::to_string(line_number) +
          ": expected NAME,role,kind");
    }
    Attribute attribute;
    attribute.name = std::string(Trim(parts[0]));
    std::string role = ToLowerAscii(Trim(parts[1]));
    std::string kind = ToLowerAscii(Trim(parts[2]));
    if (role == "id" || role == "identifier") {
      attribute.role = AttributeRole::kIdentifier;
    } else if (role == "qi" || role == "quasi-identifier") {
      attribute.role = AttributeRole::kQuasiIdentifier;
    } else if (role == "sensitive") {
      attribute.role = AttributeRole::kSensitive;
    } else {
      return Status::InvalidArgument("unknown role '" + role + "' on line " +
                                     std::to_string(line_number));
    }
    if (kind == "num" || kind == "numeric") {
      attribute.kind = AttributeKind::kNumeric;
    } else if (kind == "cat" || kind == "categorical") {
      attribute.kind = AttributeKind::kCategorical;
    } else {
      return Status::InvalidArgument("unknown kind '" + kind + "' on line " +
                                     std::to_string(line_number));
    }
    attributes.push_back(std::move(attribute));
  }
  return Schema::Make(std::move(attributes));
}

}  // namespace

int main(int argc, char** argv) {
  // ^C degrades the run through the anytime pipeline and still flushes
  // the partial report; a dead pager/pipe is a write error, not SIGPIPE.
  InstallSignalHygiene();
  std::map<std::string, std::string> args;
  std::vector<std::string> taxonomy_specs;  // repeated ATTR=path pairs
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--json") {
      args["json"] = "1";
    } else if (arg == "--taxonomy" && i + 1 < argc) {
      taxonomy_specs.emplace_back(argv[++i]);
    } else if (StartsWith(arg, "--") &&
               arg.find('=') != std::string::npos) {
      // --key=value form (e.g. --trace-out=t.json).
      size_t eq = arg.find('=');
      args[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (StartsWith(arg, "--") && i + 1 < argc) {
      args[arg.substr(2)] = argv[++i];
    } else {
      return Fail("unexpected argument '" + arg + "' (see file header)");
    }
  }
  if (!args.count("input") || !args.count("schema") || !args.count("k")) {
    return Fail("--input, --schema and --k are required (see file header)");
  }

  auto schema = LoadSchema(args["schema"]);
  if (!schema.ok()) return Fail(schema.status().ToString());

  auto relation = ReadCsvFile(args["input"], *schema);
  if (!relation.ok()) return Fail(relation.status().ToString());

  auto k = ParseInt64(args["k"]);
  if (!k.ok() || *k < 1) return Fail("--k must be a positive integer");

  ConstraintSet constraints;
  if (args.count("constraints")) {
    auto loaded = LoadConstraintSet(**schema, args["constraints"]);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    constraints = std::move(loaded).value();
  }

  uint64_t seed = 42;
  if (args.count("seed")) {
    auto parsed = ParseInt64(args["seed"]);
    if (!parsed.ok()) return Fail("--seed must be an integer");
    seed = static_cast<uint64_t>(*parsed);
  }

  // Optional per-attribute taxonomies (LCA generalization instead of *).
  std::shared_ptr<GeneralizationContext> generalization;
  if (!taxonomy_specs.empty()) {
    generalization =
        std::make_shared<GeneralizationContext>((*schema)->NumAttributes());
    for (const std::string& spec : taxonomy_specs) {
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return Fail("--taxonomy expects ATTR=path, got '" + spec + "'");
      }
      auto attr = (*schema)->IndexOf(spec.substr(0, eq));
      if (!attr.has_value()) {
        return Fail("--taxonomy references unknown attribute '" +
                    spec.substr(0, eq) + "'");
      }
      std::ifstream taxonomy_file(spec.substr(eq + 1));
      if (!taxonomy_file) {
        return Fail("cannot open taxonomy file '" + spec.substr(eq + 1) +
                    "'");
      }
      std::ostringstream buffer;
      buffer << taxonomy_file.rdbuf();
      auto taxonomy = Taxonomy::FromText(buffer.str());
      if (!taxonomy.ok()) return Fail(taxonomy.status().ToString());
      generalization->SetTaxonomy(*attr, std::move(taxonomy).value());
    }
  }

  // Pre-flight lint: warn about constraints no algorithm can satisfy.
  for (const ConstraintIssue& issue :
       AnalyzeConstraintSet(*relation, constraints,
                            static_cast<size_t>(*k))) {
    std::fprintf(stderr, "warning [%s]: %s\n",
                 ConstraintIssueKindToString(issue.kind),
                 issue.message.c_str());
  }

  std::string algorithm =
      args.count("algorithm") ? ToLowerAscii(args["algorithm"]) : "diva";

  const bool tracing = args.count("trace-out") != 0;
  if (tracing) trace::Enable();

  Relation output((*schema));
  if (algorithm == "diva") {
    DivaOptions options;
    options.k = static_cast<size_t>(*k);
    options.seed = seed;
    options.strict = strict;
    options.generalization = generalization;
    options.cancel = InterruptToken();
    // A traced run audits too, so the trace shows every pipeline phase.
    if (tracing) options.audit = true;
    if (args.count("deadline-ms")) {
      auto deadline_ms = ParseInt64(args["deadline-ms"]);
      if (!deadline_ms.ok() || *deadline_ms < 0) {
        return Fail("--deadline-ms must be a non-negative integer");
      }
      options.deadline_ms = *deadline_ms;
    }
    std::string strategy =
        args.count("strategy") ? ToLowerAscii(args["strategy"]) : "maxfanout";
    if (strategy == "basic") {
      options.strategy = SelectionStrategy::kBasic;
    } else if (strategy == "minchoice") {
      options.strategy = SelectionStrategy::kMinChoice;
    } else if (strategy == "maxfanout") {
      options.strategy = SelectionStrategy::kMaxFanOut;
    } else {
      return Fail("unknown --strategy '" + strategy + "'");
    }
    options.incremental = args.count("apply-delta") != 0;
    auto result = RunDiva(*relation, constraints, options);
    if (!result.ok()) return Fail(result.status().ToString());
    if (args.count("apply-delta")) {
      std::ifstream delta_file(args["apply-delta"]);
      if (!delta_file) {
        return Fail("cannot open delta file '" + args["apply-delta"] + "'");
      }
      std::ostringstream delta_text;
      delta_text << delta_file.rdbuf();
      auto delta = ParseDeltaFile(delta_text.str());
      if (!delta.ok()) return Fail(delta.status().ToString());
      if (result->snapshot == nullptr) {
        return Fail(
            "the prior run captured no reusable snapshot (single-component, "
            "generalized, or degraded runs cannot replay deltas)");
      }
      auto replayed = ApplyDelta(*result->snapshot, *delta, options);
      if (!replayed.ok()) return Fail(replayed.status().ToString());
      std::fprintf(stderr, "applied delta: -%zu +%zu rows\n",
                   delta->deleted.size(), delta->inserted.size());
      result = std::move(replayed);
    }
    if (args.count("json")) {
      std::printf("%s\n", ReportToJson(result->report).c_str());
    } else {
      PrintReport(result->report);
    }
    output = std::move(result->relation);
  } else {
    AnonymizerOptions anon_options;
    anon_options.seed = seed;
    std::unique_ptr<Anonymizer> anonymizer;
    if (algorithm == "kmember") {
      anonymizer = MakeKMember(anon_options);
    } else if (algorithm == "oka") {
      anonymizer = MakeOka(anon_options);
    } else if (algorithm == "mondrian") {
      anonymizer = MakeMondrian(anon_options);
    } else {
      return Fail("unknown --algorithm '" + algorithm + "'");
    }
    auto result =
        Anonymize(anonymizer.get(), *relation, static_cast<size_t>(*k));
    if (!result.ok()) return Fail(result.status().ToString());
    output = std::move(result).value();
  }

  if (tracing) {
    trace::Disable();
    Status written = trace::WriteChromeTrace(args["trace-out"]);
    if (!written.ok()) return Fail(written.ToString());
    std::fprintf(stderr, "wrote trace %s (%llu event(s) dropped)\n",
                 args["trace-out"].c_str(),
                 static_cast<unsigned long long>(trace::DroppedEvents()));
  }

  if (!IsKAnonymous(output, static_cast<size_t>(*k))) {
    return Fail("internal: output is not k-anonymous");
  }
  if (Interrupted()) {
    std::fprintf(stderr,
                 "interrupted: flushing the best-effort (still k-anonymous) "
                 "result\n");
  }
  PrintQuality(output, static_cast<size_t>(*k), constraints);

  if (args.count("output")) {
    Status written = WriteCsvFile(output, args["output"]);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("wrote %s\n", args["output"].c_str());
  } else {
    std::ostringstream buffer;
    DIVA_CHECK(WriteCsv(output, buffer).ok());
    std::fputs(buffer.str().c_str(), stdout);
  }
  return 0;
}
