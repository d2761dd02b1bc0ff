#ifndef DIVA_TESTS_TEST_UTIL_H_
#define DIVA_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "constraint/diversity_constraint.h"
#include "constraint/generator.h"
#include "constraint/parser.h"
#include "datagen/synthetic.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace diva {
namespace testing {

/// Schema of the paper's running example (Table 1): GEN, ETH, AGE, PRV,
/// CTY are quasi-identifiers, DIAG is sensitive.
inline std::shared_ptr<const Schema> MedicalSchema() {
  auto schema = Schema::Make({
      {"GEN", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"ETH", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"AGE", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"PRV", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"CTY", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"DIAG", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK(schema.ok());
  return schema.value();
}

/// The paper's Table 1. Row ids 0..9 correspond to tuples t1..t10.
inline Relation MedicalRelation() {
  auto relation = RelationFromRows(
      MedicalSchema(),
      {
          {"Female", "Caucasian", "80", "AB", "Calgary", "Hypertension"},
          {"Female", "Caucasian", "32", "AB", "Calgary", "Tuberculosis"},
          {"Male", "Caucasian", "59", "AB", "Calgary", "Osteoarthritis"},
          {"Male", "Caucasian", "46", "MB", "Winnipeg", "Migraine"},
          {"Male", "African", "32", "MB", "Winnipeg", "Hypertension"},
          {"Male", "African", "43", "BC", "Vancouver", "Seizure"},
          {"Male", "Caucasian", "35", "BC", "Vancouver", "Hypertension"},
          {"Female", "Asian", "58", "BC", "Vancouver", "Seizure"},
          {"Female", "Asian", "63", "MB", "Winnipeg", "Influenza"},
          {"Female", "Asian", "71", "BC", "Vancouver", "Migraine"},
      });
  DIVA_CHECK(relation.ok());
  return std::move(relation).value();
}

/// The paper's example constraints (Example 3.1):
///   s1 = (ETH[Asian], 2, 5), s2 = (ETH[African], 1, 3),
///   s3 = (CTY[Vancouver], 2, 4).
inline ConstraintSet MedicalConstraints(const Schema& schema) {
  auto constraints = ParseConstraintSet(schema,
                                        "ETH[Asian] in [2,5]\n"
                                        "ETH[African] in [1,3]\n"
                                        "CTY[Vancouver] in [2,4]\n");
  DIVA_CHECK(constraints.ok());
  return std::move(constraints).value();
}

/// Parses one constraint or aborts (test convenience).
inline DiversityConstraint MustParse(const Schema& schema,
                                     std::string_view text) {
  auto constraint = ParseConstraint(schema, text);
  DIVA_CHECK_MSG(constraint.ok(), constraint.status().ToString());
  return std::move(constraint).value();
}

struct FuzzWorkload {
  Relation relation;
  ConstraintSet constraints;
  size_t k;
};

/// Builds a random small workload from a fuzz seed: 20-220 rows, 2-4
/// categorical QI attributes with random domains and skews, an optional
/// numeric attribute, one sensitive attribute, 0-6 generated constraints,
/// k in [2, 8]. Shared by the fuzz-property and differential tests so
/// both suites draw instances from the identical seed -> workload map.
inline FuzzWorkload MakeWorkload(uint64_t fuzz_seed) {
  Rng rng(fuzz_seed);
  SyntheticSpec spec;
  spec.num_rows = 20 + static_cast<size_t>(rng.NextBounded(200));
  spec.seed = rng.Next();
  spec.num_latent_classes = 2 + static_cast<size_t>(rng.NextBounded(12));
  spec.latent_skew = rng.UniformDouble() * 1.5;

  size_t num_qi = 2 + static_cast<size_t>(rng.NextBounded(3));
  for (size_t i = 0; i < num_qi; ++i) {
    AttributeSpec attr;
    attr.name = NumberedLabel("Q", i);
    attr.domain_size = 2 + static_cast<size_t>(rng.NextBounded(9));
    attr.distribution = static_cast<ValueDistribution>(rng.NextBounded(3));
    attr.zipf_skew = 0.5 + rng.UniformDouble();
    attr.correlation = rng.UniformDouble() * 0.5;
    spec.attributes.push_back(attr);
  }
  if (rng.NextBounded(2) == 0) {
    AttributeSpec numeric;
    numeric.name = "NUM";
    numeric.kind = AttributeKind::kNumeric;
    numeric.domain_size = 5 + static_cast<size_t>(rng.NextBounded(40));
    numeric.numeric_base = static_cast<int64_t>(rng.NextBounded(100));
    numeric.distribution = ValueDistribution::kGaussian;
    spec.attributes.push_back(numeric);
  }
  AttributeSpec sensitive;
  sensitive.name = "S";
  sensitive.role = AttributeRole::kSensitive;
  sensitive.domain_size = 2 + static_cast<size_t>(rng.NextBounded(6));
  spec.attributes.push_back(sensitive);

  auto relation = GenerateSynthetic(spec);
  DIVA_CHECK_MSG(relation.ok(), relation.status().ToString());

  size_t k = 2 + static_cast<size_t>(rng.NextBounded(7));

  ConstraintGenOptions gen;
  gen.count = static_cast<size_t>(rng.NextBounded(7));
  gen.min_support = 2;
  gen.slack = 0.1 + rng.UniformDouble() * 0.5;
  gen.kind = static_cast<ConstraintClass>(rng.NextBounded(3));
  gen.seed = rng.Next();
  if (rng.NextBounded(2) == 0) {
    gen.target_conflict = rng.UniformDouble();
  }
  ConstraintSet constraints;
  auto generated = GenerateConstraints(*relation, gen);
  if (generated.ok()) constraints = std::move(generated).value();

  return {std::move(relation).value(), std::move(constraints), k};
}

}  // namespace testing
}  // namespace diva

#endif  // DIVA_TESTS_TEST_UTIL_H_
