// Oracle for KMemberAnonymizer: a row-at-a-time reference of the greedy
// k-member algorithm, written out here from Relation::At and
// Dictionary::NumericValueOf, must produce the same clusters in the same
// order as the packed implementation, at every pool width and in both
// the exact and the sampled mode.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "anon/anonymizer.h"
#include "anon/kmember.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace diva {
namespace {

/// Mixed QIs over small domains (many duplicate QI projections, so
/// ties), with about 4% of the QI cells suppressed.
Relation OracleRelation(size_t rows, uint64_t seed) {
  auto schema = Schema::Make({
      {"GEN", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"AGE", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"DIAG", AttributeRole::kSensitive, AttributeKind::kCategorical},
      {"ETH", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"INCOME", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
  });
  EXPECT_TRUE(schema.ok());
  Rng rng(seed);
  auto cell = [&](std::string value) {
    return rng.NextBounded(25) == 0 ? std::string("*") : value;
  };
  std::vector<std::vector<std::string>> data;
  for (size_t r = 0; r < rows; ++r) {
    data.push_back({
        cell(rng.NextBounded(2) == 0 ? "F" : "M"),
        cell(std::to_string(20 + 5 * rng.NextBounded(6))),
        NumberedLabel("d", rng.NextBounded(4)),
        cell(NumberedLabel("e", rng.NextBounded(3))),
        cell(std::to_string(1000 * (1 + rng.NextBounded(4)))),
    });
  }
  auto relation = RelationFromRows(*schema, data);
  EXPECT_TRUE(relation.ok());
  return std::move(relation).value();
}

/// The row-at-a-time distance: Hamming on categorical QIs, |a - b| /
/// range on numeric ones, 1 for any suppressed cell.
class ReferenceMetric {
 public:
  explicit ReferenceMetric(const Relation& relation)
      : relation_(relation), inv_range_(relation.NumAttributes(), -1.0) {
    for (size_t col : relation.schema().qi_indices()) {
      const Dictionary& dict = relation.dictionary(col);
      if (relation.schema().attribute(col).kind != AttributeKind::kNumeric ||
          !dict.AllNumeric()) {
        continue;
      }
      double lo = *dict.NumericValueOf(0);
      double hi = lo;
      for (size_t code = 1; code < dict.size(); ++code) {
        double v = *dict.NumericValueOf(static_cast<ValueCode>(code));
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      inv_range_[col] = hi > lo ? 1.0 / (hi - lo) : 0.0;
    }
  }

  double Distance(RowId a, RowId b) const {
    double total = 0.0;
    for (size_t col : relation_.schema().qi_indices()) {
      ValueCode ca = relation_.At(a, col);
      ValueCode cb = relation_.At(b, col);
      if (ca == cb) {
        if (ca == kSuppressed) total += 1.0;
        continue;
      }
      if (ca == kSuppressed || cb == kSuppressed) {
        total += 1.0;
        continue;
      }
      if (inv_range_[col] < 0.0) {
        total += 1.0;
        continue;
      }
      const Dictionary& dict = relation_.dictionary(col);
      total += std::fabs(*dict.NumericValueOf(ca) - *dict.NumericValueOf(cb)) *
               inv_range_[col];
    }
    return total;
  }

 private:
  const Relation& relation_;
  std::vector<double> inv_range_;  // -1 for a categorical measure
};

/// The cluster's shared QI codes, kSuppressed once an attribute diverged.
struct ReferenceCluster {
  std::vector<ValueCode> common;
  size_t size = 0;
  size_t divergent = 0;

  ReferenceCluster(const Relation& relation, RowId seed) : size(1) {
    for (size_t col : relation.schema().qi_indices()) {
      common.push_back(relation.At(seed, col));
      if (common.back() == kSuppressed) ++divergent;
    }
  }

  size_t CostIncrease(const Relation& relation, RowId row) const {
    const auto& qi = relation.schema().qi_indices();
    size_t next = divergent;
    for (size_t i = 0; i < qi.size(); ++i) {
      if (common[i] != kSuppressed && relation.At(row, qi[i]) != common[i]) {
        ++next;
      }
    }
    return (size + 1) * next - size * divergent;
  }

  void Add(const Relation& relation, RowId row) {
    const auto& qi = relation.schema().qi_indices();
    for (size_t i = 0; i < qi.size(); ++i) {
      if (common[i] != kSuppressed && relation.At(row, qi[i]) != common[i]) {
        common[i] = kSuppressed;
        ++divergent;
      }
    }
    ++size;
  }
};

/// The greedy k-member of Byun et al. over a swap-with-back pool: the
/// same RNG draws, strict > for the furthest seed, strict < for the
/// cheapest addition, leftovers taken from the back.
Clustering ReferenceKMember(const Relation& relation,
                            std::vector<RowId> pool, size_t k,
                            uint64_t seed, size_t sample_size) {
  const ReferenceMetric metric(relation);
  Rng rng(seed);
  auto take = [&](size_t i) {
    RowId row = pool[i];
    pool[i] = pool.back();
    pool.pop_back();
    return row;
  };
  auto pick = [&](size_t scan, size_t step) {
    if (scan == pool.size()) return step;
    return static_cast<size_t>(rng.NextBounded(pool.size()));
  };
  auto scan_count = [&] {
    return sample_size == 0 || pool.size() <= sample_size ? pool.size()
                                                          : sample_size;
  };
  Clustering clusters;
  std::vector<ReferenceCluster> trackers;
  RowId anchor = pool[static_cast<size_t>(rng.NextBounded(pool.size()))];
  while (pool.size() >= k) {
    size_t scan = scan_count();
    double furthest = -1.0;
    size_t best = 0;
    for (size_t s = 0; s < scan; ++s) {
      size_t i = pick(scan, s);
      double d = metric.Distance(anchor, pool[i]);
      if (d > furthest) {
        furthest = d;
        best = i;
      }
    }
    anchor = take(best);
    ReferenceCluster tracker(relation, anchor);
    Cluster cluster = {anchor};
    while (cluster.size() < k) {
      size_t grow = scan_count();
      size_t cheapest = std::numeric_limits<size_t>::max();
      size_t index = 0;
      for (size_t s = 0; s < grow; ++s) {
        size_t i = pick(grow, s);
        size_t cost = tracker.CostIncrease(relation, pool[i]);
        if (cost < cheapest) {
          cheapest = cost;
          index = i;
        }
      }
      RowId added = take(index);
      tracker.Add(relation, added);
      cluster.push_back(added);
    }
    clusters.push_back(std::move(cluster));
    trackers.push_back(std::move(tracker));
  }
  while (!pool.empty()) {
    RowId row = take(pool.size() - 1);
    size_t cheapest = std::numeric_limits<size_t>::max();
    size_t target = 0;
    for (size_t c = 0; c < clusters.size(); ++c) {
      size_t cost = trackers[c].CostIncrease(relation, row);
      if (cost < cheapest) {
        cheapest = cost;
        target = c;
      }
    }
    trackers[target].Add(relation, row);
    clusters[target].push_back(row);
  }
  return clusters;
}

/// Restores the global pool width the test process started with.
class KMemberOracleTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreads(EnvThreads()); }

  /// Every pool width must reproduce the reference exactly.
  void ExpectMatchesReference(const Relation& relation,
                              std::vector<RowId> pool, size_t k,
                              uint64_t seed, size_t sample_size) {
    const Clustering expected =
        ReferenceKMember(relation, pool, k, seed, sample_size);
    AnonymizerOptions options;
    options.seed = seed;
    options.sample_size = sample_size;
    for (size_t threads : {1, 2, 8}) {
      SetParallelThreads(threads);
      auto clusters = MakeKMember(options)->BuildClusters(relation, pool, k);
      ASSERT_TRUE(clusters.ok()) << clusters.status().ToString();
      EXPECT_EQ(*clusters, expected)
          << "pool " << pool.size() << " k " << k << " sample "
          << sample_size << " threads " << threads;
    }
  }
};

TEST_F(KMemberOracleTest, ExactMatchesReferenceOnSmallPools) {
  for (size_t rows : {50, 600}) {
    Relation relation = OracleRelation(rows, 7 + rows);
    std::vector<RowId> pool(rows);
    std::iota(pool.begin(), pool.end(), 0);
    for (size_t k : {2, 5, 10}) {
      ExpectMatchesReference(relation, pool, k, /*seed=*/rows + k,
                             /*sample_size=*/0);
    }
  }
}

TEST_F(KMemberOracleTest, ExactMatchesReferenceAboveParallelScanCut) {
  // Long enough that the first scans take the chunked parallel path on
  // a wider pool. The pool is a shuffled subset, so pool order and row
  // order differ.
  const size_t rows = kKMemberMinParallelScan + 700;
  Relation relation = OracleRelation(rows + 300, 11);
  std::vector<RowId> pool(rows + 300);
  std::iota(pool.begin(), pool.end(), 0);
  Rng rng(5);
  rng.Shuffle(&pool);
  pool.resize(rows);
  ExpectMatchesReference(relation, pool, /*k=*/5, /*seed=*/3,
                         /*sample_size=*/0);
}

TEST_F(KMemberOracleTest, SampledMatchesReference) {
  for (size_t rows : {50, 600}) {
    Relation relation = OracleRelation(rows, 3 * rows);
    std::vector<RowId> pool(rows);
    std::iota(pool.begin(), pool.end(), 0);
    for (size_t k : {2, 5, 10}) {
      ExpectMatchesReference(relation, pool, k, /*seed=*/9 + k,
                             /*sample_size=*/32);
    }
  }
}

}  // namespace
}  // namespace diva
