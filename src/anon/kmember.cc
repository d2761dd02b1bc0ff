#include "anon/kmember.h"

#include <algorithm>
#include <limits>

#include "anon/distance.h"
#include "common/counters.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"

namespace diva {

namespace {

/// Pool of not-yet-clustered rows with O(1) removal (swap with back),
/// holding each row's packed QI codes (PackQiCodes) in a parallel array
/// that mirrors every swap, so a scan reads codes contiguously.
class RowPool {
 public:
  RowPool(const Relation& relation, std::span<const RowId> rows)
      : rows_(rows.begin(), rows.end()),
        width_(relation.schema().qi_indices().size()),
        codes_(PackQiCodes(relation, rows)) {}

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  std::span<const ValueCode> codes(size_t i) const {
    return {codes_.data() + i * width_, width_};
  }

  RowId TakeAt(size_t i) {
    // Always-on: an out-of-range take would read and swap stale memory in
    // release builds.
    DIVA_CHECK_MSG(i < rows_.size(), "RowPool::TakeAt index out of range");
    RowId row = rows_[i];
    rows_[i] = rows_.back();
    rows_.pop_back();
    std::copy(codes_.end() - static_cast<std::ptrdiff_t>(width_),
              codes_.end(),
              codes_.begin() + static_cast<std::ptrdiff_t>(i * width_));
    codes_.resize(codes_.size() - width_);
    return row;
  }

 private:
  std::vector<RowId> rows_;
  size_t width_;
  std::vector<ValueCode> codes_;
};

/// One greedy scan over the pool: the index of the first candidate whose
/// score(i) is strictly better than every earlier one. The exact mode
/// (sample_size 0, or a pool no larger than it) scans indices
/// 0..size-1 in order and stops at the first candidate scoring `bound`,
/// which no later one can beat strictly. The sampled mode scores
/// sample_size random indices and never stops early, so it makes the
/// same RNG draws. A long exact scan on a wider pool runs as a chunked
/// reduction; chunk winners merged in ascending chunk order with the same
/// strict comparison are the sequential first best, ties included.
template <typename T, typename Score, typename Better>
size_t BestIndex(size_t pool_size, size_t sample_size, Rng* rng, T worst,
                 T bound, Score&& score, Better&& better) {
  const bool exact = sample_size == 0 || pool_size <= sample_size;
  const size_t scan = exact ? pool_size : sample_size;
  struct Best {
    T score;
    size_t index;
  };
  auto scan_range = [&](size_t begin, size_t end) {
    Best best{worst, begin};
    for (size_t s = begin; s < end; ++s) {
      const size_t i =
          exact ? s : static_cast<size_t>(rng->NextBounded(pool_size));
      const T value = score(i);
      if (better(value, best.score)) {
        best = {value, i};
        if (exact && value == bound) break;
      }
    }
    return best;
  };
  if (!exact || scan < kKMemberMinParallelScan || ParallelThreads() == 1) {
    return scan_range(0, scan).index;
  }
  return ParallelReduce<Best>(scan, /*grain=*/0, Best{worst, 0}, scan_range,
                              [&](Best a, Best b) {
                                return better(b.score, a.score) ? b : a;
                              })
      .index;
}

}  // namespace

Result<Clustering> KMemberAnonymizer::BuildClusters(
    const Relation& relation, std::span<const RowId> rows, size_t k) {
  DIVA_TRACE_SPAN("baseline/kmember");
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("kmember.build"));
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (rows.empty()) return Clustering{};
  if (rows.size() < k) {
    return Status::Infeasible(
        "cannot form a k-anonymous group from " +
        std::to_string(rows.size()) + " < k = " + std::to_string(k) +
        " tuples");
  }

  DistanceMetric metric(relation);
  Rng rng(options_.seed);
  RowPool pool(relation, rows);
  Clustering clusters;
  std::vector<ClusterCostTracker> trackers;

  // Seed anchor: a random record (the paper's k-member starts from a
  // randomly chosen record and then picks the furthest one each round).
  // A copy of its codes, since taking rows rewrites pool slots.
  const size_t first = static_cast<size_t>(rng.NextBounded(pool.size()));
  std::vector<ValueCode> anchor(pool.codes(first).begin(),
                                pool.codes(first).end());

  const auto further = [](double a, double b) { return a > b; };
  const auto cheaper = [](size_t a, size_t b) { return a < b; };
  while (pool.size() >= k) {
    // One deadline poll per greedy cluster: a half-built clustering is
    // useless, so the caller (RunDiva) discards it and falls back to the
    // single-pass Mondrian baseline.
    if (options_.cancel.Cancelled()) {
      return DeadlineExceededStatus("k-member clustering");
    }
    // Furthest record from the previous anchor (no early stop: no
    // distance is known to be unbeatable).
    size_t best_index = BestIndex(
        pool.size(), options_.sample_size, &rng, -1.0,
        std::numeric_limits<double>::infinity(),
        [&](size_t i) { return metric.Distance(anchor, pool.codes(i)); },
        further);
    std::copy(pool.codes(best_index).begin(), pool.codes(best_index).end(),
              anchor.begin());
    ClusterCostTracker tracker(relation);
    tracker.Reset(anchor);
    Cluster cluster = {pool.TakeAt(best_index)};

    while (cluster.size() < k) {
      // The cheapest record to add. CostIncrease is strictly increasing
      // in the mismatch count, so the first minimum of one is the first
      // minimum of the other; 0 mismatches (cost == divergent) is the
      // lower bound.
      size_t cheapest_index = BestIndex(
          pool.size(), options_.sample_size, &rng,
          std::numeric_limits<size_t>::max(), size_t{0},
          [&](size_t i) { return tracker.Mismatches(pool.codes(i)); },
          cheaper);
      tracker.Add(pool.codes(cheapest_index));
      cluster.push_back(pool.TakeAt(cheapest_index));
    }
    clusters.push_back(std::move(cluster));
    trackers.push_back(std::move(tracker));
  }

  // Distribute the (< k) leftovers to their cheapest clusters.
  while (!pool.empty()) {
    const size_t last = pool.size() - 1;
    size_t cheapest = std::numeric_limits<size_t>::max();
    size_t target = 0;
    for (size_t c = 0; c < clusters.size(); ++c) {
      size_t cost = trackers[c].CostIncrease(pool.codes(last));
      if (cost < cheapest) {
        cheapest = cost;
        target = c;
      }
    }
    trackers[target].Add(pool.codes(last));
    clusters[target].push_back(pool.TakeAt(last));
  }

  DIVA_COUNTER_ADD("kmember.clusters", clusters.size());
  return clusters;
}

}  // namespace diva
