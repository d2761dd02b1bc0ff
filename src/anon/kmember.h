#ifndef DIVA_ANON_KMEMBER_H_
#define DIVA_ANON_KMEMBER_H_

#include "anon/anonymizer.h"

namespace diva {

/// The shortest exact greedy scan that k-member splits across the pool.
/// Shorter scans are faster as one loop: on 4 cores, Pop-Syn pools of
/// 24k and 40k rows at k = 10 ran fastest with this cut (see CHANGES.md).
inline constexpr size_t kKMemberMinParallelScan = 16384;

/// Greedy k-member clustering (Byun, Kamra, Bertino, Li — DASFAA 2007),
/// adapted to the suppression cost model: each cluster is seeded with the
/// record furthest from the previous cluster's seed, then grown by
/// repeatedly adding the record whose inclusion raises the cluster's
/// ★ count the least. Leftover records (< k remaining) join the cluster
/// they are cheapest for.
///
/// Exact mode is O(N^2); with AnonymizerOptions::sample_size > 0 each
/// greedy step scans a random sample of the remaining records instead.
///
/// The pool keeps its rows' QI codes packed (PackQiCodes), so a scan
/// reads them contiguously: the seed scan scores DistanceMetric's packed
/// distance, and a grow scan a branch-free mismatch count against the
/// cluster's live attributes (ClusterCostTracker::Mismatches). An exact
/// grow scan stops at the first candidate with no mismatch, the cost
/// lower bound and so the first minimum. Scans run as one plain loop,
/// and as a chunked ParallelReduce only on a wider pool when an exact
/// scan has at least kKMemberMinParallelScan candidates. Every path
/// picks the same record: first best under a strict comparison.
class KMemberAnonymizer final : public Anonymizer {
 public:
  explicit KMemberAnonymizer(const AnonymizerOptions& options)
      : options_(options) {}

  std::string name() const override { return "k-member"; }

  [[nodiscard]] Result<Clustering> BuildClusters(const Relation& relation,
                                   std::span<const RowId> rows,
                                   size_t k) override;

 private:
  AnonymizerOptions options_;
};

}  // namespace diva

#endif  // DIVA_ANON_KMEMBER_H_
