#include "constraint/targets.h"

#include <algorithm>
#include <functional>

#include "common/parallel.h"

namespace diva {

namespace {

/// Runs body(k) for every chunk k in [0, chunks) on the global pool. A
/// tripped loop-cancellation token only truncates the pool loop to a
/// prefix; the rest runs inline, so callers always see every chunk.
void ForEachChunk(size_t chunks, const std::function<void(size_t)>& body) {
  const size_t done =
      ParallelFor(chunks, /*grain=*/1, [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) body(k);
      });
  for (size_t k = done; k < chunks; ++k) body(k);
}

/// The constraints of a set, resolved once and bucketed by (first
/// attribute, code), so a row only checks the constraints whose first
/// target value it carries.
class TargetIndex {
 public:
  TargetIndex(const Relation& relation, const ConstraintSet& constraints) {
    struct Resolved {
      size_t slot;
      size_t code;
      Member member;
    };
    std::vector<Resolved> resolved;
    std::vector<ValueCode> codes;
    std::vector<size_t> slot_of(relation.NumAttributes(), kNoSlot);
    for (size_t c = 0; c < constraints.size(); ++c) {
      if (!constraints[c].ResolveCodes(relation, &codes)) continue;
      const std::vector<size_t>& attrs = constraints[c].attribute_indices();
      if (slot_of[attrs[0]] == kNoSlot) {
        slot_of[attrs[0]] = slots_.size();
        slots_.push_back({attrs[0], {}, {}});
        slots_.back().bucket_start.assign(
            relation.dictionary(attrs[0]).size() + 1, 0);
      }
      const size_t slot = slot_of[attrs[0]];
      const size_t code = static_cast<size_t>(codes[0]);
      ++slots_[slot].bucket_start[code + 1];
      const size_t rest_begin = rest_.size();
      for (size_t i = 1; i < attrs.size(); ++i) {
        rest_.emplace_back(attrs[i], codes[i]);
      }
      resolved.push_back({slot, code, {c, rest_begin, rest_.size()}});
    }
    // Counting sort into the buckets; ascending c keeps each bucket in
    // constraint order.
    for (Slot& slot : slots_) {
      for (size_t v = 1; v < slot.bucket_start.size(); ++v) {
        slot.bucket_start[v] += slot.bucket_start[v - 1];
      }
      slot.members.resize(slot.bucket_start.back());
    }
    std::vector<std::vector<size_t>> cursor(slots_.size());
    for (size_t s = 0; s < slots_.size(); ++s) {
      cursor[s].assign(slots_[s].bucket_start.begin(),
                       slots_[s].bucket_start.end() - 1);
    }
    for (const Resolved& r : resolved) {
      slots_[r.slot].members[cursor[r.slot][r.code]++] = r.member;
    }
  }

  /// Calls hit(c, row) for every constraint c matching row, rows
  /// ascending, and per row in ascending slot then constraint order.
  template <typename Hit>
  void ForEachMatch(const Relation& relation, size_t row_begin,
                    size_t row_end, Hit&& hit) const {
    for (size_t r = row_begin; r < row_end; ++r) {
      const RowId row = static_cast<RowId>(r);
      for (const Slot& slot : slots_) {
        const ValueCode code = relation.At(row, slot.attr);
        if (code < 0 ||
            static_cast<size_t>(code) + 1 >= slot.bucket_start.size()) {
          continue;
        }
        const size_t begin = slot.bucket_start[static_cast<size_t>(code)];
        const size_t end = slot.bucket_start[static_cast<size_t>(code) + 1];
        for (size_t m = begin; m < end; ++m) {
          const Member& member = slot.members[m];
          bool match = true;
          for (size_t i = member.rest_begin; i < member.rest_end && match;
               ++i) {
            match = relation.At(row, rest_[i].first) == rest_[i].second;
          }
          if (match) hit(member.constraint, row);
        }
      }
    }
  }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// A bucketed constraint; its targets past the first attribute are
  /// rest_[rest_begin, rest_end).
  struct Member {
    size_t constraint;
    size_t rest_begin;
    size_t rest_end;
  };

  struct Slot {
    size_t attr;
    /// Constraints with first value code v are
    /// members[bucket_start[v], bucket_start[v + 1]).
    std::vector<size_t> bucket_start;
    std::vector<Member> members;
  };

  std::vector<Slot> slots_;
  /// (attribute, code) targets of every member past its first.
  std::vector<std::pair<size_t, ValueCode>> rest_;
};

/// Indices [first, last) — rows or constraints — cut into at most 64
/// chunks that are a pure function of the range, so per-chunk results
/// merge identically at every pool width.
struct Chunks {
  Chunks(size_t first_index, size_t last_index)
      : first(first_index),
        last(last_index),
        grain((last_index - first_index) / 64 + 1),
        count((last_index - first_index + grain - 1) / grain) {}

  size_t Begin(size_t k) const { return first + k * grain; }
  size_t End(size_t k) const { return std::min(Begin(k) + grain, last); }

  size_t first;
  size_t last;
  size_t grain;
  size_t count;
};

/// The count pass: hits per (chunk, constraint), chunk-major.
std::vector<size_t> CountByChunk(const TargetIndex& index,
                                 const Relation& relation,
                                 const Chunks& chunks, size_t n) {
  std::vector<size_t> counts(chunks.count * n, 0);
  ForEachChunk(chunks.count, [&](size_t k) {
    size_t* local = counts.data() + k * n;
    index.ForEachMatch(relation, chunks.Begin(k), chunks.End(k),
                       [&](size_t c, RowId) { ++local[c]; });
  });
  return counts;
}

}  // namespace

TargetMatcher::TargetMatcher(const DiversityConstraint& constraint,
                             const Relation& relation)
    : attributes_(constraint.attribute_indices()),
      resolved_(constraint.ResolveCodes(relation, &codes_)) {}

std::vector<std::span<const RowId>> TargetSets::Lists() const {
  std::vector<std::span<const RowId>> lists;
  lists.reserve(size());
  for (size_t c = 0; c < size(); ++c) lists.push_back((*this)[c]);
  return lists;
}

std::vector<size_t> CountAllOccurrences(const Relation& relation,
                                        const ConstraintSet& constraints) {
  const size_t n = constraints.size();
  std::vector<size_t> totals(n, 0);
  if (n == 0 || relation.NumRows() == 0) return totals;
  const Chunks chunks(0, relation.NumRows());
  const std::vector<size_t> counts =
      CountByChunk(TargetIndex(relation, constraints), relation, chunks, n);
  for (size_t k = 0; k < chunks.count; ++k) {
    for (size_t c = 0; c < n; ++c) totals[c] += counts[k * n + c];
  }
  return totals;
}

TargetSets FindTargets(const Relation& relation,
                       const ConstraintSet& constraints, size_t first_row) {
  const size_t n = constraints.size();
  TargetSets sets;
  sets.offsets.assign(n + 1, 0);
  if (n == 0 || first_row >= relation.NumRows()) return sets;
  const TargetIndex index(relation, constraints);
  const Chunks chunks(first_row, relation.NumRows());

  // Counts -> write cursors: list c starts at offsets[c], and chunk k's
  // part of it after every earlier chunk's part. Chunks then fill
  // disjoint slots, rows ascending within each, so every list comes out
  // ascending at any pool width.
  std::vector<size_t> cursor = CountByChunk(index, relation, chunks, n);
  size_t total = 0;
  for (size_t c = 0; c < n; ++c) {
    sets.offsets[c] = total;
    for (size_t k = 0; k < chunks.count; ++k) {
      size_t count = cursor[k * n + c];
      cursor[k * n + c] = total;
      total += count;
    }
  }
  sets.offsets[n] = total;
  sets.rows.resize(total);
  ForEachChunk(chunks.count, [&](size_t k) {
    size_t* next = cursor.data() + k * n;
    index.ForEachMatch(
        relation, chunks.Begin(k), chunks.End(k),
        [&](size_t c, RowId row) { sets.rows[next[c]++] = row; });
  });
  return sets;
}

RowIncidence BuildRowIncidence(
    std::span<const std::span<const RowId>> targets, size_t num_rows) {
  const size_t n = targets.size();
  RowIncidence incidence;
  incidence.row_start.assign(num_rows + 1, 0);
  // Each row chunk writes only its own rows. A chunk takes the slice of
  // every list that falls inside it (two binary searches per list),
  // counts, and then fills in constraint order, which leaves each row's
  // constraints ascending.
  const Chunks row_chunks(0, num_rows);
  auto slice = [&](size_t c, size_t k) {
    std::span<const RowId> list = targets[c];
    auto lo = std::lower_bound(list.begin(), list.end(),
                               static_cast<RowId>(row_chunks.Begin(k)));
    auto hi = std::lower_bound(lo, list.end(),
                               static_cast<RowId>(row_chunks.End(k)));
    return list.subspan(static_cast<size_t>(lo - list.begin()),
                        static_cast<size_t>(hi - lo));
  };
  std::vector<size_t>& row_start = incidence.row_start;
  ForEachChunk(row_chunks.count, [&](size_t k) {
    for (size_t c = 0; c < n; ++c) {
      for (RowId row : slice(c, k)) ++row_start[static_cast<size_t>(row) + 1];
    }
  });
  for (size_t r = 0; r < num_rows; ++r) row_start[r + 1] += row_start[r];
  incidence.constraints.resize(row_start[num_rows]);
  ForEachChunk(row_chunks.count, [&](size_t k) {
    const size_t begin = row_chunks.Begin(k);
    std::vector<size_t> next(row_start.begin() + begin,
                             row_start.begin() + row_chunks.End(k));
    for (size_t c = 0; c < n; ++c) {
      for (RowId row : slice(c, k)) {
        incidence.constraints[next[row - begin]++] = static_cast<uint32_t>(c);
      }
    }
  });
  return incidence;
}

TargetOverlaps ComputeOverlaps(std::span<const std::span<const RowId>> targets,
                               size_t num_rows) {
  const size_t n = targets.size();
  TargetOverlaps result;
  if (n < 2) return result;
  const RowIncidence incidence = BuildRowIncidence(targets, num_rows);

  // For each constraint i, every row of I_i adds one to its overlap with
  // each later constraint j > i that row also matches. Chunks over i
  // keep a dense accumulator and emit their pairs sorted by (i, j);
  // concatenating chunks in order gives the sorted pair list.
  struct ChunkPairs {
    std::vector<TargetOverlap> pairs;
    uint64_t visits = 0;
  };
  const Chunks constraint_chunks(0, n);
  std::vector<ChunkPairs> partials(constraint_chunks.count);
  ForEachChunk(constraint_chunks.count, [&](size_t k) {
    ChunkPairs& out = partials[k];
    std::vector<size_t> overlap(n, 0);
    std::vector<uint32_t> touched;
    for (size_t i = constraint_chunks.Begin(k);
         i < constraint_chunks.End(k); ++i) {
      for (RowId row : targets[i]) {
        const std::span<const uint32_t> row_constraints = incidence[row];
        auto it = std::upper_bound(row_constraints.begin(),
                                   row_constraints.end(), i);
        out.visits += static_cast<uint64_t>(row_constraints.end() - it);
        for (; it != row_constraints.end(); ++it) {
          if (overlap[*it]++ == 0) touched.push_back(*it);
        }
      }
      std::sort(touched.begin(), touched.end());
      for (uint32_t j : touched) {
        out.pairs.push_back({i, j, overlap[j]});
        overlap[j] = 0;
      }
      touched.clear();
    }
  });
  for (ChunkPairs& chunk : partials) {
    result.pairs.insert(result.pairs.end(), chunk.pairs.begin(),
                        chunk.pairs.end());
    result.incidence_visits += chunk.visits;
  }
  return result;
}

}  // namespace diva
