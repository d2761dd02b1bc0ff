#ifndef DIVA_RELATION_COLUMNAR_H_
#define DIVA_RELATION_COLUMNAR_H_

/// Columnar storage mode for a Relation.
///
/// The row-major Relation is the pipeline's working representation; the
/// ColumnStore is its slice representation: one flat column-major code
/// array, each attribute's codes contiguous. The sharded coloring
/// (core/shard.cc) snapshots the input once and materializes each shard
/// as a column-at-a-time gather of that shard's row list — a sequential
/// read per column instead of a strided row-major copy.
///
/// A gathered Relation shares the source's schema and dictionaries, so
/// codes stay comparable across the store, its slices, and anything
/// derived from them (exactly the Relation::SelectRows contract).

#include <cstddef>
#include <span>
#include <vector>

#include "relation/relation.h"

namespace diva {

/// Immutable column-major snapshot of a Relation.
class ColumnStore {
 public:
  /// Transposes `relation` into columns. The store keeps a reference to
  /// the relation's schema and dictionaries (shared, not copied), so
  /// gathered slices stay code-compatible with the source.
  static ColumnStore FromRelation(const Relation& relation);

  ColumnStore(ColumnStore&&) = default;
  ColumnStore& operator=(ColumnStore&&) = default;
  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return num_columns_; }

  /// Materializes the given rows (in the given order) as a row-major
  /// Relation sharing the source's schema and dictionaries. Gathers
  /// column-at-a-time: each column is one sequential scan of the row
  /// list against one contiguous stretch of codes. Aborts on an
  /// out-of-range row id (same contract as Relation::SelectRows).
  Relation GatherRows(std::span<const RowId> rows) const;

 private:
  explicit ColumnStore(Relation prototype)
      : prototype_(std::move(prototype)) {}

  /// Empty relation carrying the shared schema + dictionaries; every
  /// gather derives its output from this via EmptyLike().
  Relation prototype_;
  /// Column-major codes: column `col` is codes_[col * num_rows_, +num_rows_).
  std::vector<ValueCode> codes_;
  size_t num_rows_ = 0;
  size_t num_columns_ = 0;
};

}  // namespace diva

#endif  // DIVA_RELATION_COLUMNAR_H_
