#include "relation/columnar.h"

#include "common/logging.h"

namespace diva {

ColumnStore ColumnStore::FromRelation(const Relation& relation) {
  ColumnStore store(relation.EmptyLike());
  const size_t num_rows = relation.NumRows();
  const size_t num_cols = relation.NumAttributes();
  store.num_rows_ = num_rows;
  store.num_columns_ = num_cols;
  store.codes_.resize(num_rows * num_cols);
  for (size_t col = 0; col < num_cols; ++col) {
    ValueCode* column = store.codes_.data() + col * num_rows;
    for (size_t row = 0; row < num_rows; ++row) {
      column[row] = relation.At(static_cast<RowId>(row), col);
    }
  }
  return store;
}

Relation ColumnStore::GatherRows(std::span<const RowId> rows) const {
  Relation out = prototype_.EmptyLike();
  std::span<ValueCode> block = out.AppendSuppressedRows(rows.size());
  for (size_t col = 0; col < num_columns_; ++col) {
    const ValueCode* column = codes_.data() + col * num_rows_;
    ValueCode* cell = block.data() + col;
    for (RowId row : rows) {
      // Load-bearing bounds check, same contract as Relation::SelectRows:
      // a stale RowId must abort, not read out of bounds in release.
      DIVA_CHECK_MSG(static_cast<size_t>(row) < num_rows_,
                     "GatherRows: row id out of range");
      *cell = column[static_cast<size_t>(row)];
      cell += num_columns_;
    }
  }
  return out;
}

}  // namespace diva
