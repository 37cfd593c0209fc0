#ifndef LEVA_LA_SPARSE_H_
#define LEVA_LA_SPARSE_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace leva {

/// A (row, col, value) entry used to assemble sparse matrices.
struct Triplet {
  uint32_t row;
  uint32_t col;
  double value;
};

/// CSR sparse matrix. The value-node construction keeps the proximity matrix
/// sparse (Section 3.1), which is what makes the randomized factorization
/// memory-feasible.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from triplets; duplicate (row, col) entries are summed.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   std::vector<Triplet> triplets);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  /// Y = this * X  (X: cols() x k dense). Output rows are sharded across
  /// `threads` workers; bit-identical at every thread count.
  Matrix Multiply(const Matrix& x, size_t threads = 1) const;
  /// Y = thisᵀ * X  (X: rows() x k dense). The CSR scatter crosses output
  /// rows, so the rows are split into a fixed number of chunks (a function of
  /// the matrix shape only), each accumulated into a private partial that is
  /// merged in chunk order — deterministic at every thread count.
  Matrix TransposeMultiply(const Matrix& x, size_t threads = 1) const;

  const std::vector<size_t>& offsets() const { return offsets_; }
  const std::vector<uint32_t>& col_indices() const { return cols_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> offsets_;     // rows_+1
  std::vector<uint32_t> cols_idx_;  // sorted within each row
  std::vector<double> values_;
};

}  // namespace leva

#endif  // LEVA_LA_SPARSE_H_
