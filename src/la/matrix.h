#ifndef LEVA_LA_MATRIX_H_
#define LEVA_LA_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace leva {

/// Dense row-major matrix of doubles. Small, dependency-free kernel backing
/// the randomized SVD, PCA, and the MLP.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// i.i.d. N(0, stddev²) entries.
  static Matrix GaussianRandom(size_t rows, size_t cols, Rng* rng,
                               double stddev = 1.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  /// this += alpha * other (shapes must match).
  void AddScaled(const Matrix& other, double alpha);
  void Scale(double alpha);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B. Row-partitioned over `threads` workers; each output row is
/// accumulated by exactly one thread in a fixed order, so the result is
/// bit-identical at every thread count.
Matrix MatMul(const Matrix& a, const Matrix& b, size_t threads = 1);
/// C = Aᵀ * B, with the same row-partitioned determinism guarantee.
Matrix MatTMul(const Matrix& a, const Matrix& b, size_t threads = 1);

}  // namespace leva

#endif  // LEVA_LA_MATRIX_H_
