#include "la/matrix.h"

#include <cassert>

#include "common/parallel.h"
#include "common/simd.h"

namespace leva {
namespace {

// Rows per ParallelFor chunk. Fixed (never thread-count dependent) so the
// partitioning — and hence any floating-point evaluation order — is stable.
constexpr size_t kRowGrain = 16;

// Rows [r0, r1) of C = A * B. ikj order per output row: streams through b
// row-wise; rows are independent, so sharding them is race-free. The clones
// live here, not on MatMul: the ParallelFor lambda is a function of its own,
// which a clone of the enclosing function would not reach.
LEVA_TARGET_CLONES
void MatMulRows(const Matrix& a, const Matrix& b, Matrix* c, size_t r0,
                size_t r1) {
  for (size_t i = r0; i < r1; ++i) {
    double* crow = c->RowPtr(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      simd::GatherAdd(crow, b.RowPtr(k), aik, b.cols());
    }
  }
}

// Rows [i0, i1) of C = Aᵀ * B. k-outer over the row range: every element of
// an output row still accumulates over a's rows k in increasing order (the
// bits of the i-outer form), but a and b stream through once per range
// instead of once per output row. Output rows stay disjoint across threads.
LEVA_TARGET_CLONES
void MatTMulRows(const Matrix& a, const Matrix& b, Matrix* c, size_t i0,
                 size_t i1) {
  for (size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.RowPtr(k);
    const double* brow = b.RowPtr(k);
    for (size_t i = i0; i < i1; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      simd::GatherAdd(c->RowPtr(i), brow, aki, b.cols());
    }
  }
}

}  // namespace

Matrix Matrix::GaussianRandom(size_t rows, size_t cols, Rng* rng,
                              double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Normal(0.0, stddev);
  return m;
}

LEVA_TARGET_CLONES
void Matrix::AddScaled(const Matrix& other, double alpha) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  simd::GatherAdd(data_.data(), other.data_.data(), alpha, data_.size());
}

LEVA_TARGET_CLONES
void Matrix::Scale(double alpha) {
  simd::Scale(data_.data(), alpha, data_.size());
}

Matrix MatMul(const Matrix& a, const Matrix& b, size_t threads) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  ParallelFor(threads, 0, a.rows(), kRowGrain, [&](size_t r0, size_t r1) {
    MatMulRows(a, b, &c, r0, r1);
  });
  return c;
}

Matrix MatTMul(const Matrix& a, const Matrix& b, size_t threads) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  ParallelFor(threads, 0, a.cols(), kRowGrain, [&](size_t i0, size_t i1) {
    MatTMulRows(a, b, &c, i0, i1);
  });
  return c;
}

}  // namespace leva
