#include "la/sparse.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/parallel.h"
#include "common/simd.h"

namespace leva {
namespace {

constexpr size_t kRowGrain = 64;

// Row helpers of the CSR products. The clones sit here rather than on the
// member functions: a ParallelFor lambda is a function of its own, which a
// clone of the enclosing function would not reach.

// Rows [r0, r1) of Y = A * X.
LEVA_TARGET_CLONES
void MultiplyRows(const SparseMatrix& a, const Matrix& x, Matrix* y, size_t r0,
                  size_t r1) {
  const size_t* offsets = a.offsets().data();
  const uint32_t* cols = a.col_indices().data();
  const double* values = a.values().data();
  for (size_t r = r0; r < r1; ++r) {
    double* yrow = y->RowPtr(r);
    for (size_t i = offsets[r]; i < offsets[r + 1]; ++i) {
      simd::GatherAdd(yrow, x.RowPtr(cols[i]), values[i], x.cols());
    }
  }
}

// Y += the scatter of rows [r0, r1) of A into Aᵀ X.
LEVA_TARGET_CLONES
void ScatterRows(const SparseMatrix& a, const Matrix& x, Matrix* y, size_t r0,
                 size_t r1) {
  const size_t* offsets = a.offsets().data();
  const uint32_t* cols = a.col_indices().data();
  const double* values = a.values().data();
  for (size_t r = r0; r < r1; ++r) {
    const double* xrow = x.RowPtr(r);
    for (size_t i = offsets[r]; i < offsets[r + 1]; ++i) {
      simd::GatherAdd(y->RowPtr(cols[i]), xrow, values[i], x.cols());
    }
  }
}

}  // namespace

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  m.offsets_.assign(rows + 1, 0);
  m.cols_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    const uint32_t r = triplets[i].row;
    const uint32_t c = triplets[i].col;
    assert(r < rows && c < cols);
    double sum = 0;
    while (i < triplets.size() && triplets[i].row == r && triplets[i].col == c) {
      sum += triplets[i].value;
      ++i;
    }
    m.cols_idx_.push_back(c);
    m.values_.push_back(sum);
    ++m.offsets_[r + 1];
  }
  for (size_t r = 0; r < rows; ++r) m.offsets_[r + 1] += m.offsets_[r];
  return m;
}

SparseMatrix SparseMatrix::FromCsr(size_t rows, size_t cols,
                                   std::vector<size_t> offsets,
                                   std::vector<uint32_t> col_indices,
                                   std::vector<double> values) {
  assert(offsets.size() == rows + 1 && offsets.back() == values.size() &&
         col_indices.size() == values.size());
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.offsets_ = std::move(offsets);
  m.cols_idx_ = std::move(col_indices);
  m.values_ = std::move(values);
  return m;
}

size_t SparseMatrix::TransposeChunks(size_t rows) {
  constexpr size_t kMaxChunks = 8;
  constexpr size_t kMinRowsPerChunk = 256;
  return std::clamp<size_t>(rows / kMinRowsPerChunk, 1, kMaxChunks);
}

Matrix SparseMatrix::Multiply(const Matrix& x, size_t threads) const {
  assert(x.rows() == cols_);
  Matrix y(rows_, x.cols());
  ParallelFor(threads, 0, rows_, kRowGrain, [&](size_t r0, size_t r1) {
    MultiplyRows(*this, x, &y, r0, r1);
  });
  return y;
}

Matrix SparseMatrix::TransposeMultiply(const Matrix& x, size_t threads) const {
  assert(x.rows() == rows_);
  Matrix y(cols_, x.cols());
  const size_t chunks = TransposeChunks(rows_);
  if (chunks == 1) {
    ScatterRows(*this, x, &y, 0, rows_);
    return y;
  }

  // Scatter each fixed row-chunk into its own zeroed partial, then add the
  // partials into y in chunk order. The chunk layout and the merge order are
  // both thread-count invariant, so the result is reproducible (though the
  // summation order differs from the single-chunk path, which small matrices
  // take). Chunk 0 scatters straight into y, which is the partial the merge
  // starts from. The other chunks run in waves of one chunk per worker, so
  // at most `wave` partials are alive at once however many chunks there are:
  // chunk c uses partial (c - 1) % wave, zeroed again after its first use.
  // The partials are allocated here, on the calling thread. Allocated by the
  // workers, they would come from per-thread malloc arenas, which keep a
  // freed block resident for whichever worker next runs there, and the
  // process would hold more than the product does.
  const size_t rows_per_chunk = (rows_ + chunks - 1) / chunks;
  const size_t wave = std::clamp<size_t>(ResolveThreads(threads), 1, chunks);
  std::vector<Matrix> partials;
  for (size_t i = 0; i < std::min(wave, chunks - 1); ++i) {
    partials.emplace_back(cols_, x.cols());
  }
  for (size_t w0 = 0; w0 < chunks; w0 += wave) {
    const size_t w1 = std::min(chunks, w0 + wave);
    ParallelFor(wave, w0, w1, 1, [&](size_t c0, size_t c1) {
      for (size_t c = c0; c < c1; ++c) {
        Matrix* part = &y;
        if (c != 0) {
          part = &partials[(c - 1) % wave];
          if (c > wave) {
            std::fill(part->mutable_data().begin(),
                      part->mutable_data().end(), 0.0);
          }
        }
        ScatterRows(*this, x, part, c * rows_per_chunk,
                    std::min(rows_, (c + 1) * rows_per_chunk));
      }
    });
    for (size_t c = std::max<size_t>(w0, 1); c < w1; ++c) {
      y.AddScaled(partials[(c - 1) % wave], 1.0);
    }
  }
  return y;
}

}  // namespace leva
