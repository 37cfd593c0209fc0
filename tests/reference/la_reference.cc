#include "reference/la_reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace leva {
namespace {

// Column dot product helpers on row-major matrices.
double ColDot(const Matrix& m, size_t c1, size_t c2) {
  double sum = 0;
  for (size_t r = 0; r < m.rows(); ++r) sum += m(r, c1) * m(r, c2);
  return sum;
}

void ColAxpy(Matrix* m, size_t dst, size_t src, double alpha) {
  for (size_t r = 0; r < m->rows(); ++r) (*m)(r, dst) += alpha * (*m)(r, src);
}

void ColScale(Matrix* m, size_t c, double alpha) {
  for (size_t r = 0; r < m->rows(); ++r) (*m)(r, c) *= alpha;
}

// The production transpose-product chunk count (la/sparse.cc).
size_t TransposeChunks(size_t rows) {
  constexpr size_t kMaxChunks = 8;
  constexpr size_t kMinRowsPerChunk = 256;
  return std::clamp<size_t>(rows / kMinRowsPerChunk, 1, kMaxChunks);
}

// y += the scatter of rows [r0, r1) of a into aᵀ x.
void ScatterRows(const SparseMatrix& a, const Matrix& x, Matrix* y, size_t r0,
                 size_t r1) {
  const auto& offsets = a.offsets();
  for (size_t r = r0; r < r1; ++r) {
    const double* xrow = x.RowPtr(r);
    for (size_t i = offsets[r]; i < offsets[r + 1]; ++i) {
      const double v = a.values()[i];
      double* yrow = y->RowPtr(a.col_indices()[i]);
      for (size_t j = 0; j < x.cols(); ++j) yrow[j] += v * xrow[j];
    }
  }
}

}  // namespace

Matrix ReferenceGramSchmidtQ(const Matrix& a) {
  Matrix q = a;
  const size_t k = q.cols();
  for (size_t j = 0; j < k; ++j) {
    // Two orthogonalization passes for numerical stability.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < j; ++i) {
        const double proj = ColDot(q, j, i);
        if (proj != 0.0) ColAxpy(&q, j, i, -proj);
      }
    }
    const double norm = std::sqrt(ColDot(q, j, j));
    if (norm > 1e-12) {
      ColScale(&q, j, 1.0 / norm);
    } else {
      ColScale(&q, j, 0.0);  // rank-deficient direction
    }
  }
  return q;
}

Result<EigenResult> ReferenceSymmetricEigen(const Matrix& a,
                                            size_t max_sweeps, double tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix d = a;
  Matrix v = Matrix::Identity(n);

  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
    }
    if (off < tol) break;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation to rows/cols p and q of D and columns of V.
        for (size_t i = 0; i < n; ++i) {
          const double dip = d(i, p);
          const double diq = d(i, q);
          d(i, p) = c * dip - s * diq;
          d(i, q) = s * dip + c * diq;
        }
        for (size_t i = 0; i < n; ++i) {
          const double dpi = d(p, i);
          const double dqi = d(q, i);
          d(p, i) = c * dpi - s * dqi;
          d(q, i) = s * dpi + c * dqi;
        }
        for (size_t i = 0; i < n; ++i) {
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
  }

  EigenResult result;
  result.eigenvalues.resize(n);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = d(i, i);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return diag[x] > diag[y]; });
  result.eigenvectors = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    result.eigenvalues[j] = diag[order[j]];
    for (size_t i = 0; i < n; ++i) {
      result.eigenvectors(i, j) = v(i, order[j]);
    }
  }
  return result;
}

Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    double* crow = c.RowPtr(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix ReferenceMatTMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    double* crow = c.RowPtr(i);
    for (size_t k = 0; k < a.rows(); ++k) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix ReferenceSparseMultiply(const SparseMatrix& a, const Matrix& x) {
  Matrix y(a.rows(), x.cols());
  const auto& offsets = a.offsets();
  for (size_t r = 0; r < a.rows(); ++r) {
    double* yrow = y.RowPtr(r);
    for (size_t i = offsets[r]; i < offsets[r + 1]; ++i) {
      const double v = a.values()[i];
      const double* xrow = x.RowPtr(a.col_indices()[i]);
      for (size_t j = 0; j < x.cols(); ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

Matrix ReferenceSparseTransposeMultiply(const SparseMatrix& a,
                                        const Matrix& x) {
  const size_t rows = a.rows();
  const size_t chunks = TransposeChunks(rows);
  if (chunks == 1) {
    Matrix y(a.cols(), x.cols());
    ScatterRows(a, x, &y, 0, rows);
    return y;
  }
  const size_t rows_per_chunk = (rows + chunks - 1) / chunks;
  std::vector<Matrix> partials(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    partials[c] = Matrix(a.cols(), x.cols());
    ScatterRows(a, x, &partials[c], c * rows_per_chunk,
                std::min(rows, (c + 1) * rows_per_chunk));
  }
  Matrix y = std::move(partials[0]);
  for (size_t c = 1; c < chunks; ++c) {
    std::vector<double>& dst = y.mutable_data();
    const std::vector<double>& src = partials[c].data();
    for (size_t i = 0; i < dst.size(); ++i) dst[i] += 1.0 * src[i];
  }
  return y;
}

Result<SvdResult> ReferenceThinSVD(const Matrix& a) {
  const Matrix gram = ReferenceMatTMul(a, a);
  LEVA_ASSIGN_OR_RETURN(EigenResult eig, ReferenceSymmetricEigen(gram));

  const size_t n = a.cols();
  SvdResult out;
  out.singular_values.resize(n);
  out.v = eig.eigenvectors;
  out.u = Matrix(a.rows(), n);
  const Matrix av = ReferenceMatMul(a, eig.eigenvectors);
  for (size_t j = 0; j < n; ++j) {
    const double s = std::sqrt(std::max(0.0, eig.eigenvalues[j]));
    out.singular_values[j] = s;
    if (s > 1e-12) {
      for (size_t i = 0; i < a.rows(); ++i) out.u(i, j) = av(i, j) / s;
    }
  }
  return out;
}

Result<SvdResult> ReferenceRandomizedSVD(const SparseMatrix& a,
                                         const RandomizedSvdOptions& options,
                                         Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng is required");
  const size_t k = std::min(options.rank + options.oversample,
                            std::min(a.rows(), a.cols()));
  if (k == 0) return Status::InvalidArgument("empty matrix");

  Matrix omega = Matrix::GaussianRandom(a.cols(), k, rng);
  Matrix y = ReferenceSparseMultiply(a, omega);
  for (size_t it = 0; it < options.power_iterations; ++it) {
    y = ReferenceGramSchmidtQ(y);
    Matrix z = ReferenceSparseTransposeMultiply(a, y);
    y = ReferenceSparseMultiply(a, z);
  }
  const Matrix q = ReferenceGramSchmidtQ(y);

  const Matrix bt = ReferenceSparseTransposeMultiply(a, q);
  LEVA_ASSIGN_OR_RETURN(SvdResult small, ReferenceThinSVD(bt));
  const size_t rank = std::min(options.rank, k);
  SvdResult out;
  out.singular_values.assign(small.singular_values.begin(),
                             small.singular_values.begin() +
                                 static_cast<ptrdiff_t>(rank));
  Matrix ub(k, rank);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < rank; ++j) ub(i, j) = small.v(i, j);
  }
  out.u = ReferenceMatMul(q, ub);
  out.v = Matrix(a.cols(), rank);
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < rank; ++j) out.v(i, j) = small.u(i, j);
  }
  return out;
}

Result<ReferencePca> ReferencePcaFit(const Matrix& x, size_t components) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("PCA needs a non-empty matrix");
  }
  const size_t d = x.cols();
  components = std::min(components, d);

  ReferencePca pca;
  pca.mean.assign(d, 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < d; ++c) pca.mean[c] += x(r, c);
  }
  for (double& m : pca.mean) m /= static_cast<double>(x.rows());

  Matrix centered = x;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < d; ++c) centered(r, c) -= pca.mean[c];
  }
  const Matrix cov = ReferenceMatTMul(centered, centered);
  LEVA_ASSIGN_OR_RETURN(EigenResult eig, ReferenceSymmetricEigen(cov));

  pca.basis = Matrix(d, components);
  pca.variance.resize(components);
  for (size_t j = 0; j < components; ++j) {
    pca.variance[j] =
        std::max(0.0, eig.eigenvalues[j]) / static_cast<double>(x.rows());
    for (size_t i = 0; i < d; ++i) pca.basis(i, j) = eig.eigenvectors(i, j);
  }
  return pca;
}

}  // namespace leva
