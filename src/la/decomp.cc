#include "la/decomp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/simd.h"

namespace leva {

// Modified Gram-Schmidt on Qᵀ: row j of qt is column j of Q, so every dot,
// axpy and scale runs over contiguous memory. The operations and their order
// are those of column-wise MGS on Q itself; only the layout changes.
LEVA_TARGET_CLONES
Matrix GramSchmidtQ(const Matrix& a) {
  Matrix qt = a.Transposed();
  const size_t k = qt.rows();
  const size_t m = qt.cols();
  for (size_t j = 0; j < k; ++j) {
    double* qj = qt.RowPtr(j);
    // Two orthogonalization passes for numerical stability.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < j; ++i) {
        const double* qi = qt.RowPtr(i);
        const double proj = simd::Dot(qj, qi, m);
        if (proj != 0.0) simd::GatherAdd(qj, qi, -proj, m);
      }
    }
    const double norm = std::sqrt(simd::Dot(qj, qj, m));
    // A norm at or below 1e-12 is a rank-deficient direction: zero it.
    simd::Scale(qj, norm > 1e-12 ? 1.0 / norm : 0.0, m);
  }
  return qt.Transposed();
}

// Cyclic Jacobi. V is kept transposed (vt), so a rotation of columns p, q of
// V is a rotation of rows p, q of vt. The column pass over D stays strided:
// once rotated, D is no longer bitwise symmetric, so reading its rows in
// place of its columns would change the result.
LEVA_TARGET_CLONES
Result<EigenResult> SymmetricEigen(const Matrix& a, size_t max_sweeps,
                                   double tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix d = a;
  Matrix vt = Matrix::Identity(n);

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
        // Apply the rotation to cols/rows p and q of D and rows of Vᵀ.
        for (size_t i = 0; i < n; ++i) {
          const double dip = d(i, p);
          const double diq = d(i, q);
          d(i, p) = c * dip - s * diq;
          d(i, q) = s * dip + c * diq;
        }
        simd::Rotate(d.RowPtr(p), d.RowPtr(q), c, s, n);
        simd::Rotate(vt.RowPtr(p), vt.RowPtr(q), c, s, n);
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
  for (size_t j = 0; j < n; ++j) result.eigenvalues[j] = diag[order[j]];
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      result.eigenvectors(i, j) = vt(order[j], i);
    }
  }
  return result;
}

Result<SvdResult> ThinSVD(const Matrix& a, size_t threads) {
  // Gram-matrix approach: AᵀA = V Σ² Vᵀ, U = A V Σ⁻¹. Adequate because Leva
  // only feeds in matrices with few (<= few hundred) columns.
  const Matrix gram = MatTMul(a, a, threads);
  LEVA_ASSIGN_OR_RETURN(EigenResult eig, SymmetricEigen(gram));

  const size_t n = a.cols();
  SvdResult out;
  out.singular_values.resize(n);
  out.v = eig.eigenvectors;
  out.u = Matrix(a.rows(), n);
  const Matrix av = MatMul(a, eig.eigenvectors, threads);
  for (size_t j = 0; j < n; ++j) {
    out.singular_values[j] = std::sqrt(std::max(0.0, eig.eigenvalues[j]));
  }
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double s = out.singular_values[j];
      if (s > 1e-12) out.u(i, j) = av(i, j) / s;
    }
  }
  return out;
}

Result<SvdResult> RandomizedSVD(const SparseMatrix& a,
                                const RandomizedSvdOptions& options,
                                Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng is required");
  const size_t k = std::min(options.rank + options.oversample,
                            std::min(a.rows(), a.cols()));
  if (k == 0) return Status::InvalidArgument("empty matrix");

  // Stage A: randomized range finder with power iterations.
  const size_t threads = options.threads;
  Matrix omega = Matrix::GaussianRandom(a.cols(), k, rng);
  Matrix y = a.Multiply(omega, threads);
  for (size_t it = 0; it < options.power_iterations; ++it) {
    y = GramSchmidtQ(y);  // re-orthonormalize to avoid collapse
    Matrix z = a.TransposeMultiply(y, threads);
    y = a.Multiply(z, threads);
  }
  const Matrix q = GramSchmidtQ(y);

  // Stage B: B = QᵀA, factor exactly in the reduced space.
  // Bᵀ = Aᵀ Q has shape (cols x k): small enough for the Gram-based ThinSVD.
  const Matrix bt = a.TransposeMultiply(q, threads);  // n x k
  LEVA_ASSIGN_OR_RETURN(SvdResult small, ThinSVD(bt, threads));
  // Bᵀ = (V_b) Σ (U_b)ᵀ where small.u = V of B, small.v = U of B.
  const size_t rank = std::min(options.rank, k);
  SvdResult out;
  out.singular_values.assign(small.singular_values.begin(),
                             small.singular_values.begin() +
                                 static_cast<ptrdiff_t>(rank));
  // U = Q * U_b (first `rank` columns).
  Matrix ub(k, rank);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < rank; ++j) ub(i, j) = small.v(i, j);
  }
  out.u = MatMul(q, ub, threads);
  out.v = Matrix(a.cols(), rank);
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < rank; ++j) out.v(i, j) = small.u(i, j);
  }
  return out;
}

Result<PCA> PCA::Fit(const Matrix& x, size_t components, size_t threads) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("PCA needs a non-empty matrix");
  }
  const size_t d = x.cols();
  components = std::min(components, d);

  PCA pca;
  pca.mean_.assign(d, 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < d; ++c) pca.mean_[c] += x(r, c);
  }
  for (double& m : pca.mean_) m /= static_cast<double>(x.rows());

  Matrix centered = x;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < d; ++c) centered(r, c) -= pca.mean_[c];
  }
  const Matrix cov = MatTMul(centered, centered, threads);
  LEVA_ASSIGN_OR_RETURN(EigenResult eig, SymmetricEigen(cov));

  pca.basis_ = Matrix(d, components);
  pca.variance_.resize(components);
  for (size_t j = 0; j < components; ++j) {
    pca.variance_[j] =
        std::max(0.0, eig.eigenvalues[j]) / static_cast<double>(x.rows());
    for (size_t i = 0; i < d; ++i) pca.basis_(i, j) = eig.eigenvectors(i, j);
  }
  return pca;
}

Matrix PCA::Transform(const Matrix& x) const {
  Matrix centered = x;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) centered(r, c) -= mean_[c];
  }
  return MatMul(centered, basis_);
}

}  // namespace leva
