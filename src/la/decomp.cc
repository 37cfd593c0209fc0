#include "la/decomp.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "common/simd.h"

namespace leva {

namespace {

using simd::F64x4;
using simd::Load;
using simd::Store;

// GramSchmidtQ orthonormalizes kBlock columns at a time: one panel row is
// four F64x4 lane groups.
constexpr size_t kBlock = 16;

// w[i][0, kBlock) = sum over r of q(r, i) * x[r][0, kBlock) for i < p, each
// element summed over r in increasing order from 0.0 (W = Q[:, :p]ᵀ X, X
// the m x kBlock panel). p is a multiple of kBlock, so W rows go in pairs,
// whose 8 accumulators stay in registers across a tile of kRowTile panel
// rows; the tile stays in L1 while every pair runs over it.
LEVA_TARGET_CLONES
void BlockProject(const Matrix& q, size_t p, const double* x, double* w) {
  constexpr size_t kRowTile = 64;
  const size_t m = q.rows();
  std::fill(w, w + p * kBlock, 0.0);
  for (size_t r0 = 0; r0 < m; r0 += kRowTile) {
    const size_t r1 = std::min(m, r0 + kRowTile);
    for (size_t i = 0; i < p; i += 2) {
      double* w0 = w + i * kBlock;
      double* w1 = w0 + kBlock;
      F64x4 a[4], b[4];
#pragma GCC unroll 4
      for (size_t g = 0; g < 4; ++g) {
        Load(&a[g], w0 + 4 * g);
        Load(&b[g], w1 + 4 * g);
      }
      for (size_t r = r0; r < r1; ++r) {
        const double u = q(r, i);
        const double v = q(r, i + 1);
        const double* xr = x + r * kBlock;
#pragma GCC unroll 4
        for (size_t g = 0; g < 4; ++g) {
          F64x4 xv;
          Load(&xv, xr + 4 * g);
          a[g] = a[g] + u * xv;
          b[g] = b[g] + v * xv;
        }
      }
#pragma GCC unroll 4
      for (size_t g = 0; g < 4; ++g) {
        Store(w0 + 4 * g, a[g]);
        Store(w1 + 4 * g, b[g]);
      }
    }
  }
}

// x[r][0, kBlock) -= q(r, i) * w[i][0, kBlock) for i < p in increasing
// order, one rounded product and one subtraction per step, for the kRows
// panel rows from r: kRows * 4 independent accumulators in registers.
template <size_t kRows>
LEVA_ALWAYS_INLINE void UpdateRows(const Matrix& q, size_t r, size_t p,
                                   const double* w, double* x) {
  F64x4 a[kRows][4];
#pragma GCC unroll 8
  for (size_t g = 0; g < kRows * 4; ++g) {
    Load(&a[g / 4][g % 4], x + (r + g / 4) * kBlock + 4 * (g % 4));
  }
  for (size_t i = 0; i < p; ++i) {
    const double* wi = w + i * kBlock;
#pragma GCC unroll 4
    for (size_t g = 0; g < 4; ++g) {
      F64x4 wv;
      Load(&wv, wi + 4 * g);
#pragma GCC unroll 2
      for (size_t k = 0; k < kRows; ++k) a[k][g] = a[k][g] - q(r + k, i) * wv;
    }
  }
#pragma GCC unroll 8
  for (size_t g = 0; g < kRows * 4; ++g) {
    Store(x + (r + g / 4) * kBlock + 4 * (g % 4), a[g / 4][g % 4]);
  }
}

// X -= Q[:, :p] W over the m x kBlock panel, two panel rows at a time.
LEVA_TARGET_CLONES
void BlockUpdate(const Matrix& q, size_t p, const double* w, double* x) {
  const size_t m = q.rows();
  size_t r = 0;
  for (; r + 2 <= m; r += 2) UpdateRows<2>(q, r, p, w, x);
  if (r < m) UpdateRows<1>(q, r, p, w, x);
}

// Modified Gram-Schmidt over the first b rows of the transposed panel pt
// (kBlock x m; row c is column c of the block): each row is projected
// against the rows before it, one at a time, then normalized. A norm at or
// below 1e-12 is a rank-deficient direction: the row is zeroed.
LEVA_TARGET_CLONES
void PanelMgs(double* pt, size_t b, size_t m) {
  for (size_t c = 0; c < b; ++c) {
    double* row = pt + c * m;
    for (size_t i = 0; i < c; ++i) {
      const double* prev = pt + i * m;
      const double proj = simd::Dot(row, prev, m);
      if (proj != 0.0) simd::GatherAdd(row, prev, -proj, m);
    }
    const double norm = std::sqrt(simd::Dot(row, row, m));
    simd::Scale(row, norm > 1e-12 ? 1.0 / norm : 0.0, m);
  }
}

}  // namespace

// Block classical Gram-Schmidt with reorthogonalization (BCGS2). Q is
// orthonormalized in place, kBlock columns at a time, left to right. A block
// makes two passes; each projects it against all earlier columns as two
// level-3 products (W = Q[:, :j0]ᵀ X, then X -= Q[:, :j0] W) and runs MGS
// within the block on its transpose, so the in-block dots and axpys stream
// contiguous rows. Normalizing between the passes lets the second pass clean
// up what cancellation inside the block amplified in the first.
Matrix GramSchmidtQ(Matrix a) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  std::vector<double> x(m * kBlock);   // the block as an m x kBlock panel
  std::vector<double> pt(kBlock * m);  // and its transpose
  std::vector<double> w(k * kBlock);
  for (size_t j0 = 0; j0 < k; j0 += kBlock) {
    const size_t b = std::min(kBlock, k - j0);
    // Columns past b stay zero: they neither read nor change the real ones.
    std::fill(x.begin(), x.end(), 0.0);
    for (size_t r = 0; r < m; ++r) {
      std::copy_n(a.RowPtr(r) + j0, b, x.data() + r * kBlock);
    }
    for (int pass = 0; pass < 2; ++pass) {
      if (j0 > 0) {
        BlockProject(a, j0, x.data(), w.data());
        BlockUpdate(a, j0, w.data(), x.data());
      }
      for (size_t r = 0; r < m; ++r) {
        for (size_t c = 0; c < b; ++c) pt[c * m + r] = x[r * kBlock + c];
      }
      PanelMgs(pt.data(), b, m);
      for (size_t r = 0; r < m; ++r) {
        for (size_t c = 0; c < b; ++c) x[r * kBlock + c] = pt[c * m + r];
      }
    }
    for (size_t r = 0; r < m; ++r) {
      std::copy_n(x.data() + r * kBlock, b, a.RowPtr(r) + j0);
    }
  }
  return a;
}

namespace {

// Householder reduction of the symmetric matrix held in ut to tridiagonal
// form, accumulating the orthogonal transform: EISPACK tred2 (in the JAMA
// formulation), stored transposed. ut holds Vᵀ, so tred2's reads of the
// lower triangle of V are reads of row-contiguous runs of ut, and the
// matrix-vector product, the rank-2 update and the back-transformation run
// the simd.h kernels over rows. On return d is the diagonal, e the
// subdiagonal (e[i] couples i - 1 and i; e[0] = 0), and ut = Vᵀ.
LEVA_TARGET_CLONES
void Tridiagonalize(Matrix* ut, double* d, double* e) {
  Matrix& u = *ut;
  const size_t n = u.rows();
  for (size_t j = 0; j < n; ++j) d[j] = u(j, n - 1);
  for (size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (size_t j = 0; j < i; ++j) {
        d[j] = u(j, i - 1);
        u(j, i) = 0.0;
        u(i, j) = 0.0;
      }
    } else {
      // Householder vector of row i.
      for (size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      std::fill(e, e + i, 0.0);
      // e = A d over the leading i x i block, from its upper triangle.
      for (size_t j = 0; j < i; ++j) {
        f = d[j];
        u(i, j) = f;
        double* uj = u.RowPtr(j);
        const size_t len = i - j - 1;
        g = e[j] + uj[j] * f;
        g += simd::Dot(uj + j + 1, d + j + 1, len);
        simd::GatherAdd(e + j + 1, uj + j + 1, f, len);
        e[j] = g;
      }
      f = 0.0;
      for (size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (size_t j = 0; j < i; ++j) {
        simd::SubRank2(u.RowPtr(j) + j, e + j, d + j, d[j], e[j], i - j);
        d[j] = u(j, i - 1);
        u(j, i) = 0.0;
      }
    }
    d[i] = h;
  }
  // Accumulate the transformations.
  for (size_t i = 0; i + 1 < n; ++i) {
    u(i, n - 1) = u(i, i);
    u(i, i) = 1.0;
    const double h = d[i + 1];
    double* hv = u.RowPtr(i + 1);
    if (h != 0.0) {
      for (size_t k = 0; k <= i; ++k) d[k] = hv[k] / h;
      for (size_t j = 0; j <= i; ++j) {
        const double g = simd::Dot(hv, u.RowPtr(j), i + 1);
        simd::GatherAdd(u.RowPtr(j), d, -g, i + 1);
      }
    }
    std::fill(hv, hv + i + 1, 0.0);
  }
  for (size_t j = 0; j < n; ++j) {
    d[j] = u(j, n - 1);
    u(j, n - 1) = 0.0;
  }
  u(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit QL with Wilkinson-style shifts on the tridiagonal (d, e) from
// Tridiagonalize: EISPACK tql2 (JAMA formulation). Each plane rotation of
// columns i, i + 1 of V is a simd::Rotate of rows i, i + 1 of ut. On return
// d holds the eigenvalues, unsorted, and row j of ut the eigenvector of
// d[j]. Fails if an eigenvalue takes more than 30 iterations.
LEVA_TARGET_CLONES
bool TridiagonalQl(Matrix* ut, double* d, double* e) {
  Matrix& u = *ut;
  const size_t n = u.rows();
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  const double eps = std::ldexp(1.0, -52);
  double f = 0.0;
  double tst1 = 0.0;
  for (size_t l = 0; l < n; ++l) {
    // Find a negligible subdiagonal element.
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    size_t m = l;
    while (m + 1 < n && !(std::fabs(e[m]) <= eps * tst1)) ++m;
    // If m == l, d[l] is an eigenvalue; otherwise iterate.
    for (int iter = 0; m > l; ++iter) {
      if (iter == 30) return false;
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (size_t i = l + 2; i < n; ++i) d[i] -= h;
      f += h;
      // Implicit QL transformation.
      p = d[m];
      double c = 1.0;
      double c2 = c;
      double c3 = c;
      const double el1 = e[l + 1];
      double s = 0.0;
      double s2 = 0.0;
      for (size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        simd::Rotate(u.RowPtr(i), u.RowPtr(i + 1), c, s, n);
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
      if (!(std::fabs(e[l]) > eps * tst1)) break;
    }
    d[l] += f;
    e[l] = 0.0;
  }
  return true;
}

// Fixes the sign of every column of `m`: a column whose largest-magnitude
// entry (the lowest-index one on a tie) is negative is negated, which is
// exact. An eigenvector or singular vector is defined only up to sign; this
// makes the sign a function of the vector's values, not of the solver's
// rotation sequence. Two row-major passes: find each column's pivot, then
// negate.
void FixColumnSigns(Matrix* m) {
  const size_t rows = m->rows();
  const size_t cols = m->cols();
  if (rows == 0) return;
  std::vector<double> pivot(m->RowPtr(0), m->RowPtr(0) + cols);
  for (size_t i = 1; i < rows; ++i) {
    const double* row = m->RowPtr(i);
    for (size_t j = 0; j < cols; ++j) {
      if (std::fabs(row[j]) > std::fabs(pivot[j])) pivot[j] = row[j];
    }
  }
  for (size_t i = 0; i < rows; ++i) {
    double* row = m->RowPtr(i);
    for (size_t j = 0; j < cols; ++j) {
      if (pivot[j] < 0.0) row[j] = -row[j];
    }
  }
}

}  // namespace

// Householder tridiagonalization plus implicit QL, with the eigenvectors
// kept as rows of Vᵀ throughout (see Tridiagonalize / TridiagonalQl).
Result<EigenResult> SymmetricEigen(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen requires a square matrix");
  }
  const size_t n = a.rows();
  EigenResult result;
  if (n == 0) return result;
  Matrix vt = a;
  std::vector<double> d(n);
  std::vector<double> e(n);
  Tridiagonalize(&vt, d.data(), e.data());
  if (!TridiagonalQl(&vt, d.data(), e.data())) {
    return Status::Internal("SymmetricEigen: QL iteration did not converge");
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return d[x] > d[y]; });
  result.eigenvalues.resize(n);
  result.eigenvectors = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) result.eigenvalues[j] = d[order[j]];
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      result.eigenvectors(i, j) = vt(order[j], i);
    }
  }
  FixColumnSigns(&result.eigenvectors);
  return result;
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
  Matrix y = a.Multiply(Matrix::GaussianRandom(a.cols(), k, rng), threads);
  for (size_t it = 0; it < options.power_iterations; ++it) {
    y = GramSchmidtQ(std::move(y));  // re-orthonormalize to avoid collapse
    Matrix z = a.TransposeMultiply(y, threads);
    y = a.Multiply(z, threads);
  }
  const Matrix q = GramSchmidtQ(std::move(y));

  // Stage B: B = QᵀA, factored exactly in the reduced space through the
  // k x k Gram BBᵀ = (AᵀQ)ᵀ(AᵀQ) = U_b Σ² U_bᵀ; then U = Q U_b.
  const Matrix bt = a.TransposeMultiply(q, threads);  // n x k
  LEVA_ASSIGN_OR_RETURN(EigenResult eig,
                        SymmetricEigen(MatTMul(bt, bt, threads)));
  const size_t rank = std::min(options.rank, k);
  SvdResult out;
  out.singular_values.resize(rank);
  for (size_t j = 0; j < rank; ++j) {
    out.singular_values[j] = std::sqrt(std::max(0.0, eig.eigenvalues[j]));
  }
  // U = Q * U_b (first `rank` columns).
  Matrix ub(k, rank);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < rank; ++j) ub(i, j) = eig.eigenvectors(i, j);
  }
  out.u = MatMul(q, ub, threads);
  FixColumnSigns(&out.u);
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
