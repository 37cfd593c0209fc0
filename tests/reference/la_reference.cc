#include "reference/la_reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace leva {
namespace {

// The sign convention SymmetricEigen and RandomizedSVD promise, one column
// at a time: negate column j when its largest-magnitude entry (the first on
// a tie) is negative.
void SignColumns(Matrix* m) {
  for (size_t j = 0; j < m->cols(); ++j) {
    size_t pivot = 0;
    for (size_t i = 1; i < m->rows(); ++i) {
      if (std::fabs((*m)(i, j)) > std::fabs((*m)(pivot, j))) pivot = i;
    }
    if (m->rows() == 0 || !((*m)(pivot, j) < 0.0)) continue;
    for (size_t i = 0; i < m->rows(); ++i) (*m)(i, j) = -(*m)(i, j);
  }
}

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

// The fixed 8-lane order of simd::Dot (fp64): partial sums s_l over the
// whole groups of eight, j mod 8 == l, summed pairwise, then the tail in
// order.
double LaneDot(const double* a, const double* b, size_t n) {
  double s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const size_t whole = n - n % 8;
  for (size_t j = 0; j < whole; j += 8) {
    for (size_t l = 0; l < 8; ++l) s[l] += a[j + l] * b[j + l];
  }
  double dot = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
  for (size_t j = whole; j < n; ++j) dot += a[j] * b[j];
  return dot;
}

// LaneDot over columns c1 and c2 of m: the column elements in row order.
double ColLaneDot(const Matrix& m, size_t c1, size_t c2) {
  std::vector<double> x(m.rows());
  std::vector<double> y(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    x[r] = m(r, c1);
    y[r] = m(r, c2);
  }
  return LaneDot(x.data(), y.data(), m.rows());
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

Matrix IdentityMatrix(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  }
  return t;
}

double FrobeniusNorm(const Matrix& m) {
  double sum = 0;
  for (const double v : m.data()) sum += v * v;
  return std::sqrt(sum);
}

double SparseAt(const SparseMatrix& m, size_t r, size_t c) {
  const auto cols = m.col_indices().begin();
  const auto begin = cols + static_cast<ptrdiff_t>(m.offsets()[r]);
  const auto end = cols + static_cast<ptrdiff_t>(m.offsets()[r + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<uint32_t>(c));
  if (it == end || *it != c) return 0.0;
  return m.values()[static_cast<size_t>(it - cols)];
}

Matrix MgsGramSchmidtQ(const Matrix& a) {
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

Result<EigenResult> JacobiSymmetricEigen(const Matrix& a, size_t max_sweeps,
                                         double tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix d = a;
  Matrix v = IdentityMatrix(n);

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
  SignColumns(&result.eigenvectors);
  return result;
}

Matrix ReferenceGramSchmidtQ(const Matrix& a) {
  constexpr size_t kBlock = 16;
  Matrix q = a;
  const size_t m = q.rows();
  const size_t k = q.cols();
  for (size_t j0 = 0; j0 < k; j0 += kBlock) {
    const size_t b = std::min(kBlock, k - j0);
    for (int pass = 0; pass < 2; ++pass) {
      // W = Q[:, :j0]ᵀ X, each element summed over rows in order.
      Matrix w(j0, b);
      for (size_t i = 0; i < j0; ++i) {
        for (size_t c = 0; c < b; ++c) {
          double sum = 0.0;
          for (size_t r = 0; r < m; ++r) sum += q(r, i) * q(r, j0 + c);
          w(i, c) = sum;
        }
      }
      // X -= Q[:, :j0] W, one column of Q at a time.
      for (size_t r = 0; r < m; ++r) {
        for (size_t c = 0; c < b; ++c) {
          double x = q(r, j0 + c);
          for (size_t i = 0; i < j0; ++i) x -= q(r, i) * w(i, c);
          q(r, j0 + c) = x;
        }
      }
      // Modified Gram-Schmidt within the block, then normalize.
      for (size_t c = j0; c < j0 + b; ++c) {
        for (size_t i = j0; i < c; ++i) {
          const double proj = ColLaneDot(q, c, i);
          if (proj != 0.0) ColAxpy(&q, c, i, -proj);
        }
        const double norm = std::sqrt(ColLaneDot(q, c, c));
        ColScale(&q, c, norm > 1e-12 ? 1.0 / norm : 0.0);
      }
    }
  }
  return q;
}

Result<EigenResult> ReferenceSymmetricEigen(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen requires a square matrix");
  }
  const size_t n = a.rows();
  EigenResult result;
  if (n == 0) return result;
  // tred2 on V, stored as u = Vᵀ: V(r, c) is u(c, r).
  Matrix u = a;
  std::vector<double> d(n);
  std::vector<double> e(n);
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
      for (size_t j = 0; j < i; ++j) e[j] = 0.0;
      for (size_t j = 0; j < i; ++j) {
        f = d[j];
        u(i, j) = f;
        g = e[j] + u(j, j) * f;
        g += LaneDot(u.RowPtr(j) + j + 1, d.data() + j + 1, i - j - 1);
        for (size_t k = j + 1; k < i; ++k) e[k] += f * u(j, k);
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
        f = d[j];
        g = e[j];
        for (size_t k = j; k < i; ++k) u(j, k) -= (f * e[k] + g * d[k]);
        d[j] = u(j, i - 1);
        u(j, i) = 0.0;
      }
    }
    d[i] = h;
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    u(i, n - 1) = u(i, i);
    u(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (size_t k = 0; k <= i; ++k) d[k] = u(i + 1, k) / h;
      for (size_t j = 0; j <= i; ++j) {
        const double g = LaneDot(u.RowPtr(i + 1), u.RowPtr(j), i + 1);
        for (size_t k = 0; k <= i; ++k) u(j, k) += -g * d[k];
      }
    }
    for (size_t k = 0; k <= i; ++k) u(i + 1, k) = 0.0;
  }
  for (size_t j = 0; j < n; ++j) {
    d[j] = u(j, n - 1);
    u(j, n - 1) = 0.0;
  }
  u(n - 1, n - 1) = 1.0;
  e[0] = 0.0;

  // tql2, rotating columns i and i + 1 of V.
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  const double eps = std::ldexp(1.0, -52);
  double f = 0.0;
  double tst1 = 0.0;
  for (size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    size_t m = l;
    while (m + 1 < n && !(std::fabs(e[m]) <= eps * tst1)) ++m;
    for (int iter = 0; m > l; ++iter) {
      if (iter == 30) {
        return Status::Internal("SymmetricEigen: QL iteration did not converge");
      }
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
        for (size_t k = 0; k < n; ++k) {
          const double vki = u(i, k);
          const double vki1 = u(i + 1, k);
          u(i, k) = c * vki - s * vki1;
          u(i + 1, k) = s * vki + c * vki1;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
      if (!(std::fabs(e[l]) > eps * tst1)) break;
    }
    d[l] += f;
    e[l] = 0.0;
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return d[x] > d[y]; });
  result.eigenvalues.resize(n);
  result.eigenvectors = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    result.eigenvalues[j] = d[order[j]];
    for (size_t i = 0; i < n; ++i) result.eigenvectors(i, j) = u(order[j], i);
  }
  SignColumns(&result.eigenvectors);
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

namespace {

// U = A V Σ⁻¹ from AᵀA's eigendecomposition and AV.
ThinSvdResult ThinSvdFromGram(const Matrix& a, EigenResult eig,
                              const Matrix& av) {
  const size_t n = a.cols();
  ThinSvdResult out;
  out.singular_values.resize(n);
  out.u = Matrix(a.rows(), n);
  for (size_t j = 0; j < n; ++j) {
    const double s = std::sqrt(std::max(0.0, eig.eigenvalues[j]));
    out.singular_values[j] = s;
    if (s > 1e-12) {
      for (size_t i = 0; i < a.rows(); ++i) out.u(i, j) = av(i, j) / s;
    }
  }
  out.v = std::move(eig.eigenvectors);
  return out;
}

}  // namespace

Result<ThinSvdResult> ThinSVD(const Matrix& a, size_t threads) {
  LEVA_ASSIGN_OR_RETURN(EigenResult eig,
                        SymmetricEigen(MatTMul(a, a, threads)));
  const Matrix av = MatMul(a, eig.eigenvectors, threads);
  return ThinSvdFromGram(a, std::move(eig), av);
}

Result<ThinSvdResult> ReferenceThinSVD(const Matrix& a) {
  LEVA_ASSIGN_OR_RETURN(EigenResult eig,
                        ReferenceSymmetricEigen(ReferenceMatTMul(a, a)));
  const Matrix av = ReferenceMatMul(a, eig.eigenvectors);
  return ThinSvdFromGram(a, std::move(eig), av);
}

Result<SvdResult> ReferenceRandomizedSVD(const SparseMatrix& a,
                                         const RandomizedSvdOptions& options,
                                         Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng is required");
  const size_t k = std::min(options.rank + options.oversample,
                            std::min(a.rows(), a.cols()));
  if (k == 0) return Status::InvalidArgument("empty matrix");

  Matrix y = ReferenceSparseMultiply(a, Matrix::GaussianRandom(a.cols(), k, rng));
  for (size_t it = 0; it < options.power_iterations; ++it) {
    y = ReferenceGramSchmidtQ(y);
    Matrix z = ReferenceSparseTransposeMultiply(a, y);
    y = ReferenceSparseMultiply(a, z);
  }
  const Matrix q = ReferenceGramSchmidtQ(y);

  const Matrix bt = ReferenceSparseTransposeMultiply(a, q);
  LEVA_ASSIGN_OR_RETURN(ThinSvdResult small, ReferenceThinSVD(bt));
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
  SignColumns(&out.u);
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

namespace {

// x = x * alpha and y = y + alpha * x, element by element: the scalar forms
// of Matrix::Scale and Matrix::AddScaled.
void ScaleAll(Matrix* x, double alpha) {
  for (double& v : x->mutable_data()) v = v * alpha;
}

void AddScaledAll(Matrix* y, const Matrix& x, double alpha) {
  std::vector<double>& yd = y->mutable_data();
  for (size_t i = 0; i < yd.size(); ++i) yd[i] = yd[i] + alpha * x.data()[i];
}

}  // namespace

Result<Matrix> ReferenceSpectralPropagate(const LevaGraph& graph,
                                          const Matrix& embedding,
                                          size_t order, double mu,
                                          double theta) {
  if (embedding.rows() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "embedding row count does not match graph node count");
  }
  if (order < 2) return embedding;
  const SparseMatrix anorm = NormalizedAdjacency(graph);
  const size_t quad = std::max<size_t>(order + 1, 16);
  std::vector<double> coeff(order, 0.0);
  for (size_t k = 0; k < order; ++k) {
    double sum = 0;
    for (size_t j = 0; j < quad; ++j) {
      const double angle = M_PI * (static_cast<double>(j) + 0.5) /
                           static_cast<double>(quad);
      const double x = std::cos(angle);
      const double g = std::exp(-0.5 * theta * ((x - mu) * (x - mu) - 1.0));
      sum += g * std::cos(static_cast<double>(k) * angle);
    }
    coeff[k] = (k == 0 ? 1.0 : 2.0) * sum / static_cast<double>(quad);
  }

  // Four n x d buffers: T_{k-1}, T_k, T_{k+1} and the filtered sum.
  Matrix t_prev = embedding;
  Matrix t_cur = ReferenceSparseMultiply(anorm, embedding);
  ScaleAll(&t_cur, -1.0);
  Matrix filtered = t_prev;
  ScaleAll(&filtered, coeff[0]);
  AddScaledAll(&filtered, t_cur, coeff[1]);
  for (size_t k = 2; k < order; ++k) {
    Matrix t_next = ReferenceSparseMultiply(anorm, t_cur);
    ScaleAll(&t_next, -2.0);
    AddScaledAll(&t_next, t_prev, -1.0);
    AddScaledAll(&filtered, t_next, coeff[k]);
    t_prev = std::move(t_cur);
    t_cur = std::move(t_next);
  }
  return ReferenceSparseMultiply(anorm, filtered);
}

}  // namespace leva
