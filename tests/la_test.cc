#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "la/decomp.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "reference/la_reference.h"

namespace leva {
namespace {

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, IdentityAndTranspose) {
  const Matrix eye = IdentityMatrix(3);
  EXPECT_DOUBLE_EQ(eye(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
  Matrix m(2, 3);
  m(0, 2) = 5.0;
  const Matrix t = Transposed(m);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
}

TEST(MatrixTest, MatMulCorrect) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  const Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, MatTMulEqualsTransposeThenMul) {
  Rng rng(4);
  const Matrix a = Matrix::GaussianRandom(5, 3, &rng);
  const Matrix b = Matrix::GaussianRandom(5, 2, &rng);
  const Matrix direct = MatTMul(a, b);
  const Matrix expected = MatMul(Transposed(a), b);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(direct(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(MatrixTest, AddScaledAndNorm) {
  Matrix a(1, 2);
  a(0, 0) = 3;
  a(0, 1) = 4;
  EXPECT_DOUBLE_EQ(FrobeniusNorm(a), 5.0);
  Matrix b(1, 2, 1.0);
  a.AddScaled(b, 2.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 5.0);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
}

SparseMatrix SmallSparse() {
  // [[1, 0, 2], [0, 3, 0]]
  return SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
}

TEST(SparseTest, FromTripletsAndAt) {
  const SparseMatrix m = SmallSparse();
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(SparseAt(m, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(SparseAt(m, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(SparseAt(m, 1, 1), 3.0);
}

TEST(SparseTest, DuplicateTripletsSum) {
  const SparseMatrix m =
      SparseMatrix::FromTriplets(1, 1, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(SparseAt(m, 0, 0), 3.5);
}

TEST(SparseTest, MultiplyMatchesDense) {
  const SparseMatrix m = SmallSparse();
  Matrix x(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) x(i, j) = static_cast<double>(i + j + 1);
  }
  const Matrix y = m.Multiply(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 1.0 * 1 + 2.0 * 3);  // 7
  EXPECT_DOUBLE_EQ(y(1, 1), 3.0 * 3);            // 9
}

TEST(SparseTest, TransposeMultiplyMatchesDense) {
  const SparseMatrix m = SmallSparse();
  Rng rng(5);
  const Matrix x = Matrix::GaussianRandom(2, 4, &rng);
  const Matrix y = m.TransposeMultiply(x);
  EXPECT_EQ(y.rows(), 3u);
  // row 2 of y = 2.0 * x row 0.
  for (size_t j = 0; j < 4; ++j) EXPECT_NEAR(y(2, j), 2.0 * x(0, j), 1e-12);
}

TEST(DecompTest, GramSchmidtOrthonormal) {
  Rng rng(6);
  const Matrix a = Matrix::GaussianRandom(20, 5, &rng);
  const Matrix q = GramSchmidtQ(a);
  const Matrix gram = MatTMul(q, q);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(DecompTest, GramSchmidtRankDeficient) {
  Matrix a(4, 2);
  for (size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);  // linearly dependent
  }
  const Matrix q = GramSchmidtQ(a);
  double norm1 = 0;
  for (size_t i = 0; i < 4; ++i) norm1 += q(i, 1) * q(i, 1);
  EXPECT_NEAR(norm1, 0.0, 1e-9);  // dependent column zeroed
}

TEST(DecompTest, SymmetricEigenDiagonal) {
  Matrix d(3, 3);
  d(0, 0) = 1;
  d(1, 1) = 5;
  d(2, 2) = 3;
  const auto eig = SymmetricEigen(d);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 5.0, 1e-10);
  EXPECT_NEAR(eig->eigenvalues[1], 3.0, 1e-10);
  EXPECT_NEAR(eig->eigenvalues[2], 1.0, 1e-10);
}

TEST(DecompTest, SymmetricEigenReconstructs) {
  Rng rng(7);
  const Matrix b = Matrix::GaussianRandom(6, 6, &rng);
  const Matrix a = MatTMul(b, b);  // symmetric PSD
  const auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  // A = V diag(L) V^T.
  Matrix vl = eig->eigenvectors;
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) vl(i, j) *= eig->eigenvalues[j];
  }
  const Matrix recon = MatMul(vl, Transposed(eig->eigenvectors));
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-7);
    }
  }
}

TEST(DecompTest, SymmetricEigenRequiresSquare) {
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
}

TEST(DecompTest, ThinSVDReconstructs) {
  Rng rng(8);
  const Matrix a = Matrix::GaussianRandom(12, 4, &rng);
  const auto svd = ThinSVD(a);
  ASSERT_TRUE(svd.ok());
  // A = U diag(S) V^T.
  Matrix us = svd->u;
  for (size_t i = 0; i < us.rows(); ++i) {
    for (size_t j = 0; j < us.cols(); ++j) us(i, j) *= svd->singular_values[j];
  }
  const Matrix recon = MatMul(us, Transposed(svd->v));
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-7);
    }
  }
}

TEST(DecompTest, SingularValuesDescending) {
  Rng rng(9);
  const auto svd = ThinSVD(Matrix::GaussianRandom(10, 5, &rng));
  ASSERT_TRUE(svd.ok());
  for (size_t i = 1; i < svd->singular_values.size(); ++i) {
    EXPECT_GE(svd->singular_values[i - 1], svd->singular_values[i]);
  }
}

TEST(DecompTest, RandomizedSvdApproximatesLowRank) {
  // Build an exactly rank-3 sparse matrix and recover it.
  Rng rng(10);
  const size_t n = 60;
  const Matrix u = Matrix::GaussianRandom(n, 3, &rng);
  const Matrix v = Matrix::GaussianRandom(n, 3, &rng);
  std::vector<Triplet> triplets;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      double val = 0;
      for (size_t k = 0; k < 3; ++k) val += u(i, k) * v(j, k);
      triplets.push_back({i, j, val});
    }
  }
  const SparseMatrix a = SparseMatrix::FromTriplets(n, n, triplets);
  RandomizedSvdOptions options;
  options.rank = 3;
  options.oversample = 8;
  options.power_iterations = 3;
  const auto svd = RandomizedSVD(a, options, &rng);
  ASSERT_TRUE(svd.ok());
  ASSERT_EQ(svd->singular_values.size(), 3u);

  // Reconstruction error should be tiny relative to the matrix norm. V is
  // not returned; form it as Aᵀ U Σ⁻¹, so U Σ Vᵀ = U Uᵀ A.
  Matrix right = a.TransposeMultiply(svd->u);
  for (size_t i = 0; i < right.rows(); ++i) {
    for (size_t j = 0; j < right.cols(); ++j) {
      right(i, j) /= svd->singular_values[j];
    }
  }
  Matrix us = svd->u;
  for (size_t i = 0; i < us.rows(); ++i) {
    for (size_t j = 0; j < us.cols(); ++j) us(i, j) *= svd->singular_values[j];
  }
  const Matrix recon = MatMul(us, Transposed(right));
  double err = 0;
  double norm = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      const double d = recon(i, j) - SparseAt(a, i, j);
      err += d * d;
      norm += SparseAt(a, i, j) * SparseAt(a, i, j);
    }
  }
  EXPECT_LT(std::sqrt(err / norm), 1e-4);
}

TEST(DecompTest, RandomizedSvdRequiresRng) {
  const SparseMatrix a = SmallSparse();
  EXPECT_FALSE(RandomizedSVD(a, {}, nullptr).ok());
}

TEST(PcaTest, RecoversDominantDirection) {
  Rng rng(11);
  // Points stretched along (1, 1) direction.
  Matrix x(500, 2);
  for (size_t i = 0; i < 500; ++i) {
    const double t = rng.Normal() * 10.0;
    const double noise = rng.Normal() * 0.1;
    x(i, 0) = t + noise;
    x(i, 1) = t - noise;
  }
  const auto pca = PCA::Fit(x, 1);
  ASSERT_TRUE(pca.ok());
  const Matrix projected = pca->Transform(x);
  EXPECT_EQ(projected.cols(), 1u);
  // Nearly all variance captured in one component.
  EXPECT_GT(pca->explained_variance()[0], 90.0);
}

TEST(PcaTest, TransformPreservesRowCount) {
  Rng rng(12);
  const Matrix x = Matrix::GaussianRandom(30, 8, &rng);
  const auto pca = PCA::Fit(x, 3);
  ASSERT_TRUE(pca.ok());
  const Matrix y = pca->Transform(x);
  EXPECT_EQ(y.rows(), 30u);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(PcaTest, ComponentsClampedToDim) {
  Rng rng(13);
  const auto pca = PCA::Fit(Matrix::GaussianRandom(10, 3, &rng), 50);
  ASSERT_TRUE(pca.ok());
  EXPECT_EQ(pca->components(), 3u);
}

TEST(PcaTest, EmptyFails) {
  EXPECT_FALSE(PCA::Fit(Matrix(), 2).ok());
}

// Property sweep: randomized SVD error decreases with rank on a fixed
// random sparse matrix.
class RandomizedSvdSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(RandomizedSvdSweep, RankBoundsRespected) {
  const size_t rank = GetParam();
  Rng rng(200);
  std::vector<Triplet> triplets;
  for (uint32_t i = 0; i < 40; ++i) {
    for (int k = 0; k < 5; ++k) {
      triplets.push_back({i, static_cast<uint32_t>(rng.UniformInt(40)),
                          rng.Normal()});
    }
  }
  const SparseMatrix a = SparseMatrix::FromTriplets(40, 40, triplets);
  RandomizedSvdOptions options;
  options.rank = rank;
  const auto svd = RandomizedSVD(a, options, &rng);
  ASSERT_TRUE(svd.ok());
  EXPECT_LE(svd->singular_values.size(), rank);
  EXPECT_EQ(svd->u.rows(), 40u);
  EXPECT_EQ(svd->u.cols(), svd->singular_values.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomizedSvdSweep,
                         ::testing::Values<size_t>(1, 2, 5, 10, 20));

// ---------------------------------------------------------------------------
// Factorization quality: GramSchmidtQ and SymmetricEigen against the quality
// oracles of tests/reference (two-pass column MGS and cyclic Jacobi), by
// tolerance, on inputs chosen to stress the block and QL algorithms.
// ---------------------------------------------------------------------------

bool IsZeroColumn(const Matrix& q, size_t c) {
  for (size_t r = 0; r < q.rows(); ++r) {
    if (q(r, c) != 0.0) return false;
  }
  return true;
}

// max |QᵀQ - I| over the columns of q that are not zero.
double OrthonormalityError(const Matrix& q) {
  std::vector<size_t> live;
  for (size_t c = 0; c < q.cols(); ++c) {
    if (!IsZeroColumn(q, c)) live.push_back(c);
  }
  const Matrix gram = MatTMul(q, q);
  double err = 0.0;
  for (const size_t i : live) {
    for (const size_t j : live) {
      err = std::max(err, std::fabs(gram(i, j) - (i == j ? 1.0 : 0.0)));
    }
  }
  return err;
}

// ‖x − Q Qᵀ x‖_F / ‖x‖_F: how much of range(x) lies outside range(Q)
// (0 for x == 0).
double OutsideSpan(const Matrix& q, const Matrix& x) {
  Matrix residual = x;
  residual.AddScaled(MatMul(q, MatTMul(q, x)), -1.0);
  const double norm = FrobeniusNorm(x);
  return norm == 0.0 ? FrobeniusNorm(residual)
                     : FrobeniusNorm(residual) / norm;
}

// max over i > j of |(QᵀY)(i, j)| / ‖Y‖_F: column i of Q must be orthogonal
// to every column of Y before it, i.e. QᵀY is upper triangular.
double BelowDiagonal(const Matrix& q, const Matrix& y) {
  const Matrix r = MatTMul(q, y);
  double worst = 0.0;
  for (size_t i = 0; i < r.rows(); ++i) {
    for (size_t j = 0; j < i && j < r.cols(); ++j) {
      worst = std::max(worst, std::fabs(r(i, j)));
    }
  }
  return worst / FrobeniusNorm(y);
}

// An m x k sketch with singular values 1e6 · 251^(-5 j / (k - 1)): what two
// power iterations (A (AᵀA)² Ω) make of a spectrum that falls 251-fold, so
// κ ≈ 1e12. Built as U diag(s) Vᵀ from orthonormal U (m x k) and V (k x k).
Matrix IllConditionedSketch(size_t m, size_t k, Rng* rng) {
  const Matrix u = MgsGramSchmidtQ(Matrix::GaussianRandom(m, k, rng));
  const Matrix v = MgsGramSchmidtQ(Matrix::GaussianRandom(k, k, rng));
  Matrix us = u;
  for (size_t j = 0; j < k; ++j) {
    const double sigma = std::pow(251.0, -static_cast<double>(j) /
                                             static_cast<double>(k - 1));
    const double s = 1e6 * std::pow(sigma, 5.0);
    for (size_t r = 0; r < m; ++r) us(r, j) *= s;
  }
  return MatMul(us, Transposed(v));
}

TEST(FactorizationTest, GramSchmidtOnIllConditionedSketch) {
  Rng rng(501);
  for (const size_t k : {17, 74}) {
    const Matrix y = IllConditionedSketch(900, k, &rng);
    const Matrix q = GramSchmidtQ(y);
    for (size_t c = 0; c < k; ++c) {
      EXPECT_FALSE(IsZeroColumn(q, c)) << "k=" << k << " column " << c;
    }
    // Backward-stable like the MGS oracle: orthonormal to working
    // precision, spanning Y, triangular against Y's columns. Column by
    // column the two bases may differ by ~κε in the trailing directions,
    // which neither determines better.
    const Matrix oracle = MgsGramSchmidtQ(y);
    for (const Matrix* basis : {&q, &oracle}) {
      EXPECT_LT(OrthonormalityError(*basis), 1e-12) << "k=" << k;
      EXPECT_LT(OutsideSpan(*basis, y), 1e-12) << "k=" << k;
      EXPECT_LT(BelowDiagonal(*basis, y), 1e-12) << "k=" << k;
    }
  }
}

// Exact zero, duplicate and one-hot columns on both sides of every 16-column
// block edge (columns 16b - 1, 16b, 16b + 1), at widths that end just
// before, on and just after an edge.
TEST(FactorizationTest, GramSchmidtDegenerateColumnsAtBlockEdges) {
  Rng rng(502);
  const size_t m = 400;
  for (const size_t k : {1, 15, 16, 17, 33, 266}) {
    Matrix a = Matrix::GaussianRandom(m, k, &rng);
    size_t degenerate = 0;
    for (size_t j = 0; j < k; ++j) {
      const size_t edge = j % 16;
      if (edge != 15 && edge != 0 && edge != 1) continue;
      switch ((j / 16 + edge) % 3) {
        case 0:
          for (size_t r = 0; r < m; ++r) a(r, j) = 0.0;
          break;
        case 1:  // a copy of the column before: zeroed by both algorithms
          for (size_t r = 0; r < m; ++r) a(r, j) = j > 0 ? a(r, j - 1) : 0.0;
          break;
        default:
          for (size_t r = 0; r < m; ++r) a(r, j) = r == (7 * j) % m ? 1.0 : 0.0;
          break;
      }
      ++degenerate;
    }
    const Matrix q = GramSchmidtQ(a);
    const Matrix oracle = MgsGramSchmidtQ(a);
    size_t zeroed = 0;
    for (size_t c = 0; c < k; ++c) {
      EXPECT_EQ(IsZeroColumn(q, c), IsZeroColumn(oracle, c))
          << "k=" << k << " column " << c;
      zeroed += IsZeroColumn(q, c) ? 1 : 0;
    }
    if (k > 1) EXPECT_GT(zeroed, 0u) << "k=" << k;
    EXPECT_GT(degenerate, 0u) << "k=" << k;
    EXPECT_LT(OrthonormalityError(q), 1e-12) << "k=" << k;
    EXPECT_LT(OutsideSpan(q, oracle), 1e-12) << "k=" << k;
    EXPECT_LT(OutsideSpan(oracle, q), 1e-12) << "k=" << k;
  }
}

// Q diag(values) Qᵀ for a random orthogonal Q.
Matrix WithSpectrum(const std::vector<double>& values, Rng* rng) {
  const size_t n = values.size();
  const Matrix q = MgsGramSchmidtQ(Matrix::GaussianRandom(n, n, rng));
  Matrix ql = q;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) ql(i, j) *= values[j];
  }
  Matrix a = MatMul(ql, Transposed(q));
  // Exactly symmetric, as the MF Gram matrices are.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) a(i, j) = a(j, i);
  }
  return a;
}

void ExpectGoodEigen(const Matrix& a, const std::string& name) {
  SCOPED_TRACE(name);
  const size_t n = a.rows();
  const auto got = SymmetricEigen(a);
  // Jacobi run to convergence: its default stopping rule (off-diagonal
  // mass below 1e-12) leaves clustered eigenvalues ~1e-11 off.
  const auto oracle = JacobiSymmetricEigen(a, 50, 0.0);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(got->eigenvalues.size(), n);
  // |λ₁|: the largest eigenvalue magnitude.
  double norm = 0.0;
  for (const double l : oracle->eigenvalues) norm = std::max(norm, std::fabs(l));
  for (size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(got->eigenvalues[j], oracle->eigenvalues[j], 1e-12 * norm)
        << "eigenvalue " << j;
    if (j > 0) EXPECT_GE(got->eigenvalues[j - 1], got->eigenvalues[j]);
  }
  // ‖AV − VΛ‖ and ‖VᵀV − I‖, elementwise.
  const Matrix& v = got->eigenvectors;
  const Matrix av = MatMul(a, v);
  double residual = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      residual = std::max(
          residual, std::fabs(av(i, j) - v(i, j) * got->eigenvalues[j]));
    }
  }
  EXPECT_LE(residual, 1e-12 * std::max(norm, 1.0));
  EXPECT_LT(OrthonormalityError(v), 1e-12);
  for (size_t c = 0; c < n; ++c) EXPECT_FALSE(IsZeroColumn(v, c));
}

// The symmetric matrices both eigen cases below run on: tiny, zero,
// diagonal with a repeated entry, repeated and clustered spectra, and a
// 74 x 74 Gram matrix (the MF sketch width of the small benches).
std::vector<std::pair<std::string, Matrix>> EigenCases() {
  Rng rng(503);
  std::vector<std::pair<std::string, Matrix>> cases;
  Matrix one(1, 1);
  one(0, 0) = -2.5;
  cases.emplace_back("n=1", one);
  Matrix two(2, 2);
  two(0, 0) = 2.0;
  two(0, 1) = two(1, 0) = 1.0;
  two(1, 1) = -1.0;
  cases.emplace_back("n=2", two);
  cases.emplace_back("zero matrix", Matrix(5, 5));
  Matrix diag(6, 6);
  const double entries[] = {1.0, -3.0, 7.0, 0.0, 7.0, 2.5};
  for (size_t i = 0; i < 6; ++i) diag(i, i) = entries[i];
  cases.emplace_back("diagonal", diag);
  cases.emplace_back("repeated",
                     WithSpectrum({3, 3, 3, 1, 1, -2, 0, 0}, &rng));
  std::vector<double> clustered;
  for (size_t i = 0; i < 12; ++i) clustered.push_back(1.0 + 1e-10 * i);
  clustered.push_back(5.0);
  clustered.push_back(-1.0);
  cases.emplace_back("clustered", WithSpectrum(clustered, &rng));
  const Matrix b = Matrix::GaussianRandom(3500, 74, &rng);
  cases.emplace_back("Gram of 3500 x 74", MatTMul(b, b));
  return cases;
}

TEST(FactorizationTest, SymmetricEigenAgainstJacobi) {
  for (const auto& [name, a] : EigenCases()) ExpectGoodEigen(a, name);
}

// Both solvers sign each eigenvector so that its largest-magnitude entry is
// positive, so where an eigenvalue is simple (its eigenvector unique up to
// sign) QL and Jacobi return the same vector, not only the same line.
// Columns of a repeated or clustered eigenvalue span a subspace that either
// solver may rotate freely; they are skipped.
TEST(FactorizationTest, EigenvectorSignsMatchJacobi) {
  size_t compared = 0;
  for (const auto& [name, a] : EigenCases()) {
    SCOPED_TRACE(name);
    const auto got = SymmetricEigen(a);
    const auto oracle = JacobiSymmetricEigen(a, 50, 0.0);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(oracle.ok());
    const std::vector<double>& values = oracle->eigenvalues;
    const size_t n = values.size();
    double norm = 1.0;
    for (const double l : values) norm = std::max(norm, std::fabs(l));
    for (size_t j = 0; j < n; ++j) {
      const bool simple =
          (j == 0 || values[j - 1] - values[j] > 1e-6 * norm) &&
          (j + 1 == n || values[j] - values[j + 1] > 1e-6 * norm);
      if (!simple) continue;
      ++compared;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got->eigenvectors(i, j), oracle->eigenvectors(i, j), 1e-10)
            << "eigenvector " << j << " entry " << i;
      }
    }
  }
  EXPECT_GT(compared, 74u);
}

// ---------------------------------------------------------------------------
// Bitwise differential suite: the production dense-LA kernels against the
// plain-loop oracles in tests/reference/la_reference.h. Shapes cover every
// 4-lane tail (sizes 1, 2, 3, 5, 13, 74), and inputs carry exact zeros,
// disjoint-support (exactly orthogonal) columns, dependent and all-zero
// columns so each skip and branch of the kernels is taken.
// ---------------------------------------------------------------------------

constexpr size_t kSizes[] = {1, 2, 3, 5, 13, 74};
// GramSchmidtQ widths: also one short of, on, and one past a 16-column block
// edge.
constexpr size_t kQrSizes[] = {1, 2, 3, 5, 13, 15, 16, 17, 33, 74};
constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

::testing::AssertionResult SameBytes(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first difference at flat index " << i << ": " << a[i]
               << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBytes(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  return SameBytes(a.data(), b.data());
}

// Gaussian entries with roughly a third of them set to exactly 0.0.
Matrix RandomWithZeros(size_t rows, size_t cols, Rng* rng) {
  Matrix m = Matrix::GaussianRandom(rows, cols, rng);
  for (double& v : m.mutable_data()) {
    if (rng->UniformInt(3) == 0) v = 0.0;
  }
  return m;
}

SparseMatrix RandomSparse(size_t rows, size_t cols, size_t per_row, Rng* rng) {
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t e = 0; e < per_row; ++e) {
      triplets.push_back({static_cast<uint32_t>(r),
                          static_cast<uint32_t>(rng->UniformInt(cols)),
                          rng->Normal()});
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(LaReferenceTest, GramSchmidtMatchesOracleOnEveryTail) {
  Rng rng(301);
  for (const size_t m : {1, 3, 5, 37, 1000}) {
    for (const size_t k : kQrSizes) {
      const Matrix a = Matrix::GaussianRandom(m, k, &rng);
      EXPECT_TRUE(SameBytes(GramSchmidtQ(a), ReferenceGramSchmidtQ(a)))
          << "m=" << m << " k=" << k;
    }
  }
}

TEST(LaReferenceTest, GramSchmidtMatchesOracleOnDegenerateColumns) {
  Rng rng(302);
  for (const size_t m : {1, 3, 5, 37, 1000}) {
    for (const size_t k : kQrSizes) {
      Matrix a = RandomWithZeros(m, k, &rng);
      for (size_t j = 0; j < k; ++j) {
        switch (j % 4) {
          case 1:  // all zero: norm <= 1e-12, every proj == 0
            for (size_t r = 0; r < m; ++r) a(r, j) = 0.0;
            break;
          case 2:  // a multiple of column 0: projects to ~0, then zeroed
            for (size_t r = 0; r < m; ++r) a(r, j) = 3.0 * a(r, 0);
            break;
          case 3:  // one nonzero row: exactly orthogonal to many columns
            for (size_t r = 0; r < m; ++r) a(r, j) = r == j % m ? 1.5 : 0.0;
            break;
          default:
            break;
        }
      }
      EXPECT_TRUE(SameBytes(GramSchmidtQ(a), ReferenceGramSchmidtQ(a)))
          << "m=" << m << " k=" << k;
    }
  }
}

TEST(LaReferenceTest, SymmetricEigenMatchesOracle) {
  Rng rng(303);
  for (const size_t n : kSizes) {
    const Matrix b = RandomWithZeros(n + 3, n, &rng);
    Matrix diag(n, n);
    for (size_t i = 0; i < n; ++i) diag(i, i) = static_cast<double>(i % 3);
    for (const Matrix& a : {ReferenceMatTMul(b, b), diag}) {
      const auto got = SymmetricEigen(a);
      const auto want = ReferenceSymmetricEigen(a);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_TRUE(SameBytes(got->eigenvalues, want->eigenvalues)) << "n=" << n;
      EXPECT_TRUE(SameBytes(got->eigenvectors, want->eigenvectors))
          << "n=" << n;
    }
  }
}

TEST(LaReferenceTest, DenseMatMulMatchesOracleWithExactZeros) {
  Rng rng(304);
  for (const size_t m : {1, 5, 37}) {
    for (const size_t inner : {1, 3, 13}) {
      for (const size_t n : kSizes) {
        const Matrix a = RandomWithZeros(m, inner, &rng);
        const Matrix b = RandomWithZeros(inner, n, &rng);
        const Matrix at = RandomWithZeros(inner, m, &rng);
        const Matrix want = ReferenceMatMul(a, b);
        const Matrix want_t = ReferenceMatTMul(at, b);
        for (const size_t threads : kThreadCounts) {
          EXPECT_TRUE(SameBytes(MatMul(a, b, threads), want))
              << m << "x" << inner << "x" << n << " threads=" << threads;
          EXPECT_TRUE(SameBytes(MatTMul(at, b, threads), want_t))
              << m << "x" << inner << "x" << n << " threads=" << threads;
        }
      }
    }
  }
}

TEST(LaReferenceTest, SparseProductsMatchOracle) {
  Rng rng(305);
  // 2065 rows spread over the maximum of 8 transpose chunks; 600 over 2.
  for (const size_t rows : {1, 37, 600, 2065}) {
    const SparseMatrix s = RandomSparse(rows, 90, 4, &rng);
    for (const size_t k : kSizes) {
      const Matrix x = RandomWithZeros(90, k, &rng);
      const Matrix xt = RandomWithZeros(rows, k, &rng);
      const Matrix want = ReferenceSparseMultiply(s, x);
      const Matrix want_t = ReferenceSparseTransposeMultiply(s, xt);
      for (const size_t threads : {1, 2, 3, 4, 8}) {
        EXPECT_TRUE(SameBytes(s.Multiply(x, threads), want))
            << "rows=" << rows << " k=" << k << " threads=" << threads;
        EXPECT_TRUE(SameBytes(s.TransposeMultiply(xt, threads), want_t))
            << "rows=" << rows << " k=" << k << " threads=" << threads;
      }
    }
  }
}

TEST(LaReferenceTest, ThinSvdMatchesOracle) {
  Rng rng(306);
  for (const size_t n : kSizes) {
    const Matrix a = RandomWithZeros(2 * n + 7, n, &rng);
    const auto want = ReferenceThinSVD(a);
    ASSERT_TRUE(want.ok());
    for (const size_t threads : kThreadCounts) {
      const auto got = ThinSVD(a, threads);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameBytes(got->singular_values, want->singular_values))
          << "n=" << n << " threads=" << threads;
      EXPECT_TRUE(SameBytes(got->u, want->u))
          << "n=" << n << " threads=" << threads;
      EXPECT_TRUE(SameBytes(got->v, want->v))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(LaReferenceTest, RandomizedSvdMatchesOracle) {
  Rng data_rng(307);
  // 2065 rows: the transpose products take all 8 chunks.
  const SparseMatrix a = RandomSparse(2065, 700, 5, &data_rng);
  for (const size_t rank : {1, 3, 13}) {
    RandomizedSvdOptions options;
    options.rank = rank;
    Rng want_rng(400 + rank);
    const auto want = ReferenceRandomizedSVD(a, options, &want_rng);
    ASSERT_TRUE(want.ok());
    for (const size_t threads : kThreadCounts) {
      options.threads = threads;
      Rng got_rng(400 + rank);
      const auto got = RandomizedSVD(a, options, &got_rng);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameBytes(got->singular_values, want->singular_values))
          << "rank=" << rank << " threads=" << threads;
      EXPECT_TRUE(SameBytes(got->u, want->u))
          << "rank=" << rank << " threads=" << threads;
    }
  }
}

TEST(LaReferenceTest, PcaFitMatchesOracle) {
  Rng rng(308);
  for (const size_t d : kSizes) {
    const Matrix x = RandomWithZeros(40, d, &rng);
    const size_t components = (d + 1) / 2;
    const auto want = ReferencePcaFit(x, components);
    ASSERT_TRUE(want.ok());
    Matrix centered = x;
    for (size_t r = 0; r < x.rows(); ++r) {
      for (size_t c = 0; c < d; ++c) centered(r, c) -= want->mean[c];
    }
    const Matrix want_projected = ReferenceMatMul(centered, want->basis);
    for (const size_t threads : kThreadCounts) {
      const auto got = PCA::Fit(x, components, threads);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameBytes(got->explained_variance(), want->variance))
          << "d=" << d << " threads=" << threads;
      EXPECT_TRUE(SameBytes(got->Transform(x), want_projected))
          << "d=" << d << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace leva
