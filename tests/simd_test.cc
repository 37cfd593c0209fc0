// Edge and tail coverage for the element-wise kernels of common/simd.h: each
// kernel must match its scalar loop bit for bit at every length — empty,
// shorter than one 4-lane group, whole groups, and groups plus a tail — on
// rows offset by one element (so no load is 32-byte aligned), both inlined
// into a plain function (the baseline ISA) and through a LEVA_TARGET_CLONES
// caller (the AVX2 clone, where the CPU has it). Runs under ASan and UBSan
// (robustness label), so a lane that reads or writes past a row fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/rng.h"
#include "common/simd.h"

namespace leva {
namespace {

enum class Kernel {
  kGatherAdd,
  kMeanStore,
  kMeanStoreDup,
  kGatherAddBf16,
  kDequantGatherAdd,
  kDequantRowBf16,
  kDequantRowI8,
  kSubRank2,
  kRotate,
};

constexpr Kernel kKernels[] = {
    Kernel::kGatherAdd,        Kernel::kMeanStore,
    Kernel::kMeanStoreDup,     Kernel::kGatherAddBf16,
    Kernel::kDequantGatherAdd, Kernel::kDequantRowBf16,
    Kernel::kDequantRowI8,     Kernel::kSubRank2,
    Kernel::kRotate,
};

// One kernel call's operands. Each kernel reads and writes a subset of the
// rows; the test compares all of them afterwards.
struct Args {
  double s = 0.0;  // g, w, the mean's weight, or a rotation's cosine
  double scale = 0.0;  // int8 scale, SubRank2's g, or a rotation's sine
  double *x = nullptr, *y = nullptr, *z = nullptr;
  const uint16_t* bf16 = nullptr;
  const int8_t* i8 = nullptr;
  size_t n = 0;
};

LEVA_ALWAYS_INLINE void Dispatch(Kernel k, const Args& a) {
  switch (k) {
    case Kernel::kGatherAdd:
      return simd::GatherAdd(a.x, a.y, a.s, a.n);
    case Kernel::kMeanStore:
      return simd::MeanStore(a.x, a.s, a.y, nullptr, a.n);
    case Kernel::kMeanStoreDup:
      return simd::MeanStore(a.x, a.s, a.y, a.z, a.n);
    case Kernel::kGatherAddBf16:
      return simd::GatherAddBf16(a.x, a.bf16, a.s, a.n);
    case Kernel::kDequantGatherAdd:
      return simd::DequantGatherAdd(a.x, a.i8, a.scale, a.s, a.n);
    case Kernel::kDequantRowBf16:
      return simd::DequantRowBf16(a.x, a.bf16, a.n);
    case Kernel::kDequantRowI8:
      return simd::DequantRowI8(a.x, a.i8, a.scale, a.n);
    case Kernel::kSubRank2:
      return simd::SubRank2(a.x, a.y, a.z, a.s, a.scale, a.n);
    case Kernel::kRotate:
      return simd::Rotate(a.x, a.y, a.s, a.scale, a.n);
  }
}

void RunPlain(Kernel k, const Args& a) { Dispatch(k, a); }

LEVA_TARGET_CLONES
void RunCloned(Kernel k, const Args& a) { Dispatch(k, a); }

// The scalar loop each kernel stands for.
void RunScalar(Kernel k, const Args& a) {
  for (size_t j = 0; j < a.n; ++j) {
    switch (k) {
      case Kernel::kGatherAdd:
        a.x[j] += a.s * a.y[j];
        break;
      case Kernel::kMeanStore:
        a.y[j] = a.x[j] / a.s;
        a.x[j] = 0.0;
        break;
      case Kernel::kMeanStoreDup:
        a.y[j] = a.x[j] / a.s;
        a.z[j] = a.y[j];
        a.x[j] = 0.0;
        break;
      case Kernel::kGatherAddBf16:
        a.x[j] += a.s * static_cast<double>(simd::Bf16ToFloat(a.bf16[j]));
        break;
      case Kernel::kDequantGatherAdd:
        a.x[j] += a.s * (a.scale * static_cast<double>(a.i8[j]));
        break;
      case Kernel::kDequantRowBf16:
        a.x[j] = static_cast<double>(simd::Bf16ToFloat(a.bf16[j]));
        break;
      case Kernel::kDequantRowI8:
        a.x[j] = a.scale * static_cast<double>(a.i8[j]);
        break;
      case Kernel::kSubRank2:
        a.x[j] -= a.s * a.y[j] + a.scale * a.z[j];
        break;
      case Kernel::kRotate: {
        const double x = a.x[j];
        const double y = a.y[j];
        a.x[j] = a.s * x - a.scale * y;
        a.y[j] = a.scale * x + a.s * y;
        break;
      }
    }
  }
}

// Rows of n elements starting one element into their allocation: never
// 32-byte aligned, and the row ends exactly where the allocation does, so an
// overrunning lane is a heap overflow under ASan.
struct Rows {
  std::vector<double> x, y, z;
  std::vector<uint16_t> bf16;
  std::vector<int8_t> i8;
  size_t n;

  Rows(size_t n, uint64_t seed) : n(n) {
    Rng r(seed);
    for (std::vector<double>* v : {&x, &y, &z}) {
      v->resize(n + 1);
      for (double& d : *v) d = r.Uniform(-2.0, 2.0);
    }
    // int8 codes hit both ends of the symmetric range the quantizer uses;
    // bf16 patterns mix normals with subnormals of both signs (a zero
    // exponent field), all finite.
    i8.resize(n + 1);
    bf16.resize(n + 1);
    for (size_t j = 0; j <= n; ++j) {
      switch (j % 4) {
        case 0: i8[j] = 127; break;
        case 1: i8[j] = -127; break;
        default:
          i8[j] = static_cast<int8_t>(static_cast<int>(r.UniformInt(255)) - 127);
      }
      const uint16_t sign = r.Bernoulli(0.5) ? 0x8000u : 0u;
      const uint16_t mantissa = static_cast<uint16_t>(r.UniformInt(0x80));
      const uint16_t exponent =
          j % 3 == 0 ? 0 : static_cast<uint16_t>(1 + r.UniformInt(0xFE));
      bf16[j] = static_cast<uint16_t>(sign | (exponent << 7) | mantissa);
    }
  }

  Args Operands() {
    Args a;
    a.s = -0.75;
    a.scale = 0.0123;
    a.x = x.data() + 1;
    a.y = y.data() + 1;
    a.z = z.data() + 1;
    a.bf16 = bf16.data() + 1;
    a.i8 = i8.data() + 1;
    a.n = n;
    return a;
  }
};

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const char* row) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(double)))
      << "row " << row;
}

constexpr size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 31, 63, 64, 65};

// Eight accumulators over j % 8 for the whole groups of eight, summed
// pairwise, then the tail in order: the order both Dots (fp32 and fp64)
// promise, written out independently of the lane kernels.
template <typename T>
T EightAccumulatorDot(const T* a, const T* b, size_t n) {
  T s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  const size_t whole = n - n % 8;
  for (size_t j = 0; j < whole; j += 8) {
    s0 += a[j] * b[j];
    s1 += a[j + 1] * b[j + 1];
    s2 += a[j + 2] * b[j + 2];
    s3 += a[j + 3] * b[j + 3];
    s4 += a[j + 4] * b[j + 4];
    s5 += a[j + 5] * b[j + 5];
    s6 += a[j + 6] * b[j + 6];
    s7 += a[j + 7] * b[j + 7];
  }
  T dot = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
  for (size_t j = whole; j < n; ++j) dot += a[j] * b[j];
  return dot;
}

// --- skip-gram pair kernels --------------------------------------------------
//
// PairDots and PairUpdate take a center row and nt target rows: one
// skip-gram pair's positive context and negatives. Target counts cover one
// block of the dot kernel (1, 4, 6, 8) and two (9, 16); every row is an
// fp32 row one element into its own allocation.

constexpr size_t kPairTargets[] = {1, 4, 6, 8, 9, 16};

struct PairRows {
  std::vector<std::vector<float>> rows;  // [0] center, [1 .. nt] targets
  std::vector<float> coefs;
  std::vector<float> dots;
  size_t n;

  PairRows(size_t n, size_t nt, uint64_t seed)
      : rows(nt + 1, std::vector<float>(n + 1)), dots(nt), n(n) {
    Rng r(seed);
    for (auto& row : rows) {
      for (float& v : row) v = static_cast<float>(r.Uniform(-2.0, 2.0));
    }
    for (size_t t = 0; t < nt; ++t) {
      coefs.push_back(static_cast<float>(r.Uniform(-0.1, 0.1)));
    }
  }
  size_t nt() const { return rows.size() - 1; }
  float* center() { return rows[0].data() + 1; }
  std::vector<float*> targets() {
    std::vector<float*> t;
    for (size_t i = 1; i < rows.size(); ++i) t.push_back(rows[i].data() + 1);
    return t;
  }
};

LEVA_ALWAYS_INLINE void PairKernels(PairRows* p) {
  const std::vector<float*> targets = p->targets();
  simd::PairDots(p->center(), targets.data(), p->nt(), p->dots.data(), p->n);
  simd::PairUpdate(p->center(), targets.data(), p->coefs.data(), p->nt(),
                   p->n);
}

void PairKernelsPlain(PairRows* p) { PairKernels(p); }

LEVA_TARGET_CLONES
void PairKernelsCloned(PairRows* p) { PairKernels(p); }

// The scalar loops the two kernels stand for: every target's Dot in its
// promised order, then per element the gradient built target by target
// (SkipGramInit's `+ 0.0f` first, SkipGramAccum's adds after), each target
// stepped along the center, and the gradient added to the center.
void PairKernelsScalar(PairRows* p) {
  const std::vector<float*> t = p->targets();
  float* c = p->center();
  for (size_t k = 0; k < p->nt(); ++k) {
    p->dots[k] = EightAccumulatorDot(c, t[k], p->n);
  }
  for (size_t j = 0; j < p->n; ++j) {
    float grad = p->coefs[0] * t[0][j] + 0.0f;
    t[0][j] += p->coefs[0] * c[j];
    for (size_t k = 1; k < p->nt(); ++k) {
      grad += p->coefs[k] * t[k][j];
      t[k][j] += p->coefs[k] * c[j];
    }
    c[j] += grad;
  }
}

void ExpectSameBits32(const std::vector<float>& got,
                      const std::vector<float>& want, const char* row) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
      << "row " << row;
}

void ExpectPairKernelsMatchScalar(size_t n) {
  for (const size_t nt : kPairTargets) {
    for (const bool cloned : {false, true}) {
      SCOPED_TRACE("pair kernels n=" + std::to_string(n) +
                   " targets=" + std::to_string(nt) +
                   (cloned ? " cloned" : " plain"));
      PairRows want(n, nt, 9000 + 100 * n + nt);
      PairRows got = want;
      PairKernelsScalar(&want);
      (cloned ? PairKernelsCloned : PairKernelsPlain)(&got);
      ExpectSameBits32(got.dots, want.dots, "dots");
      for (size_t r = 0; r < want.rows.size(); ++r) {
        ExpectSameBits32(got.rows[r], want.rows[r], std::to_string(r).c_str());
      }
    }
  }
}

TEST(SimdTest, KernelsMatchScalarLoopsAtEveryLength) {
  for (const Kernel k : kKernels) {
    for (const size_t n : kLengths) {
      for (const bool cloned : {false, true}) {
        SCOPED_TRACE("kernel " + std::to_string(static_cast<int>(k)) +
                     " n=" + std::to_string(n) +
                     (cloned ? " cloned" : " plain"));
        const uint64_t seed = 1000 * static_cast<uint64_t>(k) + n;
        Rows want(n, seed);
        Rows got(n, seed);
        RunScalar(k, want.Operands());
        (cloned ? RunCloned : RunPlain)(k, got.Operands());
        ExpectSameBits(got.x, want.x, "x");
        ExpectSameBits(got.y, want.y, "y");
        ExpectSameBits(got.z, want.z, "z");
      }
    }
  }
  for (const size_t n : {1, 7, 8, 9, 63, 64, 65}) ExpectPairKernelsMatchScalar(n);
}

// The bf16 and int8 loads must be exact widenings: a dequantized row equals
// its codes converted one element at a time, subnormals and ±127 included.
TEST(SimdTest, DequantRowsAreExactWidenings) {
  const size_t n = 65;
  Rows rows(n, 7);
  Args a = rows.Operands();
  std::vector<double> bf16_row(n);
  std::vector<double> i8_row(n);
  simd::DequantRowBf16(bf16_row.data(), a.bf16, n);
  simd::DequantRowI8(i8_row.data(), a.i8, 1.0, n);
  size_t subnormals = 0;
  for (size_t j = 0; j < n; ++j) {
    const float f = simd::Bf16ToFloat(a.bf16[j]);
    EXPECT_EQ(bf16_row[j], static_cast<double>(f)) << "bf16[" << j << "]";
    subnormals += std::fpclassify(f) == FP_SUBNORMAL ? 1 : 0;
    EXPECT_EQ(i8_row[j], static_cast<double>(a.i8[j])) << "int8[" << j << "]";
  }
  EXPECT_GT(subnormals, 0u);
  EXPECT_GT(std::count(i8_row.begin(), i8_row.end(), 127.0), 0);
  EXPECT_GT(std::count(i8_row.begin(), i8_row.end(), -127.0), 0);
}

double DotPlain(const double* a, const double* b, size_t n) {
  return simd::Dot(a, b, n);
}

LEVA_TARGET_CLONES
double DotCloned(const double* a, const double* b, size_t n) {
  return simd::Dot(a, b, n);
}

// The fp64 Dot (GramSchmidtQ, SymmetricEigen) follows the eight-lane order
// at every length 0-40 and at 64 and 100, inlined and cloned, and that
// order is a real choice: at some of these lengths it rounds differently
// from the strict source-order sum.
TEST(SimdTest, F64DotFollowsEightLaneOrderAtEveryLength) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(64);
  lengths.push_back(100);
  size_t differs = 0;
  for (const size_t n : lengths) {
    Rows rows(n, 500 + n);
    const Args a = rows.Operands();
    const double want = EightAccumulatorDot(a.x, a.y, n);
    for (const bool cloned : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + (cloned ? " cloned" : " plain"));
      const double got = (cloned ? DotCloned : DotPlain)(a.x, a.y, n);
      EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(double)));
    }
    double strict = 0.0;
    for (size_t j = 0; j < n; ++j) strict += a.x[j] * a.y[j];
    differs += std::memcmp(&want, &strict, sizeof(double)) != 0 ? 1 : 0;
  }
  EXPECT_GT(differs, 0u);
}

// --- fp32 skip-gram kernels --------------------------------------------------
//
// The SGNS trainer's kernels run on 8-float lanes. Same checks as above, at
// every length 0-40 (every tail length, whole groups, groups plus a tail)
// and at the trainer's dims 64 and 100.

enum class Kernel32 {
  kSkipGramInit,
  kSkipGramAccum,
  kVecAdd,
  kVecAddDiv,
  kVecSub,
  kDot,
};

constexpr Kernel32 kKernels32[] = {
    Kernel32::kSkipGramInit, Kernel32::kSkipGramAccum, Kernel32::kVecAdd,
    Kernel32::kVecAddDiv,    Kernel32::kVecSub,        Kernel32::kDot,
};

std::vector<size_t> Lengths32() {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(64);
  lengths.push_back(100);
  return lengths;
}

struct Args32 {
  float s = 0.0f;  // g, or the merge divisor
  float *x = nullptr, *y = nullptr, *z = nullptr;
  float* dot = nullptr;  // kDot's result
  size_t n = 0;
};

LEVA_ALWAYS_INLINE void Dispatch32(Kernel32 k, const Args32& a) {
  switch (k) {
    case Kernel32::kSkipGramInit:
      return simd::SkipGramInit(a.s, a.x, a.y, a.z, a.n);
    case Kernel32::kSkipGramAccum:
      return simd::SkipGramAccum(a.s, a.x, a.y, a.z, a.n);
    case Kernel32::kVecAdd:
      return simd::VecAdd(a.x, a.y, a.n);
    case Kernel32::kVecAddDiv:
      return simd::VecAddDiv(a.x, a.y, a.s, a.n);
    case Kernel32::kVecSub:
      return simd::VecSub(a.x, a.y, a.n);
    case Kernel32::kDot:
      *a.dot = simd::Dot(a.x, a.y, a.n);
      return;
  }
}

void RunPlain32(Kernel32 k, const Args32& a) { Dispatch32(k, a); }

LEVA_TARGET_CLONES
void RunCloned32(Kernel32 k, const Args32& a) { Dispatch32(k, a); }

// The scalar loop each fp32 kernel stands for.
void RunScalar32(Kernel32 k, const Args32& a) {
  if (k == Kernel32::kDot) {
    *a.dot = EightAccumulatorDot(a.x, a.y, a.n);
    return;
  }
  for (size_t j = 0; j < a.n; ++j) {
    switch (k) {
      case Kernel32::kSkipGramInit:
        a.z[j] = a.s * a.y[j] + 0.0f;
        a.y[j] += a.s * a.x[j];
        break;
      case Kernel32::kSkipGramAccum:
        a.z[j] += a.s * a.y[j];
        a.y[j] += a.s * a.x[j];
        break;
      case Kernel32::kVecAdd:
        a.x[j] += a.y[j];
        break;
      case Kernel32::kVecAddDiv:
        a.x[j] += a.y[j] / a.s;
        break;
      case Kernel32::kVecSub:
        a.x[j] -= a.y[j];
        break;
      case Kernel32::kDot:
        break;
    }
  }
}

// fp32 rows laid out like Rows: one element into the allocation, ending
// where it ends.
struct Rows32 {
  std::vector<float> x, y, z;
  float dot = 0.0f;
  size_t n;

  Rows32(size_t n, uint64_t seed) : n(n) {
    Rng r(seed);
    for (std::vector<float>* v : {&x, &y, &z}) {
      v->resize(n + 1);
      for (float& f : *v) f = static_cast<float>(r.Uniform(-2.0, 2.0));
    }
  }

  Args32 Operands() {
    Args32 a;
    a.s = -0.75f;
    a.x = x.data() + 1;
    a.y = y.data() + 1;
    a.z = z.data() + 1;
    a.dot = &dot;
    a.n = n;
    return a;
  }
};

TEST(SimdTest, F32KernelsMatchScalarLoopsAtEveryLength) {
  for (const Kernel32 k : kKernels32) {
    for (const size_t n : Lengths32()) {
      for (const bool cloned : {false, true}) {
        SCOPED_TRACE("fp32 kernel " + std::to_string(static_cast<int>(k)) +
                     " n=" + std::to_string(n) +
                     (cloned ? " cloned" : " plain"));
        const uint64_t seed = 7000 + 1000 * static_cast<uint64_t>(k) + n;
        Rows32 want(n, seed);
        Rows32 got(n, seed);
        RunScalar32(k, want.Operands());
        (cloned ? RunCloned32 : RunPlain32)(k, got.Operands());
        ExpectSameBits32(got.x, want.x, "x");
        ExpectSameBits32(got.y, want.y, "y");
        ExpectSameBits32(got.z, want.z, "z");
        EXPECT_EQ(0, std::memcmp(&got.dot, &want.dot, sizeof(float)));
      }
    }
  }
}

// The lane order is a real choice: on these rows the kernel (pinned to the
// 8-accumulator order above) rounds differently from the strict source-order
// sum at some lengths, so the check above would catch a kernel that summed
// in source order.
TEST(SimdTest, F32DotFollowsEightLaneOrderNotSourceOrder) {
  size_t differs = 0;
  for (const size_t n : Lengths32()) {
    Rows32 rows(n, 90 + n);
    const Args32 a = rows.Operands();
    float strict = 0.0f;
    for (size_t j = 0; j < n; ++j) strict += a.x[j] * a.y[j];
    const float lanes = simd::Dot(a.x, a.y, n);
    differs += std::memcmp(&lanes, &strict, sizeof(float)) != 0 ? 1 : 0;
  }
  EXPECT_GT(differs, 0u);
}

// g * target[j] is -0.0f whenever the signs differ and one factor is zero;
// the kernel's `+ 0.0f` must turn that into +0.0f in every lane and in the
// tail, exactly like the zero-fill-then-accumulate it stands for.
TEST(SimdTest, SkipGramInitNormalizesNegativeZero) {
  for (const size_t n : Lengths32()) {
    for (const bool cloned : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + (cloned ? " cloned" : " plain"));
      Rows32 rows(n, n);
      for (float& t : rows.y) t = 0.0f;
      Args32 a = rows.Operands();
      a.s = -1.0f;  // -1.0f * +0.0f == -0.0f
      (cloned ? RunCloned32 : RunPlain32)(Kernel32::kSkipGramInit, a);
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(a.z[j], 0.0f);
        EXPECT_FALSE(std::signbit(a.z[j])) << "grad[" << j << "] is -0.0";
      }
    }
  }
}

// --- chained kernels ---------------------------------------------------------
//
// The hot loops re-read rows a kernel has just written: a skip-gram pair
// writes the gradient (SkipGramInit, then SkipGramAccum per negative), adds
// it to the center row (VecAdd), and the next pair's Dot reads that center
// row; a fused pair (PairDots, then PairUpdate) writes the center and target
// rows the next pair's PairDots reads; the featurize gather adds source row after source row into one
// accumulator before MeanStore drains it. Each chain must match the scalar
// sequence bit for bit, every store landing whole before the next load.

constexpr size_t kChainLengths[] = {1, 7, 8, 9, 63, 64, 65};
constexpr size_t kChainPairs = 3;
constexpr size_t kChainTargets = 4;  // one positive, three negatives

// Rows of n elements one element into their allocation, as above.
template <typename T>
std::vector<std::vector<T>> ChainRows(size_t count, size_t n, uint64_t seed) {
  Rng r(seed);
  std::vector<std::vector<T>> rows(count, std::vector<T>(n + 1));
  for (auto& row : rows) {
    for (T& v : row) v = static_cast<T>(r.Uniform(-1.0, 1.0));
  }
  return rows;
}

// The pair's step size from its dot, as the trainer derives one: the next
// kernel call depends on the bits of the last one.
float ChainCoef(float dot, size_t t) {
  return (t == 0 ? 0.05f : -0.05f) / (1.0f + std::fabs(dot));
}

// rows[0] is the center, rows[1 .. kChainTargets] the targets, rows.back()
// the gradient; dots receives each pair's last Dot.
LEVA_ALWAYS_INLINE void SkipGramChain(std::vector<std::vector<float>>* rows,
                                      float* dots, size_t n) {
  float* center = (*rows)[0].data() + 1;
  float* grad = rows->back().data() + 1;
  for (size_t p = 0; p < kChainPairs; ++p) {
    for (size_t t = 0; t < kChainTargets; ++t) {
      float* target = (*rows)[1 + t].data() + 1;
      const float g = ChainCoef(simd::Dot(center, target, n), t);
      if (t == 0) {
        simd::SkipGramInit(g, center, target, grad, n);
      } else {
        simd::SkipGramAccum(g, center, target, grad, n);
      }
    }
    simd::VecAdd(center, grad, n);
    dots[p] = simd::Dot(center, (*rows)[1].data() + 1, n);
  }
}

// The same pairs through the fused kernels, as the trainer runs a pair whose
// targets are distinct: all dots in one pass (PairDots), then every update
// in one more (PairUpdate). pair_dots receives every dot of every pair.
LEVA_ALWAYS_INLINE void PairChain(std::vector<std::vector<float>>* rows,
                                  float* pair_dots, size_t n) {
  float* center = (*rows)[0].data() + 1;
  float* targets[kChainTargets];
  for (size_t t = 0; t < kChainTargets; ++t) {
    targets[t] = (*rows)[1 + t].data() + 1;
  }
  for (size_t p = 0; p < kChainPairs; ++p) {
    float* dots = pair_dots + p * kChainTargets;
    simd::PairDots(center, targets, kChainTargets, dots, n);
    float coefs[kChainTargets];
    for (size_t t = 0; t < kChainTargets; ++t) coefs[t] = ChainCoef(dots[t], t);
    simd::PairUpdate(center, targets, coefs, kChainTargets, n);
  }
}

// rows[0] is the accumulator, rows[1 ..] the fp64 sources, rows.back() the
// mean's output row; bf16 and i8 are one more source each.
LEVA_ALWAYS_INLINE void GatherChain(std::vector<std::vector<double>>* rows,
                                    const uint16_t* bf16, const int8_t* i8,
                                    size_t n) {
  double* acc = (*rows)[0].data() + 1;
  for (size_t s = 1; s + 1 < rows->size(); ++s) {
    simd::GatherAdd(acc, (*rows)[s].data() + 1, 0.25 * static_cast<double>(s),
                    n);
  }
  simd::GatherAddBf16(acc, bf16, -0.5, n);
  simd::DequantGatherAdd(acc, i8, 0.0123, 0.75, n);
  simd::GatherAdd(acc, (*rows)[1].data() + 1, -1.0, n);
  simd::MeanStore(acc, 3.0, rows->back().data() + 1, nullptr, n);
}

LEVA_TARGET_CLONES
void ChainsCloned(std::vector<std::vector<float>>* f32, float* dots,
                  float* pair_dots, std::vector<std::vector<double>>* f64,
                  const uint16_t* bf16, const int8_t* i8, size_t n) {
  SkipGramChain(f32, dots, n);
  PairChain(f32, pair_dots, n);
  GatherChain(f64, bf16, i8, n);
}

// The same sequences as scalar loops, with the Dot in its promised order.
// A fused pair computes every dot before its first update, so its scalar
// form does too.
void ChainsScalar(std::vector<std::vector<float>>* f32, float* dots,
                  float* pair_dots, std::vector<std::vector<double>>* f64,
                  const uint16_t* bf16, const int8_t* i8, size_t n) {
  float* center = (*f32)[0].data() + 1;
  float* grad = f32->back().data() + 1;
  for (size_t p = 0; p < kChainPairs; ++p) {
    for (size_t t = 0; t < kChainTargets; ++t) {
      float* target = (*f32)[1 + t].data() + 1;
      const float g = ChainCoef(EightAccumulatorDot(center, target, n), t);
      for (size_t j = 0; j < n; ++j) {
        grad[j] = t == 0 ? g * target[j] + 0.0f : grad[j] + g * target[j];
        target[j] += g * center[j];
      }
    }
    for (size_t j = 0; j < n; ++j) center[j] += grad[j];
    dots[p] = EightAccumulatorDot(center, (*f32)[1].data() + 1, n);
  }
  for (size_t p = 0; p < kChainPairs; ++p) {
    float g[kChainTargets];
    for (size_t t = 0; t < kChainTargets; ++t) {
      float* target = (*f32)[1 + t].data() + 1;
      pair_dots[p * kChainTargets + t] = EightAccumulatorDot(center, target, n);
      g[t] = ChainCoef(pair_dots[p * kChainTargets + t], t);
    }
    // The gradient lives in a register: the gradient row is not written.
    for (size_t j = 0; j < n; ++j) {
      float gj = 0.0f;
      for (size_t t = 0; t < kChainTargets; ++t) {
        float* target = (*f32)[1 + t].data() + 1;
        gj = t == 0 ? g[t] * target[j] + 0.0f : gj + g[t] * target[j];
        target[j] += g[t] * center[j];
      }
      center[j] += gj;
    }
  }
  double* acc = (*f64)[0].data() + 1;
  for (size_t s = 1; s + 1 < f64->size(); ++s) {
    const double* src = (*f64)[s].data() + 1;
    const double w = 0.25 * static_cast<double>(s);
    for (size_t j = 0; j < n; ++j) acc[j] += w * src[j];
  }
  for (size_t j = 0; j < n; ++j) {
    acc[j] += -0.5 * static_cast<double>(simd::Bf16ToFloat(bf16[j]));
    acc[j] += 0.75 * (0.0123 * static_cast<double>(i8[j]));
    acc[j] += -1.0 * (*f64)[1][j + 1];
    f64->back()[j + 1] = acc[j] / 3.0;
    acc[j] = 0.0;
  }
}

TEST(SimdTest, ChainedKernelsMatchScalarSequence) {
  for (const size_t n : kChainLengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Rows quantized(n, 40 + n);
    const uint16_t* bf16 = quantized.bf16.data() + 1;
    const int8_t* i8 = quantized.i8.data() + 1;
    auto want32 = ChainRows<float>(kChainTargets + 2, n, 60 + n);
    auto want64 = ChainRows<double>(7, n, 80 + n);
    auto got32 = want32;
    auto got64 = want64;
    float want_dots[kChainPairs], got_dots[kChainPairs];
    float want_pair_dots[kChainPairs * kChainTargets];
    float got_pair_dots[kChainPairs * kChainTargets];
    ChainsScalar(&want32, want_dots, want_pair_dots, &want64, bf16, i8, n);
    ChainsCloned(&got32, got_dots, got_pair_dots, &got64, bf16, i8, n);
    EXPECT_EQ(0, std::memcmp(got_dots, want_dots, sizeof(want_dots)));
    EXPECT_EQ(0, std::memcmp(got_pair_dots, want_pair_dots,
                             sizeof(want_pair_dots)));
    for (size_t r = 0; r < want32.size(); ++r) {
      const std::string row = "fp32 " + std::to_string(r);
      ExpectSameBits32(got32[r], want32[r], row.c_str());
    }
    for (size_t r = 0; r < want64.size(); ++r) {
      const std::string row = "fp64 " + std::to_string(r);
      ExpectSameBits(got64[r], want64[r], row.c_str());
    }
  }
}

// --- CRC32C ------------------------------------------------------------------
//
// Crc32c runs the SSE4.2 kernel where the CPU has it; these cases compare it
// with the slice-by-8 oracle (internal::Crc32cSliceBy8) and with the RFC
// 3720 vectors. The lengths straddle the kernel's three-stream block
// (3 x 4096 bytes in common/io.cc), its 8-byte steps and its byte tail.

bool HardwareCrc32c() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

constexpr size_t kCrcBlock = 4096;

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

// RFC 3720 section B.4: 32-byte iSCSI test patterns.
TEST(SimdTest, Crc32cRfc3720Vectors) {
  unsigned char zeros[32], ones[32], incrementing[32], decrementing[32];
  for (int i = 0; i < 32; ++i) {
    zeros[i] = 0x00;
    ones[i] = 0xFF;
    incrementing[i] = static_cast<unsigned char>(i);
    decrementing[i] = static_cast<unsigned char>(31 - i);
  }
  const struct {
    const unsigned char* data;
    uint32_t crc;
  } vectors[] = {{zeros, 0x8A9136AAu},
                 {ones, 0x62A8AB43u},
                 {incrementing, 0x46DD794Eu},
                 {decrementing, 0x113FDB5Cu}};
  for (const auto& v : vectors) {
    EXPECT_EQ(internal::Crc32cSliceBy8(v.data, 32, 0), v.crc);
    EXPECT_EQ(Crc32c(v.data, 32), v.crc);
  }
}

// Every length up to three blocks + 64 bytes at every start offset 0-7 (so
// loads are unaligned), cycling through zero and non-zero seeds.
TEST(SimdTest, Crc32cHardwareMatchesSliceBy8AtEveryLength) {
  if (!HardwareCrc32c()) GTEST_SKIP() << "CPU has no SSE4.2";
  const uint32_t seeds[] = {0u, 0xFFFFFFFFu, 0x1EDC6F41u};
  const size_t max_len = 3 * kCrcBlock + 64;
  const std::vector<unsigned char> buf = RandomBytes(max_len + 8, 1);
  for (size_t n = 0; n <= max_len; ++n) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const unsigned char* p = buf.data() + offset;
      const uint32_t seed = seeds[(n + offset) % 3];
      ASSERT_EQ(Crc32c(p, n, seed), internal::Crc32cSliceBy8(p, n, seed))
          << "n=" << n << " offset=" << offset << " seed=" << seed;
    }
  }
}

// Frame- and page-sized buffers at every start offset and several seeds:
// one 4 KiB page, one 4-row dim-256 Row+Value FEATURIZE response payload
// (16 KiB of features + 26 header bytes), and 1 MiB.
TEST(SimdTest, Crc32cHardwareMatchesSliceBy8OnLargeBuffers) {
  if (!HardwareCrc32c()) GTEST_SKIP() << "CPU has no SSE4.2";
  const size_t lengths[] = {kCrcBlock, 16384 + 26, size_t{1} << 20};
  const std::vector<unsigned char> buf = RandomBytes((size_t{1} << 20) + 8, 2);
  for (const size_t n : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (const uint32_t seed : {0u, 0xFFFFFFFFu, 0x8A9136AAu}) {
        const unsigned char* p = buf.data() + offset;
        ASSERT_EQ(Crc32c(p, n, seed), internal::Crc32cSliceBy8(p, n, seed))
            << "n=" << n << " offset=" << offset << " seed=" << seed;
      }
    }
  }
}

// Chaining through `seed` gives the one-shot value at every split point.
TEST(SimdTest, Crc32cChainingMatchesOneShotAtEverySplit) {
  const std::vector<unsigned char> buf = RandomBytes(257, 3);
  const size_t n = buf.size();
  const uint32_t whole = internal::Crc32cSliceBy8(buf.data(), n, 0);
  EXPECT_EQ(Crc32c(buf.data(), n), whole);
  for (size_t k = 0; k <= n; ++k) {
    const uint32_t sliced = internal::Crc32cSliceBy8(
        buf.data() + k, n - k, internal::Crc32cSliceBy8(buf.data(), k, 0));
    const uint32_t dispatched =
        Crc32c(buf.data() + k, n - k, Crc32c(buf.data(), k));
    EXPECT_EQ(sliced, whole) << "slice-by-8 split at " << k;
    EXPECT_EQ(dispatched, whole) << "Crc32c split at " << k;
  }
}

}  // namespace
}  // namespace leva
