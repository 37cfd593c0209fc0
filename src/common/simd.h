#ifndef LEVA_COMMON_SIMD_H_
#define LEVA_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

// Shared SIMD plumbing for the hot kernels (featurize gather, skip-gram
// training, the dense LA of MF Fit): a multi-versioning macro, a prefetch
// shim, 32-byte lane helpers (4 doubles or 8 floats), and the inline
// element-wise kernels built on them.
//
// Callers in src/la/ (each a LEVA_TARGET_CLONES function): the block
// Gram-Schmidt of GramSchmidtQ (BlockProject and BlockUpdate on F64x4 lanes
// over 16-column panels, PanelMgs with Dot, GatherAdd and Scale over rows of
// the transposed panel), SymmetricEigen's Householder tridiagonalization
// (Tridiagonalize: Dot, GatherAdd, SubRank2 over rows of Vᵀ) and implicit QL
// (TridiagonalQl: Rotate over rows of Vᵀ), the MatMul/MatTMul row-range
// helpers and the CSR Multiply/TransposeMultiply row helpers (GatherAdd),
// and Matrix::AddScaled/Scale (GatherAdd, Scale).
//
// LEVA_TARGET_CLONES: runtime-dispatched function multi-versioning. Apply it
// to the HOT OUTER FUNCTION (the loop that calls the kernels below), not to
// the kernels themselves: the kernels are always-inline, so each clone
// inlines them and compiles their lanes with its own ISA — one 256-bit ymm
// vmulpd/vaddpd per 4 fp64 lanes (vmulps/vaddps per 8 fp32 lanes) in the
// "avx2" clone, an SSE2 xmm pair in the "default" clone — with zero per-call
// dispatch overhead. A kernel inlined into a plain function gets the SSE2
// code even on an AVX2 CPU, stores included (see Store), so every caller in
// src/ is a LEVA_TARGET_CLONES function.
//
// Explicit lanes: the element-wise kernels are written on 32-byte GCC vector
// types (F64x4, F32x8, see ForLanes below), not as plain `for (j < n)` loops
// left to the auto-vectorizer. At -O2 (the default RelWithDebInfo build)
// GCC 12 runs the vectorizer with its "very-cheap" cost model, which rejects
// any loop whose trip count is not known to be a multiple of the vector
// width — every `n`-length loop here — so plain loops compile to scalar
// vmulsd/vaddsd even inside the "avx2" clone; only -O3 vectorizes them. The
// explicit lanes are vector code at every optimization level.
//
// Bit-exactness contract: every lane performs the same correctly-rounded
// IEEE mul/add/div, in the same order, as the scalar loop it replaces (each
// kernel's tail evaluates that very expression on plain doubles or floats),
// so every clone produces the same bits. FMA-capable targets (avx512f, or
// avx2+fma) are deliberately excluded: contracting mul+add into a
// single-rounding fma would change the bits, and the differential tests pin
// bit-identity against the scalar reference paths
// (tools/check_simd_codegen.sh fails on any fma instruction in a guarded
// avx2 clone). Reductions spell out their order: both Dots (fp32 and
// fp64) and PairDots sum in one fixed 8-lane partial-sum tree. Without
// -ffast-math the compiler cannot reassociate it, so every clone rounds it
// identically too.
//
// ThreadSanitizer exclusion: target_clones dispatches through an IFUNC whose
// resolver runs during relocation, before the TSan runtime is initialized —
// any instrumented binary segfaults at startup. Under LEVA_SANITIZE=thread
// the macro collapses to the single "default" version, which is the code
// path TSan needs to race-check anyway.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define LEVA_TARGET_CLONES __attribute__((target_clones("default", "avx2")))
#else
#define LEVA_TARGET_CLONES
#endif

#if defined(__GNUC__)
#define LEVA_PREFETCH(p) __builtin_prefetch(p)
#else
#define LEVA_PREFETCH(p)
#endif

// The kernels below must actually inline: under the target_clones caller
// pattern each clone recompiles the kernel loops with its ISA, and an
// out-of-line kernel would run at the baseline ISA in every clone.
// always_inline holds at -O0, which is how sanitizer builds compile. The lane
// bodies the kernels hand to ForLanes are lambdas — functions of their own —
// so they carry LEVA_ALWAYS_INLINE_LAMBDA for the same reason.
#if defined(__GNUC__)
#define LEVA_ALWAYS_INLINE inline __attribute__((always_inline))
#define LEVA_ALWAYS_INLINE_LAMBDA __attribute__((always_inline))
#else
#define LEVA_ALWAYS_INLINE inline
#define LEVA_ALWAYS_INLINE_LAMBDA
#endif

namespace leva {
namespace simd {

// None of these kernels may use FMA contraction or reassociation: each is
// the bit-exact form of a scalar reference loop (see above).

// ---------------------------------------------------------------------------
// Lanes. F64x4 holds four doubles and F32x8 eight floats: one ymm register
// where AVX is enabled (the "avx2" clone), an xmm pair otherwise. Loads and
// stores go through memcpy, so rows need no alignment. No vector value
// crosses a function boundary — the helpers take pointers and references,
// and every kernel body is an always-inline lambda — because passing a
// 32-byte vector by value in a translation unit compiled without AVX changes
// the calling convention (GCC's -Wpsabi).
using F64x4 = double __attribute__((vector_size(32)));
using F32x8 = float __attribute__((vector_size(32)));

/// The 32-byte lane group of element type T, and its lane count.
template <typename T>
using Lanes = std::conditional_t<std::is_same_v<T, float>, F32x8, F64x4>;
template <typename T>
constexpr size_t kLanes = sizeof(Lanes<T>) / sizeof(T);

/// Runs `body.template operator()<Lanes<T>>(j)` on every full lane group of
/// [0, n), then `body.template operator()<T>(j)` on each remaining element.
/// A kernel passes one generic body, so its scalar tail evaluates the lanes'
/// own expression on plain T.
template <typename T = double, typename Body>
LEVA_ALWAYS_INLINE void ForLanes(size_t n, Body&& body) {
  size_t j = 0;
  for (; j + kLanes<T> <= n; j += kLanes<T>) {
    body.template operator()<Lanes<T>>(j);
  }
  for (; j < n; ++j) body.template operator()<T>(j);
}

/// *v = p[0 .. lanes of V).
template <typename V, typename T>
LEVA_ALWAYS_INLINE void Load(V* v, const T* p) {
  std::memcpy(v, p, sizeof(V));
}

/// p[0 .. lanes of V) = v, as one full-width store. A lane group is stored
/// at the width it is loaded, or the next load of it cannot forward: the
/// kernels re-read rows they just wrote (the SGNS gradient and center row
/// from pair to pair, a gather accumulator from source row to source row, a
/// dense-LA row from update to update), and a 32-byte load that spans two
/// in-flight 16-byte stores waits for both to retire instead of forwarding.
/// The "default" (SSE2) clone, which runs only without AVX2 and under TSan,
/// pays for this: GCC routes its 32-byte store through a stack temporary.
template <typename T, typename V>
LEVA_ALWAYS_INLINE void Store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

// The kernels below each apply one scalar expression per element j; the
// comment above each gives it. A lane group loads all of its inputs before
// it stores, so the streams of one call must not overlap — callers pass
// node and context rows from distinct matrices, caller-private gradient and
// accumulator buffers, and output rows distinct from their sources.

// Skip-gram (SGNS) kernels. The trainer keeps its node and context rows in
// fp32 (src/embed/word2vec.cc), so these run on F32x8 lanes: eight floats
// per ymm, half the bytes per touched row of the fp64 form.

/// Fixed-order fp32 dot product: eight partial sums s_l over the elements
/// j < 8 * floor(n / 8) with j mod 8 == l, combined as
///   ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)),
/// then the remaining elements added one at a time in order. One lane group
/// is one partial-sum vector, so the eight adds of a group run in parallel
/// where the strict source order is a chain of n dependent adds. The order
/// is written out, never left to the compiler, so every clone, ISA and
/// thread count gives the same bits.
LEVA_ALWAYS_INLINE float Dot(const float* a, const float* b, size_t n) {
  F32x8 s = {};
  size_t j = 0;
  for (; j + kLanes<float> <= n; j += kLanes<float>) {
    F32x8 x, y;
    Load(&x, a + j);
    Load(&y, b + j);
    s = s + x * y;
  }
  float dot = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
  for (; j < n; ++j) dot += a[j] * b[j];
  return dot;
}

/// First (positive-sample) step of a skip-gram pair:
///   grad[j]   = g * target[j] + 0.0f;
///   target[j] += g * center[j];
/// The `+ 0.0f` reproduces the reference path's zeroed-buffer accumulation
/// (`0.0f + x` normalizes -0.0f exactly like the fill-then-add it replaces)
/// without paying a separate std::fill pass over the gradient buffer.
LEVA_ALWAYS_INLINE void SkipGramInit(float g, const float* center,
                                     float* target, float* grad, size_t n) {
  ForLanes<float>(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V t, c;
    Load(&t, target + j);
    Load(&c, center + j);
    Store(grad + j, g * t + 0.0f);
    Store(target + j, t + g * c);
  });
}

/// Negative-sample step of a skip-gram pair:
///   grad[j]   += g * target[j];
///   target[j] += g * center[j];
LEVA_ALWAYS_INLINE void SkipGramAccum(float g, const float* center,
                                      float* target, float* grad, size_t n) {
  ForLanes<float>(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V t, c, d;
    Load(&t, target + j);
    Load(&c, center + j);
    Load(&d, grad + j);
    Store(grad + j, d + g * t);
    Store(target + j, t + g * c);
  });
}

/// out[i] = lane i of ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) +
/// (s[6] + s[7])) taken across the eight lanes of s[i]: each of eight
/// partial-sum vectors reduced in Dot's order, all eight at once. Three
/// rounds of lane shuffles pair the partial sums up as Dot does: (s0 + s1),
/// then (s01 + s23), each an even/odd shuffle pair within 128-bit halves,
/// then (s0123 + s4567) across the halves; each round is one add for all
/// eight vectors, where eight separate reductions take seven adds each.
LEVA_ALWAYS_INLINE void ReduceEight(const F32x8 (&s)[8], F32x8* out) {
  // [a0+a1, a2+a3, b0+b1, b2+b3 | a4+a5, a6+a7, b4+b5, b6+b7]
  F32x8 p[4];
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    p[i] = __builtin_shufflevector(s[2 * i], s[2 * i + 1], 0, 2, 8, 10, 4, 6,
                                   12, 14) +
           __builtin_shufflevector(s[2 * i], s[2 * i + 1], 1, 3, 9, 11, 5, 7,
                                   13, 15);
  }
  // [a0123, b0123, c0123, d0123 | a4567, b4567, c4567, d4567]
  F32x8 q[2];
#pragma GCC unroll 2
  for (int i = 0; i < 2; ++i) {
    q[i] = __builtin_shufflevector(p[2 * i], p[2 * i + 1], 0, 2, 8, 10, 4, 6,
                                   12, 14) +
           __builtin_shufflevector(p[2 * i], p[2 * i + 1], 1, 3, 9, 11, 5, 7,
                                   13, 15);
  }
  *out = __builtin_shufflevector(q[0], q[1], 0, 1, 2, 3, 8, 9, 10, 11) +
         __builtin_shufflevector(q[0], q[1], 4, 5, 6, 7, 12, 13, 14, 15);
}

/// dots[t] = Dot(center, targets[t], n) for t < M <= 8, in one pass over
/// center: one partial-sum vector per target, reduced together.
template <size_t M>
LEVA_ALWAYS_INLINE void DotBlock(const float* center, float* const* targets,
                                 float* dots, size_t n) {
  F32x8 s[8] = {};
  size_t j = 0;
  for (; j + kLanes<float> <= n; j += kLanes<float>) {
    F32x8 c;
    Load(&c, center + j);
#pragma GCC unroll 8
    for (size_t t = 0; t < M; ++t) {
      F32x8 x;
      Load(&x, targets[t] + j);
      s[t] = s[t] + c * x;
    }
  }
  F32x8 r;
  ReduceEight(s, &r);
#pragma GCC unroll 8
  for (size_t t = 0; t < M; ++t) {
    float dot = r[t];
    for (size_t k = j; k < n; ++k) dot += center[k] * targets[t][k];
    dots[t] = dot;
  }
}

/// dots[t] = Dot(center, targets[t], n) for every t < nt, bit for bit: the
/// dots of one skip-gram pair (the positive context and its negatives). The
/// targets go in blocks of up to eight, one pass over the center row per
/// block, so each lane group of the center is loaded once for all of them.
LEVA_ALWAYS_INLINE void PairDots(const float* center, float* const* targets,
                                 size_t nt, float* dots, size_t n) {
  for (size_t b = 0; b < nt; b += 8) {
    float* const* t = targets + b;
    float* d = dots + b;
    switch (nt - b < 8 ? nt - b : 8) {
      case 1: DotBlock<1>(center, t, d, n); break;
      case 2: DotBlock<2>(center, t, d, n); break;
      case 3: DotBlock<3>(center, t, d, n); break;
      case 4: DotBlock<4>(center, t, d, n); break;
      case 5: DotBlock<5>(center, t, d, n); break;
      case 6: DotBlock<6>(center, t, d, n); break;
      case 7: DotBlock<7>(center, t, d, n); break;
      default: DotBlock<8>(center, t, d, n); break;
    }
  }
}

/// All updates of one skip-gram pair, over nt >= 1 distinct target rows t_k
/// with coefficients g[k]:
///   grad = g[0] * t_0[j] + 0.0f;      t_0[j] += g[0] * center[j];
///   grad = grad + g[k] * t_k[j];      t_k[j] += g[k] * center[j];
///                                       (k = 1 .. nt - 1, in order)
///   center[j] += grad;
/// the per-element sequence of SkipGramInit, SkipGramAccum for each further
/// target and VecAdd, with the gradient kept in a register instead of a
/// buffer: each lane group of the center is loaded once and stored once,
/// each target row's once.
LEVA_ALWAYS_INLINE void PairUpdate(float* center, float* const* targets,
                                   const float* g, size_t nt, size_t n) {
  ForLanes<float>(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V c, t;
    Load(&c, center + j);
    Load(&t, targets[0] + j);
    V grad = g[0] * t + 0.0f;
    Store(targets[0] + j, t + g[0] * c);
    for (size_t k = 1; k < nt; ++k) {
      Load(&t, targets[k] + j);
      grad = grad + g[k] * t;
      Store(targets[k] + j, t + g[k] * c);
    }
    Store(center + j, c + grad);
  });
}

/// x[j] += d[j]. Applies the accumulated pair gradient to the center vector,
/// and merges a shard's node-row delta into the shared weights.
LEVA_ALWAYS_INLINE void VecAdd(float* x, const float* d, size_t n) {
  ForLanes<float>(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V xv, dv;
    Load(&xv, x + j);
    Load(&dv, d + j);
    Store(x + j, xv + dv);
  });
}

/// x[j] += d[j] / c. Merges a shard's context-row delta, averaged over the
/// c shards of the round that touched the row (a true division: c == 1
/// adds d exactly as VecAdd does).
LEVA_ALWAYS_INLINE void VecAddDiv(float* x, const float* d, float c,
                                  size_t n) {
  ForLanes<float>(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V xv, dv;
    Load(&xv, x + j);
    Load(&dv, d + j);
    Store(x + j, xv + dv / c);
  });
}

/// x[j] -= y[j]. Turns a shard's trained row copy into its delta against
/// the round-start weights in the sharded SGNS trainer.
LEVA_ALWAYS_INLINE void VecSub(float* x, const float* y, size_t n) {
  ForLanes<float>(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V xv, yv;
    Load(&xv, x + j);
    Load(&yv, y + j);
    Store(x + j, xv - yv);
  });
}

// The dense-LA and featurize kernels below run on fp64 F64x4 lanes.

/// Fixed-order fp64 dot product, in the same order as the fp32 Dot: eight
/// partial sums s_l over the elements j < 8 * floor(n / 8) with
/// j mod 8 == l (two F64x4 lane groups), combined as
///   ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)),
/// then the remaining elements added one at a time in order. The dense-LA
/// dots of GramSchmidtQ and SymmetricEigen.
LEVA_ALWAYS_INLINE double Dot(const double* a, const double* b, size_t n) {
  F64x4 lo = {}, hi = {};
  size_t j = 0;
  for (; j + 2 * kLanes<double> <= n; j += 2 * kLanes<double>) {
    F64x4 xl, yl, xh, yh;
    Load(&xl, a + j);
    Load(&yl, b + j);
    Load(&xh, a + j + kLanes<double>);
    Load(&yh, b + j + kLanes<double>);
    lo = lo + xl * yl;
    hi = hi + xh * yh;
  }
  double dot = ((lo[0] + lo[1]) + (lo[2] + lo[3])) +
               ((hi[0] + hi[1]) + (hi[2] + hi[3]));
  for (; j < n; ++j) dot += a[j] * b[j];
  return dot;
}

/// acc[j] += w * src[j]: one weighted fp64 row of the featurize gather, and
/// the axpy of every dense-LA inner loop (matmul rows, CSR rows and
/// scatters, in-block Gram-Schmidt projections, the tridiagonalization's
/// matrix-vector product and back-transformation, Matrix::AddScaled).
LEVA_ALWAYS_INLINE void GatherAdd(double* acc, const double* src, double w,
                                  size_t n) {
  ForLanes(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V a, s;
    Load(&a, acc + j);
    Load(&s, src + j);
    Store(acc + j, a + w * s);
  });
}

/// x[j] *= alpha. Normalizes a Gram-Schmidt column; Matrix::Scale.
LEVA_ALWAYS_INLINE void Scale(double* x, double alpha, size_t n) {
  ForLanes(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V xv;
    Load(&xv, x + j);
    Store(x + j, xv * alpha);
  });
}

/// x[j] -= f * a[j] + g * b[j]: the symmetric rank-2 update of one row in
/// the Householder tridiagonalization of SymmetricEigen.
LEVA_ALWAYS_INLINE void SubRank2(double* x, const double* a, const double* b,
                                 double f, double g, size_t n) {
  ForLanes(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V xv, av, bv;
    Load(&xv, x + j);
    Load(&av, a + j);
    Load(&bv, b + j);
    Store(x + j, xv - (f * av + g * bv));
  });
}

/// Plane rotation of two distinct rows:
///   x'[j] = c * x[j] - s * y[j];
///   y'[j] = s * x[j] + c * y[j];
/// both from the original x[j], y[j]. One implicit-QL rotation of
/// SymmetricEigen (rows i, i + 1 of Vᵀ).
LEVA_ALWAYS_INLINE void Rotate(double* x, double* y, double c, double s,
                               size_t n) {
  ForLanes(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V xv, yv;
    Load(&xv, x + j);
    Load(&yv, y + j);
    Store(x + j, c * xv - s * yv);
    Store(y + j, s * xv + c * yv);
  });
}

/// out[j] = acc[j] / weight (and dup[j] = the same, when dup is non-null);
/// acc[j] = 0.0. Finishes one weighted-mean row of the featurize gather — a
/// true division, not a multiply by the reciprocal — and re-zeroes the
/// accumulator for the next row.
LEVA_ALWAYS_INLINE void MeanStore(double* acc, double weight, double* out,
                                  double* dup, size_t n) {
  ForLanes(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V a;
    Load(&a, acc + j);
    const V v = a / weight;
    Store(out + j, v);
    if (dup != nullptr) Store(dup + j, v);
    Store(acc + j, V{});
  });
}

// ---------------------------------------------------------------------------
// Quantized-tier primitives (storage tiers of the embedding matrix; see
// DESIGN.md "Quantized serving"). bf16 is the upper 16 bits of an IEEE fp32:
// widening bf16 -> fp32 -> fp64 is exact (a bit shift plus a lossless float
// promotion), so only the encode direction rounds. int8 rows carry a per-row
// scale: value = scale * q with q in [-127, 127]. The fused gather kernels
// below compute `acc[j] += w * (scale * q[j])` with exactly the rounding
// sequence of the reference path (dequantize the element, then weight it,
// then accumulate) — folding `w * scale` into one factor would round
// differently and break the fast-vs-legacy bit-parity tests.

/// Widens a bf16 pattern to fp32. Exact: bf16 is a truncated fp32.
LEVA_ALWAYS_INLINE float Bf16ToFloat(uint16_t b) {
  const uint32_t u = static_cast<uint32_t>(b) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// Narrows fp32 to bf16 with round-to-nearest-even on the dropped 16 bits.
/// Callers feed finite values only (the embedding store rejects NaN/Inf);
/// for finite inputs the carry out of the rounding add is the correct
/// exponent increment, so no special cases are needed.
LEVA_ALWAYS_INLINE uint16_t Bf16FromFloat(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  u += 0x7FFFu + ((u >> 16) & 1u);
  return static_cast<uint16_t>(u >> 16);
}

/// The F64x4 of four fp32 or int32 lanes, as one widening convert
/// (vcvtps2pd/vcvtdq2pd to a ymm register in the "avx2" clone). Built lane
/// by lane: GCC 12 lowers a __builtin_convertvector from a 16-byte to a
/// 32-byte vector as two 16-byte converts joined by a vinsertf128.
template <typename X>
LEVA_ALWAYS_INLINE void WidenToF64x4(F64x4* v, const X& x) {
  *v = F64x4{static_cast<double>(x[0]), static_cast<double>(x[1]),
             static_cast<double>(x[2]), static_cast<double>(x[3])};
}

/// *v = widen(p[0 .. lanes of V)) from bf16. Exact at every width: each
/// 16-bit pattern becomes the upper half of an fp32 lane (interleaved with
/// zero low halves — one punpcklwd), which promotes losslessly to fp64.
template <typename V>
LEVA_ALWAYS_INLINE void LoadBf16(V* v, const uint16_t* p) {
  if constexpr (std::is_same_v<V, double>) {
    *v = static_cast<double>(Bf16ToFloat(*p));
  } else {
    using U16x4 = uint16_t __attribute__((vector_size(8)));
    using U16x8 = uint16_t __attribute__((vector_size(16)));
    using F32x4 = float __attribute__((vector_size(16)));
    U16x4 b;
    std::memcpy(&b, p, sizeof(b));
    const U16x4 zero = {};
    const U16x8 halves = __builtin_shufflevector(zero, b, 0, 4, 1, 5, 2, 6, 3, 7);
    F32x4 f;
    std::memcpy(&f, &halves, sizeof(f));
    WidenToF64x4(v, f);
  }
}

/// *v = p[0 .. lanes of V) from int8, exactly. Two interleaves with zero
/// (punpcklbw, punpcklwd) put each byte at the top of a 32-bit lane and an
/// arithmetic shift by 24 sign-extends it: all SSE2, where GCC widens an
/// int8 vector to int32 one element at a time.
template <typename V>
LEVA_ALWAYS_INLINE void LoadI8(V* v, const int8_t* p) {
  if constexpr (std::is_same_v<V, double>) {
    *v = static_cast<double>(*p);
  } else {
    using I8x16 = int8_t __attribute__((vector_size(16)));
    using I16x8 = int16_t __attribute__((vector_size(16)));
    using I32x4 = int32_t __attribute__((vector_size(16)));
    I8x16 q = {};
    std::memcpy(&q, p, 4);
    const I8x16 zero8 = {};
    const I8x16 bytes = __builtin_shufflevector(
        zero8, q, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
    I16x8 words;
    std::memcpy(&words, &bytes, sizeof(words));
    const I16x8 zero16 = {};
    const I16x8 top = __builtin_shufflevector(zero16, words, 0, 8, 1, 9, 2,
                                              10, 3, 11);
    I32x4 lanes;
    std::memcpy(&lanes, &top, sizeof(lanes));
    WidenToF64x4(v, lanes >> 24);
  }
}

/// acc[j] += w * widen(src[j]) over a bf16 row. The widen is exact, so each
/// element costs the same two roundings (mul, add) as the fp64 gather.
LEVA_ALWAYS_INLINE void GatherAddBf16(double* acc, const uint16_t* src,
                                      double w, size_t n) {
  ForLanes(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V a, s;
    Load(&a, acc + j);
    LoadBf16(&s, src + j);
    Store(acc + j, a + w * s);
  });
}

/// acc[j] += w * (scale * src[j]) over an int8 row with per-row scale.
/// `scale * q` is rounded first (matching the reference dequantize-then-
/// weight order), then weighted, then accumulated — do not reassociate.
LEVA_ALWAYS_INLINE void DequantGatherAdd(double* acc, const int8_t* src,
                                         double scale, double w, size_t n) {
  ForLanes(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V a, q;
    Load(&a, acc + j);
    LoadI8(&q, src + j);
    Store(acc + j, a + w * (scale * q));
  });
}

/// out[j] = widen(src[j]): materializes one bf16 row as fp64 (exact).
LEVA_ALWAYS_INLINE void DequantRowBf16(double* out, const uint16_t* src,
                                       size_t n) {
  ForLanes(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V s;
    LoadBf16(&s, src + j);
    Store(out + j, s);
  });
}

/// out[j] = scale * src[j]: materializes one int8 row as fp64. One rounding
/// per element — the same bits every consumer of a dequantized row sees.
LEVA_ALWAYS_INLINE void DequantRowI8(double* out, const int8_t* src,
                                     double scale, size_t n) {
  ForLanes(n, [&]<typename V>(size_t j) LEVA_ALWAYS_INLINE_LAMBDA {
    V q;
    LoadI8(&q, src + j);
    Store(out + j, scale * q);
  });
}

}  // namespace simd
}  // namespace leva

#endif  // LEVA_COMMON_SIMD_H_
