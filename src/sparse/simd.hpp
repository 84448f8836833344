// Portable SIMD layer for the sparse hot paths (DESIGN.md §5g).
//
// Three tiers share one semantic contract:
//   * a scalar reference that replays the exact floating-point
//     operations in the exact order the contract fixes,
//   * a portable tier built on GCC/Clang vector extensions, and
//   * an AVX2 tier (x86-64 only) selected at runtime via
//     __builtin_cpu_supports, hand-scheduled around the fact that
//     hardware gathers cost one load µop per lane anyway.
// Every tier is bitwise-identical to the scalar reference by
// construction — which is what lets the differential test suite assert
// serial == SIMD == parallel per format without tolerances. The AVX2
// tier never uses FMA: mul and add stay separate IEEE operations, so
// fusing can never change the bits.
//
// Lane semantics (the fixed summation order every kernel shares):
//   * dot() with n < kDotSequentialCutoff<T> sums left to right (short
//     rows — think stencils — keep the cheap sequential order instead
//     of paying vector setup plus a full reduction tree). Longer rows
//     accumulate into W = kLanes<T> independent lane accumulators —
//     element i adds into lane i mod W over the full blocks, the tail
//     element full+j adds into lane j — and the lanes combine with a
//     fixed pairwise halving tree. Both rules are exact replays: IEEE
//     ops are elementwise in every tier, so the bits agree.
//   * masked_gather_axpy(), masked_scatter_axpy() and mul_gather() are
//     elementwise (no reassociation), so the tiers are trivially
//     bitwise-identical. The scatter variant additionally routes each
//     product through an indirection on the *output* side (the SELL
//     sorted-row permutation); products are formed with vector
//     multiplies but every += lands as a scalar store, so duplicate
//     output rows — impossible for a valid permutation, but part of the
//     primitive's contract anyway — accumulate in ascending i order.
//
// Toggles:
//   * compile time — SPMVML_FORCE_SCALAR (cmake -DSPMVML_FORCE_SCALAR=ON)
//     removes the vector paths entirely; tools/check.sh --simd-off
//     builds and tests this configuration.
//   * runtime — SPMVML_SIMD=0 (or simd::set_enabled(false)) forces the
//     scalar fallback in a vector-capable build; the differential tests
//     flip this to compare both paths in-process.
//   * self-check — the first enabled() query runs a fixed-input
//     equivalence check of every primitive (active tier vs scalar,
//     bitwise), the dense MLP kernels of common/gemm.hpp included; a
//     mismatch disables SIMD for the process and logs a warning instead
//     of serving wrong bits.
#pragma once

#include <cstring>

#include "sparse/types.hpp"

#if !defined(SPMVML_FORCE_SCALAR) && (defined(__GNUC__) || defined(__clang__))
#define SPMVML_SIMD_VECEXT 1
#else
#define SPMVML_SIMD_VECEXT 0
#endif

namespace spmvml::simd {

/// Lane-accumulator count for dot(): a 64-byte logical block, i.e. 8
/// doubles or 16 floats (two 32-byte registers in the vector tiers —
/// the second accumulator hides the add latency of the first).
template <typename T>
inline constexpr index_t kLanes = static_cast<index_t>(64 / sizeof(T));

/// Rows shorter than this sum sequentially in dot() — below two full
/// lane blocks the vector setup and reduction tree cost more than the
/// handful of multiply-adds they replace.
template <typename T>
inline constexpr index_t kDotSequentialCutoff = 2 * kLanes<T>;

/// True when a vector tier is compiled in, the runtime toggle allows
/// it, and the startup self-check passed.
bool enabled();

/// Runtime override (test hook and SPMVML_SIMD=0 plumbing). Setting
/// true has no effect in an SPMVML_FORCE_SCALAR build.
void set_enabled(bool on);

/// True when the vector tiers exist in this binary at all.
constexpr bool compiled_in() { return SPMVML_SIMD_VECEXT != 0; }

/// Name of the instruction tier the next kernel call will use:
/// "avx2", "portable", or "scalar". For bench/JSON introspection.
const char* active_isa();

namespace detail {

/// Fixed pairwise halving tree over the W lane accumulators:
/// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) ... — part of the contract.
template <typename T>
inline T reduce_lanes(const T* acc) {
  constexpr index_t W = kLanes<T>;
  T t[W];
  for (index_t j = 0; j < W; ++j) t[j] = acc[j];
  for (index_t w = W / 2; w >= 1; w /= 2)
    for (index_t j = 0; j < w; ++j) t[j] = t[2 * j] + t[2 * j + 1];
  return t[0];
}

template <typename T>
T dot_sequential(const T* vals, const index_t* cols, const T* x, index_t n) {
  T sum{};
  for (index_t i = 0; i < n; ++i) sum += vals[i] * x[cols[i]];
  return sum;
}

template <typename T>
T dot_scalar(const T* vals, const index_t* cols, const T* x, index_t n) {
  constexpr index_t W = kLanes<T>;
  if (n < kDotSequentialCutoff<T>) return dot_sequential(vals, cols, x, n);
  T acc[W] = {};
  const index_t full = n - n % W;
  for (index_t i = 0; i < full; i += W)
    for (index_t j = 0; j < W; ++j)
      acc[j] += vals[i + j] * x[cols[i + j]];
  for (index_t j = 0; j < n - full; ++j)
    acc[j] += vals[full + j] * x[cols[full + j]];
  return reduce_lanes(acc);
}

template <typename T>
void masked_gather_axpy_scalar(const T* vals, const index_t* cols, const T* x,
                               T* y, index_t n, index_t pad) {
  for (index_t i = 0; i < n; ++i) {
    const index_t c = cols[i];
    if (c != pad) y[i] += vals[i] * x[c];
  }
}

template <typename T>
void masked_scatter_axpy_scalar(const T* vals, const index_t* cols, const T* x,
                                T* y, const index_t* rows, index_t n,
                                index_t pad) {
  for (index_t i = 0; i < n; ++i) {
    const index_t c = cols[i];
    if (c != pad) y[rows[i]] += vals[i] * x[c];
  }
}

template <typename T>
void mul_gather_scalar(const T* vals, const index_t* cols, const T* x, T* out,
                       index_t n) {
  for (index_t i = 0; i < n; ++i) out[i] = vals[i] * x[cols[i]];
}

#if SPMVML_SIMD_VECEXT
// Out-of-line entry points into the runtime-dispatched vector tier
// (simd.cpp). Overloaded by value type; only called when enabled().
double dot_active(const double* vals, const index_t* cols, const double* x,
                  index_t n);
float dot_active(const float* vals, const index_t* cols, const float* x,
                 index_t n);
void masked_gather_axpy_active(const double* vals, const index_t* cols,
                               const double* x, double* y, index_t n,
                               index_t pad);
void masked_gather_axpy_active(const float* vals, const index_t* cols,
                               const float* x, float* y, index_t n,
                               index_t pad);
void masked_scatter_axpy_active(const double* vals, const index_t* cols,
                                const double* x, double* y,
                                const index_t* rows, index_t n, index_t pad);
void masked_scatter_axpy_active(const float* vals, const index_t* cols,
                                const float* x, float* y, const index_t* rows,
                                index_t n, index_t pad);
void mul_gather_active(const double* vals, const index_t* cols,
                       const double* x, double* out, index_t n);
void mul_gather_active(const float* vals, const index_t* cols, const float* x,
                       float* out, index_t n);
#endif  // SPMVML_SIMD_VECEXT

}  // namespace detail

/// Lane-accumulated dot product of vals[0..n) with gathered x[cols[i]].
/// The W-lane order above is the *definition* of the kernel semantics;
/// every tier implements it exactly.
template <typename T>
inline T dot(const T* vals, const index_t* cols, const T* x, index_t n) {
#if SPMVML_SIMD_VECEXT
  if (enabled()) return detail::dot_active(vals, cols, x, n);
#endif
  return detail::dot_scalar(vals, cols, x, n);
}

/// y[i] += vals[i] * x[cols[i]] for every i with cols[i] != pad
/// (elementwise — the ELL column-major slot update).
template <typename T>
inline void masked_gather_axpy(const T* vals, const index_t* cols, const T* x,
                               T* y, index_t n, index_t pad) {
#if SPMVML_SIMD_VECEXT
  if (enabled()) {
    detail::masked_gather_axpy_active(vals, cols, x, y, n, pad);
    return;
  }
#endif
  detail::masked_gather_axpy_scalar(vals, cols, x, y, n, pad);
}

/// y[rows[i]] += vals[i] * x[cols[i]] for every i with cols[i] != pad
/// (elementwise — the SELL slot-column update through the sorted-row
/// permutation). rows[0..n) must be valid indices into y; products are
/// vector multiplies, the += lands scalar per lane, so bits match the
/// scalar reference and duplicate rows accumulate in ascending i order.
template <typename T>
inline void masked_scatter_axpy(const T* vals, const index_t* cols, const T* x,
                                T* y, const index_t* rows, index_t n,
                                index_t pad) {
#if SPMVML_SIMD_VECEXT
  if (enabled()) {
    detail::masked_scatter_axpy_active(vals, cols, x, y, rows, n, pad);
    return;
  }
#endif
  detail::masked_scatter_axpy_scalar(vals, cols, x, y, rows, n, pad);
}

/// out[i] = vals[i] * x[cols[i]] (elementwise product phase used by the
/// COO and CSR5 segmented kernels).
template <typename T>
inline void mul_gather(const T* vals, const index_t* cols, const T* x, T* out,
                       index_t n) {
#if SPMVML_SIMD_VECEXT
  if (enabled()) {
    detail::mul_gather_active(vals, cols, x, out, n);
    return;
  }
#endif
  detail::mul_gather_scalar(vals, cols, x, out, n);
}

/// Function-pointer type of a dot() implementation.
template <typename T>
using DotKernel = T (*)(const T*, const index_t*, const T*, index_t);

/// Resolve the dot() implementation for the current enabled() state
/// once, so per-row loops (CSR, merge-CSR) pay one indirect call per
/// row instead of re-checking the runtime toggle and dispatch table.
/// The returned pointer implements the exact lane semantics above.
template <typename T>
DotKernel<T> dot_kernel();
template <>
DotKernel<double> dot_kernel<double>();
template <>
DotKernel<float> dot_kernel<float>();

/// Fixed-input bitwise equivalence check of the active vector tier
/// against the scalar reference, sparse primitives and dense kernels
/// (run once by enabled(); exposed for tests). Always true in a
/// scalar-only build.
bool self_check();

}  // namespace spmvml::simd
