#include "sparse/simd.hpp"

#include <atomic>
#include <cstdint>

#include "common/env.hpp"
#include "common/gemm.hpp"
#include "common/obs/log.hpp"

#if SPMVML_SIMD_VECEXT && defined(__x86_64__)
#define SPMVML_SIMD_AVX2 1
#include <immintrin.h>
#else
#define SPMVML_SIMD_AVX2 0
#endif

namespace spmvml::simd {

#if SPMVML_SIMD_VECEXT

namespace {

// ---------------------------------------------------------------------------
// Portable tier: GCC/Clang vector extensions, 32-byte registers.

template <typename T>
struct VecOf;
template <>
struct VecOf<double> {
  typedef double type __attribute__((vector_size(32)));
};
template <>
struct VecOf<float> {
  typedef float type __attribute__((vector_size(32)));
};
using IndexVec = index_t __attribute__((vector_size(32)));  // 4 x int64

template <typename T>
T dot_portable(const T* vals, const index_t* cols, const T* x, index_t n) {
  constexpr index_t W = kLanes<T>;
  constexpr index_t V = W / 2;  // lanes per 32-byte register
  if (n < kDotSequentialCutoff<T>) return detail::dot_sequential(vals, cols, x, n);
  using Vec = typename VecOf<T>::type;
  Vec a0 = {}, a1 = {};
  const index_t full = n - n % W;
  for (index_t i = 0; i < full; i += W) {
    Vec v0, v1, x0 = {}, x1 = {};
    std::memcpy(&v0, vals + i, sizeof v0);
    std::memcpy(&v1, vals + i + V, sizeof v1);
    for (index_t j = 0; j < V; ++j) x0[j] = x[cols[i + j]];
    for (index_t j = 0; j < V; ++j) x1[j] = x[cols[i + V + j]];
    a0 += v0 * x0;
    a1 += v1 * x1;
  }
  T acc[W];
  std::memcpy(acc, &a0, sizeof a0);
  std::memcpy(acc + V, &a1, sizeof a1);
  for (index_t j = 0; j < n - full; ++j)
    acc[j] += vals[full + j] * x[cols[full + j]];
  return detail::reduce_lanes(acc);
}

/// Vectorized only for double (index lanes line up 1:1 with value
/// lanes); float dispatches to the scalar loop.
void masked_gather_axpy_portable(const double* vals, const index_t* cols,
                                 const double* x, double* y, index_t n,
                                 index_t pad) {
  constexpr index_t V = 4;
  using Vec = VecOf<double>::type;
  const index_t full = n - n % V;
  const IndexVec pads = {pad, pad, pad, pad};
  for (index_t i = 0; i < full; i += V) {
    IndexVec c;
    Vec v, yv, xv;
    std::memcpy(&c, cols + i, sizeof c);
    std::memcpy(&v, vals + i, sizeof v);
    std::memcpy(&yv, y + i, sizeof yv);
    for (index_t j = 0; j < V; ++j) xv[j] = x[c[j] == pad ? 0 : c[j]];
    const IndexVec live = c != pads;  // all-ones lanes holding a real entry
    const Vec upd = yv + v * xv;
    yv = live ? upd : yv;  // padded lanes keep y untouched (exact skip)
    std::memcpy(y + i, &yv, sizeof yv);
  }
  detail::masked_gather_axpy_scalar(vals + full, cols + full, x, y + full,
                                    n - full, pad);
}

void masked_gather_axpy_portable(const float* vals, const index_t* cols,
                                 const float* x, float* y, index_t n,
                                 index_t pad) {
  detail::masked_gather_axpy_scalar(vals, cols, x, y, n, pad);
}

/// Vectorized only for double, mirroring the axpy: products are formed
/// with one 4-lane vector multiply, then each live lane lands as a
/// scalar y[rows[j]] += prod[j] store (there is no scatter instruction
/// to beat, and the scalar adds keep the bits — and any duplicate rows
/// — exactly in the scalar reference's order).
void masked_scatter_axpy_portable(const double* vals, const index_t* cols,
                                  const double* x, double* y,
                                  const index_t* rows, index_t n,
                                  index_t pad) {
  constexpr index_t V = 4;
  using Vec = VecOf<double>::type;
  const index_t full = n - n % V;
  for (index_t i = 0; i < full; i += V) {
    IndexVec c;
    Vec v, xv;
    std::memcpy(&c, cols + i, sizeof c);
    std::memcpy(&v, vals + i, sizeof v);
    for (index_t j = 0; j < V; ++j) xv[j] = x[c[j] == pad ? 0 : c[j]];
    const Vec prod = v * xv;
    for (index_t j = 0; j < V; ++j)
      if (c[j] != pad) y[rows[i + j]] += prod[j];
  }
  detail::masked_scatter_axpy_scalar(vals + full, cols + full, x, y,
                                     rows + full, n - full, pad);
}

void masked_scatter_axpy_portable(const float* vals, const index_t* cols,
                                  const float* x, float* y,
                                  const index_t* rows, index_t n,
                                  index_t pad) {
  detail::masked_scatter_axpy_scalar(vals, cols, x, y, rows, n, pad);
}

template <typename T>
void mul_gather_portable(const T* vals, const index_t* cols, const T* x,
                         T* out, index_t n) {
  constexpr index_t V = kLanes<T> / 2;
  using Vec = typename VecOf<T>::type;
  const index_t full = n - n % V;
  for (index_t i = 0; i < full; i += V) {
    Vec v, xv = {};
    std::memcpy(&v, vals + i, sizeof v);
    for (index_t j = 0; j < V; ++j) xv[j] = x[cols[i + j]];
    const Vec o = v * xv;
    std::memcpy(out + i, &o, sizeof o);
  }
  detail::mul_gather_scalar(vals + full, cols + full, x, out + full, n - full);
}

#if SPMVML_SIMD_AVX2

// ---------------------------------------------------------------------------
// AVX2 tier (double only; float stays on the portable tier). No FMA:
// mul and add are separate IEEE ops in every tier, so the bits agree
// with the scalar reference. x is loaded with movsd/movhpd inserts
// rather than vgatherqpd for the dot — on Intel a gather costs one
// load µop per lane anyway, and the insert form skips the gather's
// setup overhead; the masked ELL update keeps the hardware gather
// because its mask skips both the load and the pad-heavy blocks.

__attribute__((target("avx2"))) double dot_avx2(const double* vals,
                                                const index_t* cols,
                                                const double* x, index_t n) {
  if (n < kDotSequentialCutoff<double>)
    return detail::dot_sequential(vals, cols, x, n);
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  const index_t full = n - n % 8;
  for (index_t i = 0; i < full; i += 8) {
    const __m128d x0 =
        _mm_loadh_pd(_mm_load_sd(x + cols[i]), x + cols[i + 1]);
    const __m128d x1 =
        _mm_loadh_pd(_mm_load_sd(x + cols[i + 2]), x + cols[i + 3]);
    const __m128d x2 =
        _mm_loadh_pd(_mm_load_sd(x + cols[i + 4]), x + cols[i + 5]);
    const __m128d x3 =
        _mm_loadh_pd(_mm_load_sd(x + cols[i + 6]), x + cols[i + 7]);
    const __m256d xv0 =
        _mm256_insertf128_pd(_mm256_castpd128_pd256(x0), x1, 1);
    const __m256d xv1 =
        _mm256_insertf128_pd(_mm256_castpd128_pd256(x2), x3, 1);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(vals + i), xv0));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(vals + i + 4), xv1));
  }
  double acc[8];
  _mm256_storeu_pd(acc, a0);
  _mm256_storeu_pd(acc + 4, a1);
  for (index_t j = 0; j < n - full; ++j)
    acc[j] += vals[full + j] * x[cols[full + j]];
  return detail::reduce_lanes(acc);
}

__attribute__((target("avx2"))) void masked_gather_axpy_avx2(
    const double* vals, const index_t* cols, const double* x, double* y,
    index_t n, index_t pad) {
  const index_t full = n - n % 4;
  const __m256i pads = _mm256_set1_epi64x(pad);
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (index_t i = 0; i < full; i += 4) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + i));
    const __m256d live = _mm256_castsi256_pd(
        _mm256_andnot_si256(_mm256_cmpeq_epi64(c, pads), ones));
    // Fully padded blocks are common at the tail of the ELL width —
    // skip the gather, the y round-trip, and the FP work outright.
    if (!_mm256_movemask_pd(live)) continue;
    const __m256d xv =
        _mm256_mask_i64gather_pd(_mm256_setzero_pd(), x, c, live, 8);
    const __m256d v = _mm256_loadu_pd(vals + i);
    __m256d yv = _mm256_loadu_pd(y + i);
    yv = _mm256_blendv_pd(yv, _mm256_add_pd(yv, _mm256_mul_pd(v, xv)), live);
    _mm256_storeu_pd(y + i, yv);
  }
  detail::masked_gather_axpy_scalar(vals + full, cols + full, x, y + full,
                                    n - full, pad);
}

__attribute__((target("avx2"))) void masked_scatter_axpy_avx2(
    const double* vals, const index_t* cols, const double* x, double* y,
    const index_t* rows, index_t n, index_t pad) {
  const index_t full = n - n % 4;
  const __m256i pads = _mm256_set1_epi64x(pad);
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (index_t i = 0; i < full; i += 4) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + i));
    const __m256d live = _mm256_castsi256_pd(
        _mm256_andnot_si256(_mm256_cmpeq_epi64(c, pads), ones));
    // All-pad blocks dominate the tail columns of a skewed slice —
    // skip the gather and the scatter stores outright.
    const int mask = _mm256_movemask_pd(live);
    if (!mask) continue;
    const __m256d xv =
        _mm256_mask_i64gather_pd(_mm256_setzero_pd(), x, c, live, 8);
    const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(vals + i), xv);
    double p[4];
    _mm256_storeu_pd(p, prod);
    // AVX2 has no scatter: each live lane's += is a scalar store, which
    // is exactly the scalar reference's operation and order.
    for (index_t j = 0; j < 4; ++j)
      if (mask & (1 << j)) y[rows[i + j]] += p[j];
  }
  detail::masked_scatter_axpy_scalar(vals + full, cols + full, x, y,
                                     rows + full, n - full, pad);
}

__attribute__((target("avx2"))) void mul_gather_avx2(const double* vals,
                                                     const index_t* cols,
                                                     const double* x,
                                                     double* out, index_t n) {
  const index_t full = n - n % 4;
  for (index_t i = 0; i < full; i += 4) {
    const __m128d x0 =
        _mm_loadh_pd(_mm_load_sd(x + cols[i]), x + cols[i + 1]);
    const __m128d x1 =
        _mm_loadh_pd(_mm_load_sd(x + cols[i + 2]), x + cols[i + 3]);
    const __m256d xv =
        _mm256_insertf128_pd(_mm256_castpd128_pd256(x0), x1, 1);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(vals + i), xv));
  }
  detail::mul_gather_scalar(vals + full, cols + full, x, out + full, n - full);
}

#endif  // SPMVML_SIMD_AVX2

// ---------------------------------------------------------------------------
// Runtime dispatch: resolved once from CPUID, validated by self_check.

struct DispatchTable {
  double (*dot_f64)(const double*, const index_t*, const double*, index_t);
  float (*dot_f32)(const float*, const index_t*, const float*, index_t);
  void (*axpy_f64)(const double*, const index_t*, const double*, double*,
                   index_t, index_t);
  void (*axpy_f32)(const float*, const index_t*, const float*, float*,
                   index_t, index_t);
  void (*scat_f64)(const double*, const index_t*, const double*, double*,
                   const index_t*, index_t, index_t);
  void (*scat_f32)(const float*, const index_t*, const float*, float*,
                   const index_t*, index_t, index_t);
  void (*mulg_f64)(const double*, const index_t*, const double*, double*,
                   index_t);
  void (*mulg_f32)(const float*, const index_t*, const float*, float*,
                   index_t);
  const char* isa;
};

DispatchTable resolve() {
  DispatchTable t{dot_portable<double>,
                  dot_portable<float>,
                  static_cast<void (*)(const double*, const index_t*,
                                       const double*, double*, index_t,
                                       index_t)>(masked_gather_axpy_portable),
                  static_cast<void (*)(const float*, const index_t*,
                                       const float*, float*, index_t,
                                       index_t)>(masked_gather_axpy_portable),
                  static_cast<void (*)(const double*, const index_t*,
                                       const double*, double*, const index_t*,
                                       index_t, index_t)>(
                      masked_scatter_axpy_portable),
                  static_cast<void (*)(const float*, const index_t*,
                                       const float*, float*, const index_t*,
                                       index_t, index_t)>(
                      masked_scatter_axpy_portable),
                  mul_gather_portable<double>,
                  mul_gather_portable<float>,
                  "portable"};
#if SPMVML_SIMD_AVX2
  if (__builtin_cpu_supports("avx2")) {
    t.dot_f64 = dot_avx2;
    t.axpy_f64 = masked_gather_axpy_avx2;
    t.scat_f64 = masked_scatter_axpy_avx2;
    t.mulg_f64 = mul_gather_avx2;
    t.isa = "avx2";
  }
#endif
  return t;
}

const DispatchTable& table() {
  static const DispatchTable t = resolve();
  return t;
}

}  // namespace

namespace detail {

double dot_active(const double* vals, const index_t* cols, const double* x,
                  index_t n) {
  return table().dot_f64(vals, cols, x, n);
}
float dot_active(const float* vals, const index_t* cols, const float* x,
                 index_t n) {
  return table().dot_f32(vals, cols, x, n);
}
void masked_gather_axpy_active(const double* vals, const index_t* cols,
                               const double* x, double* y, index_t n,
                               index_t pad) {
  table().axpy_f64(vals, cols, x, y, n, pad);
}
void masked_gather_axpy_active(const float* vals, const index_t* cols,
                               const float* x, float* y, index_t n,
                               index_t pad) {
  table().axpy_f32(vals, cols, x, y, n, pad);
}
void masked_scatter_axpy_active(const double* vals, const index_t* cols,
                                const double* x, double* y,
                                const index_t* rows, index_t n, index_t pad) {
  table().scat_f64(vals, cols, x, y, rows, n, pad);
}
void masked_scatter_axpy_active(const float* vals, const index_t* cols,
                                const float* x, float* y, const index_t* rows,
                                index_t n, index_t pad) {
  table().scat_f32(vals, cols, x, y, rows, n, pad);
}
void mul_gather_active(const double* vals, const index_t* cols,
                       const double* x, double* out, index_t n) {
  table().mulg_f64(vals, cols, x, out, n);
}
void mul_gather_active(const float* vals, const index_t* cols, const float* x,
                       float* out, index_t n) {
  table().mulg_f32(vals, cols, x, out, n);
}

}  // namespace detail

#endif  // SPMVML_SIMD_VECEXT

namespace {

// -1 = not yet initialized; 0/1 = resolved. Concurrent first calls race
// benignly: every initializer computes the same value.
std::atomic<int> g_enabled{-1};

template <typename T>
bool check_type() {
#if SPMVML_SIMD_VECEXT
  // Deterministic inputs long enough to exercise two full lane blocks
  // (W = 16 for float), the tail, padding lanes, and negative values.
  constexpr index_t n = 41;
  T vals[n], x[n], y_vec[n], y_sca[n], p_vec[n], p_sca[n];
  index_t cols[n];
  for (index_t i = 0; i < n; ++i) {
    vals[i] = static_cast<T>(0.37) * static_cast<T>(i) - static_cast<T>(2.5);
    x[i] = static_cast<T>(1.0) / (static_cast<T>(i) + static_cast<T>(0.75));
    cols[i] = (i * 7 + 3) % n;
    y_vec[i] = y_sca[i] = static_cast<T>(i) * static_cast<T>(0.11);
  }
  index_t masked[n];
  for (index_t i = 0; i < n; ++i) masked[i] = (i % 3 == 0) ? -1 : cols[i];

  // n exercises the lane path, n=11 the short-row sequential rule.
  for (const index_t len : {n, index_t{11}}) {
    const T dv = detail::dot_active(vals, cols, x, len);
    const T ds = detail::dot_scalar(vals, cols, x, len);
    if (std::memcmp(&dv, &ds, sizeof dv) != 0) return false;
  }

  detail::masked_gather_axpy_active(vals, masked, x, y_vec, n, index_t{-1});
  detail::masked_gather_axpy_scalar(vals, masked, x, y_sca, n, index_t{-1});
  if (std::memcmp(y_vec, y_sca, sizeof y_vec) != 0) return false;

  // Scatter through a non-trivial output permutation (reversal), with
  // the same pad mask — the SELL slot-column update.
  index_t rows[n];
  for (index_t i = 0; i < n; ++i) {
    rows[i] = n - 1 - i;
    y_vec[i] = y_sca[i] = static_cast<T>(i) * static_cast<T>(-0.07);
  }
  detail::masked_scatter_axpy_active(vals, masked, x, y_vec, rows, n,
                                     index_t{-1});
  detail::masked_scatter_axpy_scalar(vals, masked, x, y_sca, rows, n,
                                     index_t{-1});
  if (std::memcmp(y_vec, y_sca, sizeof y_vec) != 0) return false;

  detail::mul_gather_active(vals, cols, x, p_vec, n);
  detail::mul_gather_scalar(vals, cols, x, p_sca, n);
  return std::memcmp(p_vec, p_sca, sizeof p_vec) == 0;
#else
  return true;
#endif
}

int init_enabled() {
  if (!compiled_in()) return 0;
  if (env_int("SPMVML_SIMD", 1) == 0) return 0;
  if (!self_check()) {
    obs::log_warn("simd.self_check_failed")
        .kv("action", "falling back to scalar kernels");
    return 0;
  }
  return 1;
}

}  // namespace

bool self_check() {
  return check_type<double>() && check_type<float>() && dense_self_check();
}

bool enabled() {
  int s = g_enabled.load(std::memory_order_relaxed);
  if (s < 0) {
    s = init_enabled();
    g_enabled.store(s, std::memory_order_relaxed);
  }
  return s == 1;
}

void set_enabled(bool on) {
  g_enabled.store(on && compiled_in() ? 1 : 0, std::memory_order_relaxed);
}

template <>
DotKernel<double> dot_kernel<double>() {
#if SPMVML_SIMD_VECEXT
  if (enabled()) return table().dot_f64;
#endif
  return detail::dot_scalar<double>;
}

template <>
DotKernel<float> dot_kernel<float>() {
#if SPMVML_SIMD_VECEXT
  if (enabled()) return table().dot_f32;
#endif
  return detail::dot_scalar<float>;
}

const char* active_isa() {
#if SPMVML_SIMD_VECEXT
  if (enabled()) return table().isa;
#endif
  return "scalar";
}

}  // namespace spmvml::simd
