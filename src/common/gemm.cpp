#include "common/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "sparse/simd.hpp"

#if SPMVML_SIMD_VECEXT && defined(__x86_64__)
#define SPMVML_GEMM_AVX2 1
#include <immintrin.h>
#else
#define SPMVML_GEMM_AVX2 0
#endif

namespace spmvml {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference: the operation-order contract of gemm.hpp, written out.

void gemm_nt_scalar(int m, int n, int k, const double* a, const double* b,
                    const double* bias, double* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (int j = 0; j < n; ++j) {
      const double* brow = b + static_cast<std::int64_t>(j) * k;
      double sum = bias != nullptr ? bias[j] : 0.0;
      for (int kk = 0; kk < k; ++kk) sum += arow[kk] * brow[kk];
      crow[j] = sum;
    }
  }
}

/// One output row of gemm_nn / gemm_tn: crow (n wide) = the sum over kk
/// of a[kk * a_stride] times row kk of B (k x n), zero multipliers
/// skipped. kk-major order streams the B rows and still accumulates each
/// element in ascending kk.
void scaled_row_sum_scalar(int n, int k, const double* a,
                           std::int64_t a_stride, const double* b,
                           double* crow) {
  std::fill(crow, crow + n, 0.0);
  for (int kk = 0; kk < k; ++kk) {
    const double av = a[kk * a_stride];
    if (av == 0.0) continue;
    const double* brow = b + static_cast<std::int64_t>(kk) * n;
    for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
  }
}

void adam_scalar(std::size_t n, double* w, double* m, double* v,
                 const double* g, double lr, double decay, double c1,
                 double c2) {
  constexpr double b1 = kAdamBeta1, b2 = kAdamBeta2, eps = kAdamEps;
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = b1 * m[i] + (1.0 - b1) * g[i];
    v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
    const double mhat = m[i] / c1;
    const double vhat = v[i] / c2;
    w[i] -= lr * (mhat / (std::sqrt(vhat) + eps) + decay * w[i]);
  }
}

using RowSumKernel = void (*)(int, int, const double*, std::int64_t,
                              const double*, double*);

void gemm_nn_with(RowSumKernel row_sum, int m, int n, int k, const double* a,
                  const double* b, double* c) {
  for (std::int64_t i = 0; i < m; ++i)
    row_sum(n, k, a + i * k, 1, b, c + i * n);
}

void gemm_tn_with(RowSumKernel row_sum, int m, int n, int k, const double* a,
                  const double* b, double* c) {
  for (std::int64_t i = 0; i < m; ++i) row_sum(n, k, a + i, m, b, c + i * n);
}

#if SPMVML_GEMM_AVX2

// ---------------------------------------------------------------------------
// AVX2 tier. Every lane is one output element running the scalar
// reference's operations in its order; mul and add stay separate
// (target "avx2" does not enable FMA).

/// Lanes [0, count) of a 4-lane mask set.
__attribute__((target("avx2"))) inline __m256i lane_mask(int count) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(count),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

/// In-register transpose of the 4x4 block whose rows are r0..r3.
__attribute__((target("avx2"))) inline void transpose4(__m256d& r0,
                                                       __m256d& r1,
                                                       __m256d& r2,
                                                       __m256d& r3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// gemm_nt over 4-row by 8-column output blocks: lane r of accumulator t
/// is C[i+r][j+t]. Four A rows are packed k-major into a panel, so each
/// kk step is one panel load times eight broadcast B entries: eight
/// independent add chains per step instead of one. Ragged edges repeat
/// the last real row or column and mask the stores.
__attribute__((target("avx2"))) void gemm_nt_avx2(int m, int n, int k,
                                                  const double* a,
                                                  const double* b,
                                                  const double* bias,
                                                  double* c) {
  if (k == 0) {  // C = bias; no reduction to vectorize
    gemm_nt_scalar(m, n, k, a, b, bias, c);
    return;
  }
  alignas(32) double panel[4 * kGemmTileK];
  for (int i = 0; i < m; i += 4) {
    const int rows = std::min(4, m - i);
    const double* arow[4];
    double* crow[4];
    for (int r = 0; r < 4; ++r) {
      const std::int64_t row = i + std::min(r, rows - 1);
      arow[r] = a + row * k;
      crow[r] = c + row * n;
    }
    for (int k0 = 0; k0 < k; k0 += kGemmTileK) {
      const int kt = std::min(kGemmTileK, k - k0);
      for (int kk = 0; kk < kt; ++kk)
        for (int r = 0; r < 4; ++r) panel[4 * kk + r] = arow[r][k0 + kk];
      for (int j = 0; j < n; j += 8) {
        const int cols = std::min(8, n - j);
        const __m256i mask[2] = {lane_mask(cols), lane_mask(cols - 4)};
        const double* brow[8];
        for (int t = 0; t < 8; ++t)
          brow[t] =
              b + static_cast<std::int64_t>(j + std::min(t, cols - 1)) * k + k0;
        __m256d acc[8];
        if (k0 > 0) {  // resume the partial sums of the previous tile
          for (int h = 0; h < 2; ++h) {
            for (int r = 0; r < 4; ++r)
              acc[4 * h + r] = _mm256_maskload_pd(crow[r] + j + 4 * h, mask[h]);
            transpose4(acc[4 * h], acc[4 * h + 1], acc[4 * h + 2],
                       acc[4 * h + 3]);
          }
        } else {
          for (int t = 0; t < 8; ++t)
            acc[t] = bias != nullptr
                         ? _mm256_set1_pd(bias[j + std::min(t, cols - 1)])
                         : _mm256_setzero_pd();
        }
        for (int kk = 0; kk < kt; ++kk) {
          const __m256d p = _mm256_load_pd(panel + 4 * kk);
          for (int t = 0; t < 8; ++t)
            acc[t] = _mm256_add_pd(
                acc[t], _mm256_mul_pd(p, _mm256_broadcast_sd(brow[t] + kk)));
        }
        for (int h = 0; h < 2; ++h) {  // back to rows: acc[4h + r] is row i + r
          transpose4(acc[4 * h], acc[4 * h + 1], acc[4 * h + 2],
                     acc[4 * h + 3]);
          for (int r = 0; r < rows; ++r)
            _mm256_maskstore_pd(crow[r] + j + 4 * h, mask[h], acc[4 * h + r]);
        }
      }
    }
  }
}

/// scaled_row_sum_scalar with the nonzero multipliers of each reduction
/// tile compacted first, so the zero skip is one pass of branch-free
/// bookkeeping rather than a data-dependent branch per column block.
/// Sixteen output columns then stay in four registers across the tile,
/// and 4-column (masked) blocks take the rest.
__attribute__((target("avx2"))) void scaled_row_sum_avx2(
    int n, int k, const double* a, std::int64_t a_stride, const double* b,
    double* crow) {
  std::fill(crow, crow + n, 0.0);
  double av[kGemmTileK];
  const double* brow[kGemmTileK];
  for (int k0 = 0; k0 < k; k0 += kGemmTileK) {
    const int kt = std::min(kGemmTileK, k - k0);
    int live = 0;
    for (int kk = k0; kk < k0 + kt; ++kk) {
      av[live] = a[kk * a_stride];
      brow[live] = b + static_cast<std::int64_t>(kk) * n;
      live += av[live] != 0.0;
    }
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256d acc0 = _mm256_loadu_pd(crow + j);
      __m256d acc1 = _mm256_loadu_pd(crow + j + 4);
      __m256d acc2 = _mm256_loadu_pd(crow + j + 8);
      __m256d acc3 = _mm256_loadu_pd(crow + j + 12);
      for (int q = 0; q < live; ++q) {
        const __m256d s = _mm256_set1_pd(av[q]);
        const double* bj = brow[q] + j;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(s, _mm256_loadu_pd(bj)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(s, _mm256_loadu_pd(bj + 4)));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(s, _mm256_loadu_pd(bj + 8)));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(s, _mm256_loadu_pd(bj + 12)));
      }
      _mm256_storeu_pd(crow + j, acc0);
      _mm256_storeu_pd(crow + j + 4, acc1);
      _mm256_storeu_pd(crow + j + 8, acc2);
      _mm256_storeu_pd(crow + j + 12, acc3);
    }
    for (; j < n; j += 4) {
      const __m256i mask = lane_mask(std::min(4, n - j));
      __m256d acc = _mm256_maskload_pd(crow + j, mask);
      for (int q = 0; q < live; ++q)
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(av[q]),
                               _mm256_maskload_pd(brow[q] + j, mask)));
      _mm256_maskstore_pd(crow + j, mask, acc);
    }
  }
}

/// adam_scalar four parameters at a time: vector div and sqrt are the
/// same correctly rounded IEEE operations as the scalar ones.
__attribute__((target("avx2"))) void adam_avx2(std::size_t n, double* w,
                                               double* m, double* v,
                                               const double* g, double lr,
                                               double decay, double c1,
                                               double c2) {
  const __m256d b1 = _mm256_set1_pd(kAdamBeta1);
  const __m256d b2 = _mm256_set1_pd(kAdamBeta2);
  const __m256d one_b1 = _mm256_set1_pd(1.0 - kAdamBeta1);
  const __m256d one_b2 = _mm256_set1_pd(1.0 - kAdamBeta2);
  const __m256d eps = _mm256_set1_pd(kAdamEps);
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d decayv = _mm256_set1_pd(decay);
  const __m256d c1v = _mm256_set1_pd(c1);
  const __m256d c2v = _mm256_set1_pd(c2);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gv = _mm256_loadu_pd(g + i);
    const __m256d mv = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(one_b1, gv));
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(one_b2, gv), gv));
    _mm256_storeu_pd(m + i, mv);
    _mm256_storeu_pd(v + i, vv);
    const __m256d mhat = _mm256_div_pd(mv, c1v);
    const __m256d vhat = _mm256_div_pd(vv, c2v);
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d update = _mm256_mul_pd(
        lrv, _mm256_add_pd(
                 _mm256_div_pd(mhat, _mm256_add_pd(_mm256_sqrt_pd(vhat), eps)),
                 _mm256_mul_pd(decayv, wv)));
    _mm256_storeu_pd(w + i, _mm256_sub_pd(wv, update));
  }
  adam_scalar(n - i, w + i, m + i, v + i, g + i, lr, decay, c1, c2);
}

bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

/// True when the next kernel call takes the AVX2 tier.
bool avx2_active() { return cpu_has_avx2() && simd::enabled(); }

#endif  // SPMVML_GEMM_AVX2

}  // namespace

void gemm_nt(int m, int n, int k, const double* a, const double* b,
             const double* bias, double* c) {
#if SPMVML_GEMM_AVX2
  if (avx2_active()) {
    gemm_nt_avx2(m, n, k, a, b, bias, c);
    return;
  }
#endif
  gemm_nt_scalar(m, n, k, a, b, bias, c);
}

void gemm_nn(int m, int n, int k, const double* a, const double* b,
             double* c) {
#if SPMVML_GEMM_AVX2
  if (avx2_active()) {
    gemm_nn_with(scaled_row_sum_avx2, m, n, k, a, b, c);
    return;
  }
#endif
  gemm_nn_with(scaled_row_sum_scalar, m, n, k, a, b, c);
}

void gemm_tn(int m, int n, int k, const double* a, const double* b,
             double* c) {
#if SPMVML_GEMM_AVX2
  if (avx2_active()) {
    gemm_tn_with(scaled_row_sum_avx2, m, n, k, a, b, c);
    return;
  }
#endif
  gemm_tn_with(scaled_row_sum_scalar, m, n, k, a, b, c);
}

void adam_step(std::size_t n, double* w, double* m, double* v,
               const double* g, double lr, double decay, double c1,
               double c2) {
#if SPMVML_GEMM_AVX2
  if (avx2_active()) {
    adam_avx2(n, w, m, v, g, lr, decay, c1, c2);
    return;
  }
#endif
  adam_scalar(n, w, m, v, g, lr, decay, c1, c2);
}

bool dense_self_check() {
#if SPMVML_GEMM_AVX2
  if (!cpu_has_avx2()) return true;
  // Ragged shapes (a full 4-row block plus one row, one full column block
  // plus three), with zero and -0.0 multipliers and negative values.
  constexpr int m = 5, n = 7, k = 19, size = m * k > n * k ? m * k : n * k;
  double a[size], b[size], bias[n], c_vec[m * n], c_sca[m * n];
  for (int i = 0; i < size; ++i) {
    a[i] = i % 5 == 0 ? (i % 2 == 0 ? 0.0 : -0.0) : 0.37 * i - 2.5;
    b[i] = 1.0 / (i + 0.75) - 0.125;
  }
  for (int j = 0; j < n; ++j) bias[j] = 0.3 * j - 1.0;
  const auto same = [&] {
    return std::memcmp(c_vec, c_sca, sizeof c_vec) == 0;
  };
  gemm_nt_avx2(m, n, k, a, b, bias, c_vec);
  gemm_nt_scalar(m, n, k, a, b, bias, c_sca);
  if (!same()) return false;
  gemm_nn_with(scaled_row_sum_avx2, m, n, k, a, b, c_vec);
  gemm_nn_with(scaled_row_sum_scalar, m, n, k, a, b, c_sca);
  if (!same()) return false;
  gemm_tn_with(scaled_row_sum_avx2, m, n, k, a, b, c_vec);
  gemm_tn_with(scaled_row_sum_scalar, m, n, k, a, b, c_sca);
  if (!same()) return false;

  // Adam over 11 parameters: two vector blocks and a scalar tail.
  constexpr int p = 11;
  double w[2][p], mom[2][p], var[2][p];
  for (int s = 0; s < 2; ++s)
    for (int i = 0; i < p; ++i) {
      w[s][i] = 0.1 * i - 0.4;
      mom[s][i] = 0.01 * i;
      var[s][i] = 0.002 * i;
    }
  adam_avx2(p, w[0], mom[0], var[0], b, 1e-3, 1e-5, 0.19, 0.002999);
  adam_scalar(p, w[1], mom[1], var[1], b, 1e-3, 1e-5, 0.19, 0.002999);
  return std::memcmp(w[0], w[1], sizeof w[0]) == 0 &&
         std::memcmp(mom[0], mom[1], sizeof mom[0]) == 0 &&
         std::memcmp(var[0], var[1], sizeof var[0]) == 0;
#else
  return true;
#endif
}

}  // namespace spmvml
