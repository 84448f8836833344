// Dense-kernel tests: each GEMM shape and the Adam step against naive
// references written out in the contract's operation order (gemm.hpp),
// bitwise, on ragged shapes, with the vector tier on and off.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/gemm.hpp"
#include "sparse/simd.hpp"

namespace spmvml {
namespace {

struct SimdGuard {
  bool saved;
  SimdGuard() : saved(simd::enabled()) {}
  ~SimdGuard() { simd::set_enabled(saved); }
};

bool bytes_equal(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// Deterministic operand with exact zeros, negative zeros and negative
/// values mixed in: the zero-multiplier skip and signed-zero arithmetic
/// are part of what the tiers must agree on.
std::vector<double> operand(std::size_t n, int salt) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = (i * 7 + static_cast<std::size_t>(salt)) % 11;
    v[i] = r == 0   ? 0.0
           : r == 5 ? -0.0
                    : std::sin(0.37 * static_cast<double>(i) + salt) * 3.0;
  }
  return v;
}

void ref_nt(int m, int n, int k, const double* a, const double* b,
            const double* bias, double* c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double sum = bias != nullptr ? bias[j] : 0.0;
      for (int kk = 0; kk < k; ++kk) sum += a[i * k + kk] * b[j * k + kk];
      c[i * n + j] = sum;
    }
}

void ref_nn(int m, int n, int k, const double* a, const double* b,
            double* c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const double av = a[i * k + kk];
        if (av == 0.0) continue;
        sum += av * b[kk * n + j];
      }
      c[i * n + j] = sum;
    }
}

void ref_tn(int m, int n, int k, const double* a, const double* b,
            double* c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const double av = a[kk * m + i];
        if (av == 0.0) continue;
        sum += av * b[kk * n + j];
      }
      c[i * n + j] = sum;
    }
}

/// Runs all three kernels at (m, n, k) with the current tier and checks
/// each bitwise against its reference.
void check_shape(int m, int n, int k) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " k=" + std::to_string(k) + " isa=" + simd::active_isa());
  const auto sz = [](int x, int y) { return static_cast<std::size_t>(x * y); };
  const auto a_mk = operand(sz(m, k), 1);  // A of nt and nn; A^T of tn
  const auto b_nk = operand(sz(n, k), 2);  // B of nt (n x k)
  const auto b_kn = operand(sz(k, n), 3);  // B of nn and tn (k x n)
  const auto bias = operand(sz(n, 1), 4);
  std::vector<double> got(sz(m, n), 99.0), want(sz(m, n), -99.0);

  for (const double* bp : {bias.data(), static_cast<const double*>(nullptr)}) {
    gemm_nt(m, n, k, a_mk.data(), b_nk.data(), bp, got.data());
    ref_nt(m, n, k, a_mk.data(), b_nk.data(), bp, want.data());
    EXPECT_TRUE(bytes_equal(got, want)) << "gemm_nt bias=" << (bp != nullptr);
  }
  gemm_nn(m, n, k, a_mk.data(), b_kn.data(), got.data());
  ref_nn(m, n, k, a_mk.data(), b_kn.data(), want.data());
  EXPECT_TRUE(bytes_equal(got, want)) << "gemm_nn";
  gemm_tn(m, n, k, a_mk.data(), b_kn.data(), got.data());
  ref_tn(m, n, k, a_mk.data(), b_kn.data(), want.data());
  EXPECT_TRUE(bytes_equal(got, want)) << "gemm_tn";
}

TEST(Gemm, EveryKernelMatchesNaiveReferenceBitwiseOnRaggedShapes) {
  SimdGuard guard;
  for (const bool vector_tier : {false, true}) {
    simd::set_enabled(vector_tier);  // no-op when the build is scalar-only
    for (const int m : {1, 3, 16, 17})
      for (const int n : {1, 7, 16, 48, 96})
        for (const int k : {1, 17, 96}) check_shape(m, n, k);
    // Reductions longer than one tile carry partial sums across tiles.
    check_shape(5, 9, kGemmTileK + 37);
  }
}

TEST(Gemm, ZeroMultipliersAreSkippedNotMultiplied) {
  // For finite operands adding a zero product never changes a sum, so
  // only an infinite B entry shows whether a tier skips the zero (and
  // -0.0) multipliers: 0 * inf would turn the output into NaN.
  SimdGuard guard;
  const double inf = std::numeric_limits<double>::infinity();
  const int m = 5, n = 19, k = 7;
  std::vector<double> a(m * k), b(k * n);
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk)
      a[i * k + kk] = kk % 3 == 1 ? (i % 2 == 0 ? 0.0 : -0.0) : i - kk + 0.5;
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j)
      b[kk * n + j] = kk % 3 == 1 ? inf : 0.25 * j - kk;
  std::vector<double> a_t(k * m);  // the same multipliers as tn's k x m A
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk) a_t[kk * m + i] = a[i * k + kk];
  std::vector<double> want(m * n), got(m * n);
  ref_nn(m, n, k, a.data(), b.data(), want.data());
  for (const double v : want) ASSERT_TRUE(std::isfinite(v));
  for (const bool vector_tier : {false, true}) {
    simd::set_enabled(vector_tier);
    SCOPED_TRACE(simd::active_isa());
    gemm_nn(m, n, k, a.data(), b.data(), got.data());
    EXPECT_TRUE(bytes_equal(got, want)) << "gemm_nn";
    gemm_tn(m, n, k, a_t.data(), b.data(), got.data());
    EXPECT_TRUE(bytes_equal(got, want)) << "gemm_tn";
  }
}

TEST(Gemm, AdamStepMatchesScalarExpressionBitwise) {
  SimdGuard guard;
  for (const bool vector_tier : {false, true}) {
    simd::set_enabled(vector_tier);
    for (const std::size_t n : {1u, 3u, 4u, 13u, 97u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " isa=" + simd::active_isa());
      const auto g = operand(n, 5);
      auto w = operand(n, 6), m = operand(n, 7), v = operand(n, 8);
      for (double& x : v) x = std::abs(x);  // second moments are >= 0
      auto w_ref = w, m_ref = m, v_ref = v;
      const double lr = 1e-3, decay = 1e-5;
      const double c1 = 1.0 - std::pow(kAdamBeta1, 7.0);
      const double c2 = 1.0 - std::pow(kAdamBeta2, 7.0);
      adam_step(n, w.data(), m.data(), v.data(), g.data(), lr, decay, c1, c2);
      for (std::size_t i = 0; i < n; ++i) {
        m_ref[i] = kAdamBeta1 * m_ref[i] + (1.0 - kAdamBeta1) * g[i];
        v_ref[i] = kAdamBeta2 * v_ref[i] + (1.0 - kAdamBeta2) * g[i] * g[i];
        const double mhat = m_ref[i] / c1;
        const double vhat = v_ref[i] / c2;
        w_ref[i] -=
            lr * (mhat / (std::sqrt(vhat) + kAdamEps) + decay * w_ref[i]);
      }
      EXPECT_TRUE(bytes_equal(w, w_ref));
      EXPECT_TRUE(bytes_equal(m, m_ref));
      EXPECT_TRUE(bytes_equal(v, v_ref));
    }
  }
}

TEST(Gemm, MatchesNaiveReference) {
  // 3x2 * (4x2)^T + bias.
  const std::vector<double> a = {1, 2, 3, 4, 5, 6};
  const std::vector<double> b = {1, 0, 0, 1, 1, 1, 2, -1};
  const std::vector<double> bias = {0.5, -0.5, 0.0, 1.0};
  std::vector<double> c(12);
  gemm_nt(3, 4, 2, a.data(), b.data(), bias.data(), c.data());
  const std::vector<double> expect = {1.5, 1.5, 3, 1,  3.5, 3.5, 7, 3,
                                      5.5, 5.5, 11, 5};
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_DOUBLE_EQ(c[i], expect[i]) << i;

  // C = A (2x3) * B (3x2).
  const std::vector<double> b2 = {1, 2, 3, 4, 5, 6};
  std::vector<double> c2(4);
  gemm_nn(2, 2, 3, a.data(), b2.data(), c2.data());
  EXPECT_DOUBLE_EQ(c2[0], 1 * 1 + 2 * 3 + 3 * 5);
  EXPECT_DOUBLE_EQ(c2[1], 1 * 2 + 2 * 4 + 3 * 6);
  EXPECT_DOUBLE_EQ(c2[2], 4 * 1 + 5 * 3 + 6 * 5);
  EXPECT_DOUBLE_EQ(c2[3], 4 * 2 + 5 * 4 + 6 * 6);

  // C = A^T (3x2 -> 2x3 reduction over rows) * B (3x2): 2x2.
  std::vector<double> c3(4);
  gemm_tn(2, 2, 3, a.data(), a.data(), c3.data());
  EXPECT_DOUBLE_EQ(c3[0], 1 * 1 + 3 * 3 + 5 * 5);
  EXPECT_DOUBLE_EQ(c3[1], 1 * 2 + 3 * 4 + 5 * 6);
  EXPECT_DOUBLE_EQ(c3[2], 2 * 1 + 4 * 3 + 6 * 5);
  EXPECT_DOUBLE_EQ(c3[3], 2 * 2 + 4 * 4 + 6 * 6);
}

TEST(Gemm, TiledReductionMatchesUntiledOrder) {
  // k spans several kGemmTileK tiles; tiling must not change the
  // ascending-k accumulation (sums round-trip through the C row exactly).
  const int k = kGemmTileK * 2 + 37;
  std::vector<double> a(static_cast<std::size_t>(k)), b(a.size());
  for (int i = 0; i < k; ++i) {
    a[static_cast<std::size_t>(i)] = std::sin(i * 0.7) * 1e3;
    b[static_cast<std::size_t>(i)] = std::cos(i * 0.3);
  }
  double c = 0.0;
  gemm_nt(1, 1, k, a.data(), b.data(), nullptr, &c);
  double ref = 0.0;
  for (int i = 0; i < k; ++i)
    ref += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  EXPECT_EQ(c, ref);  // exact: the same operations in the same order
}

}  // namespace
}  // namespace spmvml
