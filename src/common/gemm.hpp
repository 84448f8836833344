// Small dense kernels for the MLP hot paths: the three GEMM shapes of a
// forward and backward pass, and the Adam update (DESIGN.md §5d, §5g).
//
// These are not a BLAS: operands are mini-batch x layer width (tens to
// low hundreds), where library-call overhead would dominate. Operands are
// contiguous row-major blocks, so no per-sample std::vector allocation.
//
// Operation-order contract. Each output element is computed by exactly
// the IEEE operations below, in this order, in every tier:
//   * gemm_nt: start from bias[j] (0.0 without a bias), then add
//     a[i][kk] * b[j][kk] for kk ascending.
//   * gemm_nn, gemm_tn: start from 0.0, then add av * b[kk][j] for kk
//     ascending, where av is the A multiplier; every kk with av == 0.0
//     (which includes -0.0) is skipped — ReLU deltas are often zero.
//   * adam_step: the expression order written out in gemm.cpp's scalar
//     reference, including ((1 - b2) * g) * g and m / c1.
// Mul and add are separate roundings (no FMA, no contraction) and no sum
// is reassociated. Vector lanes run across independent outputs — batch
// rows, output columns, parameters — never across one reduction.
//
// Tiers: the scalar reference and an AVX2 tier (x86-64), chosen at run
// time. Both are bitwise-identical by the contract above. They share the
// sparse kernels' toggles (sparse/simd.hpp): SPMVML_FORCE_SCALAR compiles
// the AVX2 tier out, SPMVML_SIMD=0 or simd::set_enabled(false) turns it
// off, and simd::self_check() compares it against the scalar reference
// on first use.
//
// The kernels are serial: batch-16 products at most 96 wide cannot pay
// for a pool wake-up; training parallelism sits in PerfModel's
// per-format fits.
#pragma once

#include <cstddef>

namespace spmvml {

/// Reduction-dimension tile of gemm_nt's AVX2 tier: it packs 4 A rows by
/// at most 256 k into an 8 KB stack panel. Longer reductions round-trip
/// their partial sums through C between tiles, which is exact.
inline constexpr int kGemmTileK = 256;

/// C (m x n) = A (m x k) * B^T, with B stored row-major n x k, plus an
/// optional bias broadcast over rows (pass nullptr for none). This is the
/// MLP forward shape: activations (batch x in) times a weight matrix
/// stored out x in.
void gemm_nt(int m, int n, int k, const double* a, const double* b,
             const double* bias, double* c);

/// C (m x n) = A (m x k) * B (k x n), both row-major. This is the MLP
/// delta back-propagation shape: batch x out deltas times the out x in
/// weight matrix.
void gemm_nn(int m, int n, int k, const double* a, const double* b,
             double* c);

/// C (m x n) = A^T * B where A is k x m and B is k x n, both row-major.
/// This is the MLP weight-gradient shape: (batch x out)^T deltas times
/// batch x in activations, reducing over the batch.
void gemm_tn(int m, int n, int k, const double* a, const double* b,
             double* c);

/// Adam moment decay rates and denominator guard.
inline constexpr double kAdamBeta1 = 0.9;
inline constexpr double kAdamBeta2 = 0.999;
inline constexpr double kAdamEps = 1e-8;

/// One Adam step with decoupled weight decay over n parameters w, with
/// first and second moments m and v and gradient g. c1 and c2 are the
/// bias corrections 1 - beta1^t and 1 - beta2^t of step t.
void adam_step(std::size_t n, double* w, double* m, double* v,
               const double* g, double lr, double decay, double c1,
               double c2);

/// Fixed-input bitwise check of the AVX2 tier of every kernel above
/// against the scalar reference; true when the tier is absent. Part of
/// simd::self_check().
bool dense_self_check();

}  // namespace spmvml
