// Shared-memory parallel SpMV kernels on parallel_for's shared pool.
//
// The serial kernels in each format class are the reference semantics and
// every variant here is built from the SAME simd primitives (simd::dot,
// Ell::spmv_rows, MergeCsr::walk_partition), so serial, SIMD and parallel
// runs produce bitwise-identical y — the contract the differential test
// suite enforces. The formats whose work decomposes cleanly:
//   * CSR  — row-parallel (each row owned by one task; no races).
//   * ELL  — parallel over row blocks of the column-major slots; the
//     kernel is elementwise per (row, slot) so blocking cannot change
//     any row's accumulation order.
//   * HYB  — parallel ELL part + serial COO spill (the spill is small by
//            construction).
//   * SELL — parallel over slice blocks; the sorted-row permutation
//     partitions output rows across slices (each y row is owned by
//     exactly one slice), so blocking cannot race or reorder any row's
//     ascending-slot-column accumulation.
//   * merge-CSR — the real merge-path decomposition: y is zero-filled,
//     every partition accumulates the rows whose boundary it owns (each
//     such flush is unique to one partition, so writes are race-free),
//     and one trailing carry (row, partial) per partition is applied in a
//     serial second phase — exactly the CUDA kernel's fix-up pass. For a
//     row spanning partitions p..q only partition p can flush directly
//     (any later partition's flush into it is that partition's first and
//     goes to a carry), and carries land in partition order, so the adds
//     into each y[r] replay the serial walk exactly.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"
#include "sparse/merge_csr.hpp"
#include "sparse/sell.hpp"
#include "sparse/simd.hpp"

namespace spmvml {

/// Nonzeros below which an SpMV stays serial: waking a sleeping pool
/// worker costs 0.1-0.2 ms on a 4-vCPU KVM guest, where split CSR products
/// of 0.1M-0.3M nonzeros ran at 0.76-0.82x serial and from 0.4M up at 2.4-3x.
inline constexpr index_t kParallelSpmvMinNnz = index_t{1} << 18;

/// parallel_for threshold, in tasks (rows, blocks or partitions), for an
/// SpMV over `nnz` nonzeros: any split once nnz is big enough, none below.
inline index_t spmv_min_tasks(index_t nnz) {
  return nnz >= kParallelSpmvMinNnz ? 2 : std::numeric_limits<index_t>::max();
}

/// y = A*x, rows in parallel.
template <typename ValueT>
void spmv_parallel(const Csr<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y) {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == a.cols(), "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == a.rows(), "y size != rows");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const auto dot = simd::dot_kernel<ValueT>();
  parallel_for(a.rows(), spmv_min_tasks(a.nnz()), [&](index_t r) {
    const index_t begin = row_ptr[static_cast<std::size_t>(r)];
    y[static_cast<std::size_t>(r)] =
        dot(values.data() + begin, col_idx.data() + begin, x.data(),
            row_ptr[static_cast<std::size_t>(r) + 1] - begin);
  });
}

/// y = A*x, parallel over row blocks of the ELL slots.
template <typename ValueT>
void spmv_parallel(const Ell<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y) {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == a.cols(), "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == a.rows(), "y size != rows");
  constexpr index_t kBlock = 4096;  // rows per task
  const index_t blocks = (a.rows() + kBlock - 1) / kBlock;
  parallel_for(blocks, spmv_min_tasks(a.nnz()), [&](index_t b) {
    const index_t begin = b * kBlock;
    const index_t count = std::min<index_t>(kBlock, a.rows() - begin);
    std::fill(y.begin() + begin, y.begin() + begin + count, ValueT{});
    a.spmv_rows(x, y, begin, count);
  });
}

/// y = A*x, parallel over SELL slice blocks (each slice owns the y rows
/// its permutation entries name — race-free by construction).
template <typename ValueT>
void spmv_parallel(const Sell<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y) {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == a.cols(), "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == a.rows(), "y size != rows");
  const index_t slices = a.num_slices();
  // ~4096 rows per task, like the ELL row blocking.
  const index_t per_block =
      std::max<index_t>(1, 4096 / std::max<index_t>(1, a.slice_height()));
  const index_t blocks = (slices + per_block - 1) / per_block;
  parallel_for(blocks, spmv_min_tasks(a.nnz()), [&](index_t b) {
    const index_t begin = b * per_block;
    a.spmv_slices(x, y, begin, std::min<index_t>(per_block, slices - begin));
  });
}

/// y = A*x: parallel ELL prefix + serial COO spill.
template <typename ValueT>
void spmv_parallel(const Hyb<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y) {
  spmv_parallel(a.ell_part(), x, y);
  a.coo_part().spmv_accumulate(x, y);
}

/// y = A*x via the two-phase parallel merge-path algorithm.
template <typename ValueT>
void spmv_parallel(const MergeCsr<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y) {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == a.cols(), "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == a.rows(), "y size != rows");
  const index_t parts = a.num_partitions();

  struct Carry {
    index_t row = -1;
    ValueT value{};
  };
  std::vector<Carry> carries(static_cast<std::size_t>(parts));

  // Zero-fill so every phase-1 write can be '+=' (each non-carry flush is
  // unique to one partition — no races).
  const index_t min_tasks = spmv_min_tasks(a.nnz());
  parallel_for(a.rows(), min_tasks,
               [&](index_t r) { y[static_cast<std::size_t>(r)] = ValueT{}; });

  parallel_for(parts, min_tasks, [&](index_t part) {
    auto& carry = carries[static_cast<std::size_t>(part)];
    bool first_flush = true;
    // The first flush of a partition may belong to a row begun in an
    // earlier partition: stash it for the serial fix-up. Later flushes
    // (including the trailing partial) are unique to this partition.
    const auto handle = [&](index_t row, ValueT sum) {
      if (first_flush) {
        carry.row = row;
        carry.value = sum;
        first_flush = false;
      } else {
        y[static_cast<std::size_t>(row)] += sum;
      }
    };
    a.walk_partition(x, part, handle, handle);
  });

  // Phase 2: serial carry fix-up, in partition order.
  for (const auto& c : carries)
    if (c.row >= 0 && c.row < a.rows())
      y[static_cast<std::size_t>(c.row)] += c.value;
}

}  // namespace spmvml
