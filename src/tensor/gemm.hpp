#pragma once

// Single-precision matrix multiplication kernels. The convolution layers are
// lowered to GEMM through im2col, so this is the compute hot spot of the whole
// library.
//
// The production kernels are cache-blocked and register-tiled: A is packed
// into MR-tall k-major panels, B is consumed in place when row-major (packed
// into NR-wide panels otherwise), and an MR x NR micro-kernel accumulates
// into registers (GotoBLAS loop structure). Work is split over the global
// util::ThreadPool across *row/column blocks only* — the k-summation of every
// C element always runs on one thread in one fixed order, so results are
// bit-identical at any thread count.
//
// The original triple loops are kept as gemm_naive_* reference
// implementations for tests and the kernel benchmark.

#include <cstdint>

namespace parpde {

// C[m x n] = A[m x k] * B[k x n], row-major, C overwritten.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

// C[m x n] += A[m x k] * B[k x n].
void gemm_acc(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);

// C[m x n] = A^T * B where A is stored [k x m] and used transposed.
void gemm_at(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

// C[m x n] = A[m x k] * B, where row p of B is the n floats at
// b + b_rows[p]. Rows may overlap: the forward conv passes the input with
// one offset per tap (nn/conv_ops.cpp), so no column matrix is built.
void gemm_rows(const float* a, const float* b, const std::int64_t* b_rows,
               float* c, std::int64_t m, std::int64_t k, std::int64_t n);

// C[m x n] += A[m x k] * B^T where B is stored [n x k].
void gemm_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n);

// gemm_bt_acc with stored row j of B read in place, in segments: its
// element p is b[b_rows[j] + (p / seg) * seg_stride + p % seg]. The conv dW
// pass reads the input's taps this way, one segment per output row.
void gemm_bt_rows_acc(const float* a, const float* b,
                      const std::int64_t* b_rows, std::int64_t seg,
                      std::int64_t seg_stride, float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n);

// Single-threaded reference versions of gemm, gemm_acc, gemm_at and
// gemm_bt_acc (the seed repo's original i-k-j loops). Used by tests to
// validate the blocked path and by bench_kernels as the speedup baseline.
void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n);
void gemm_naive_acc(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n);
void gemm_naive_at(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n);
void gemm_naive_bt_acc(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace parpde
