// Cache-blocked single-precision GEMM and the im2col/col2im patch
// transforms behind conv2d/linear.
//
// One micro-kernel (an MR x 16 register tile: MR = 16 rows on AVX-512, 6
// elsewhere; FMA-friendly inner loop) serves every matrix product in the
// library: conv2d forward (weights x im2col patches), the conv2d input
// gradient (transposed weights x output gradient, scattered back through
// col2im), the conv2d weight gradient (output gradient x transposed
// patches), and linear forward/backward. Operands are packed into
// contiguous K-blocked panels allocated from the calling thread's
// Workspace; the micro-tile grid is parallelized over the global thread
// pool. A row panel with fewer real rows than MR (all of an m = 3 or 4
// product, the last panel of m = 17) runs the kernel at the smallest
// height, a multiple of 4, that covers them; every element keeps one FMA
// chain, so its bits never depend on the tile height. The planned conv2d
// skips the im2col copy: it packs its patch matrix straight into B-panel
// layout (im2col_panels) and runs PackedA::run_panels on it.
//
// Setting DCDIFF_GEMM_NAIVE=1 (or set_gemm_naive(true)) routes every call
// through an unblocked reference loop instead — the A/B escape hatch for
// debugging numerical or performance regressions in the blocked path.
#pragma once

#include <cstdint>
#include <vector>

namespace dcdiff::nn {

// C (m x n, row-major, leading dimension ldc) = A_op * B_op + beta * C.
//
//   trans_a == false: `a` is m x k row-major with leading dimension lda.
//   trans_a == true:  `a` is k x m row-major with leading dimension lda and
//                     A_op = a^T (i.e. A_op[i, p] = a[p * lda + i]).
//   trans_b == false: `b` is k x n row-major with leading dimension ldb.
//   trans_b == true:  `b` is n x k row-major with leading dimension ldb and
//                     B_op = b^T (i.e. B_op[p, j] = b[j * ldb + p]).
//
// beta == 0 overwrites C (it is never read); beta == 1 accumulates, which
// is how gradient GEMMs add into existing grad buffers.
void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, int64_t lda, const float* b, int64_t ldb, float beta,
          float* c, int64_t ldc);

// True when the naive reference path is active (DCDIFF_GEMM_NAIVE=1 in the
// environment at first use, or a set_gemm_naive(true) override).
bool gemm_naive_enabled();
// Runtime override (tests / A-B debugging). Takes effect immediately.
void set_gemm_naive(bool naive);

// im2col for one NCHW image plane set: x is (c, h, w); the output `col` is
// (c*kh*kw) x (ho*wo) row-major, row (ci*kh + ky)*kw + kx holding the input
// value each output pixel sees at kernel tap (ky, kx) of channel ci (zero
// where the tap falls in padding). Row order matches the flattened weight
// layout (F, C, kH, kW), so conv2d forward is W[f x K] * col[K x N].
void im2col(const float* x, int c, int h, int w, int kh, int kw, int stride,
            int pad, int ho, int wo, float* col);

// Floats of an im2col_panels buffer: k rows by n columns rounded up to
// whole 16-column panels (exactly k * n when n % 16 == 0).
int64_t panel_floats(int64_t k, int64_t n);

// im2col straight into the micro-kernel's B-panel layout, for columns
// [col0, col1) of the (c*kh*kw) x (ho*wo) patch matrix im2col would write
// (col0 a multiple of 16, col1 <= ho*wo): 16-column panels that each span
// every row, panels[((j - col0) / 16) * k * 16 + p * 16 + j % 16] for
// k = c*kh*kw, with zeros past column col1. Panels are filled one after
// another (parallel over panels), so writes are sequential; each panel
// resolves which input pixel each of its 16 lanes reads once per kernel
// tap and reuses that for every channel. `panels` holds
// panel_floats(c*kh*kw, col1 - col0) floats.
void im2col_panels(const float* x, int c, int h, int w, int kh, int kw,
                   int stride, int pad, int ho, int wo, int64_t col0,
                   int64_t col1, float* panels);

// Pre-packed left operand for one-weight-many-inputs products.
//
// gemm() repacks A into micro-kernel panels for every NC-column block of
// every call. When the same matrix multiplies a batch of right-hand sides
// (conv2d weights against each image's patch matrix), that packing is pure
// waste: PackedA packs A_op (m x k) into panel layout exactly once and
// run() reuses it for every B. run() executes the identical blocked loop
// with the identical micro-kernel and K-block accumulation order as
// gemm(false, false, ...) on the same operands, so results are bit-equal —
// batching stays a pure performance transform.
//
// The original `a` pointer must stay valid for the PackedA's lifetime: the
// naive reference path (DCDIFF_GEMM_NAIVE=1) and sub-threshold small
// products read it directly, again matching what gemm() would have done.
class PackedA {
 public:
  PackedA(bool trans_a, int64_t m, int64_t k, const float* a, int64_t lda);

  // C (m x n, leading dim ldc) = A_op * B + beta * C, B row-major k x n
  // with leading dimension ldb (trans_b = false).
  void run(int64_t n, const float* b, int64_t ldb, float beta, float* c,
           int64_t ldc) const;

  // True when run(n, ...) takes the blocked micro-kernel path — false
  // under DCDIFF_GEMM_NAIVE and for products below the small-problem cutoff,
  // which go through the gemm() fallback instead.
  bool blocked(int64_t n) const;

  // C (m x n, leading dim ldc) = A_op * B + bias, B given as im2col_panels
  // output (k rows, n columns) so no pack_b copy is made; `bias` (m floats,
  // one per row, may be null) is added as the last K-block is written out.
  // Requires blocked(n). Bit-equal to run(n, b, n, 0, c, ldc) on the same
  // matrix followed by c[i][j] += bias[i]: same K-blocks, same FMA chain,
  // same (c + acc) + bias order.
  void run_panels(int64_t n, const float* panels, const float* bias, float* c,
                  int64_t ldc) const;

 private:
  int64_t m_ = 0;
  int64_t k_ = 0;
  bool trans_a_ = false;
  const float* a_ = nullptr;  // for the naive / small-problem fallback
  int64_t lda_ = 0;
  std::vector<float> panels_;          // all K-blocks, packed back to back
  std::vector<int64_t> block_offset_;  // panel offset of each K-block
};

// Transpose scatter of im2col: accumulates col (laid out as above) back
// into x (size c*h*w). x is NOT zeroed first — callers accumulate gradients.
void col2im_add(const float* col, int c, int h, int w, int kh, int kw,
                int stride, int pad, int ho, int wo, float* x);

}  // namespace dcdiff::nn
