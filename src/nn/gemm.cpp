#include "nn/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "nn/threadpool.h"
#include "nn/workspace.h"
#include "obs/env.h"

namespace dcdiff::nn {

namespace {

// Register tile: MR x NR accumulators, each row one NR-lane vector. On
// AVX-512 a row is one of its 32 registers, and MR = 16 keeps 16 independent
// FMA chains in flight (two FMA ports at a four-cycle latency need at least
// eight) beside the B row and the A broadcast. Elsewhere a row splits into
// two (AVX2) or four (SSE/NEON) registers, so MR = 6 keeps the tile inside
// the register file. The compiler vectorizes each row at whatever width the
// target offers.
#if defined(__AVX512F__)
constexpr int64_t MR = 16;
#else
constexpr int64_t MR = 6;
#endif
constexpr int64_t NR = 16;
// K-block: packed panels of both operands for one block stay L1/L2-resident
// (KC * (MR + NR) floats, at most 32 KiB, per in-flight tile pair).
constexpr int64_t KC = 256;
// N-block: bounds the packed-B panel at KC * NC floats (= 480 KiB).
constexpr int64_t NC = 480;  // multiple of NR
// Below this many MACs a single call isn't worth packing + dispatch.
constexpr int64_t kSmallProblem = 1 << 12;
// Target MACs per dispatched range when spreading micro-tiles over workers.
constexpr int64_t kGrainMacs = 1 << 17;

std::atomic<int> g_naive_override{-1};  // -1 = follow env, 0/1 = forced

bool naive_from_env() {
  static const bool naive = obs::env_int("DCDIFF_GEMM_NAIVE", 0) > 0;
  return naive;
}

inline float load_a(bool trans_a, const float* a, int64_t lda, int64_t i,
                    int64_t p) {
  return trans_a ? a[p * lda + i] : a[i * lda + p];
}

inline float load_b(bool trans_b, const float* b, int64_t ldb, int64_t p,
                    int64_t j) {
  return trans_b ? b[j * ldb + p] : b[p * ldb + j];
}

// Unblocked reference path (also the DCDIFF_GEMM_NAIVE escape hatch).
// Parallelized over rows so A/B runs stay usable on real workloads.
void gemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                const float* a, int64_t lda, const float* b, int64_t ldb,
                float beta, float* c, int64_t ldc) {
  const int64_t grain = std::max<int64_t>(1, kGrainMacs / std::max<int64_t>(1, n * k));
  parallel_for_ranges(m, grain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
          acc += load_a(trans_a, a, lda, i, p) * load_b(trans_b, b, ldb, p, j);
        }
        crow[j] = beta == 0.0f ? acc : beta * crow[j] + acc;
      }
    }
  });
}

// Packs rows [0, m) x cols [pc, pc + kc) of A_op into MR-row panels:
// panel ir holds rows [ir*MR, ir*MR + MR), stored k-major as
// ap[ir*kc*MR + p*MR + i], zero-padded past the last real row so a
// micro-kernel of any height reads only real rows or zeros.
void pack_a(bool trans_a, const float* a, int64_t lda, int64_t m, int64_t pc,
            int64_t kc, float* ap) {
  for (int64_t i0 = 0; i0 < m; i0 += MR) {
    float* dst = ap + (i0 / MR) * kc * MR;
    const int64_t mr = std::min(MR, m - i0);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t i = 0; i < mr; ++i) {
        dst[p * MR + i] = load_a(trans_a, a, lda, i0 + i, pc + p);
      }
      for (int64_t i = mr; i < MR; ++i) dst[p * MR + i] = 0.0f;
    }
  }
}

// Packs rows [pc, pc + kc) x cols [jc, jc + nc) of B_op into NR-column
// panels: bp[jr*kc*NR + p*NR + j], zero-padded past the last real column.
void pack_b(bool trans_b, const float* b, int64_t ldb, int64_t pc, int64_t kc,
            int64_t jc, int64_t nc, float* bp) {
  for (int64_t j0 = 0; j0 < nc; j0 += NR) {
    float* dst = bp + (j0 / NR) * kc * NR;
    const int64_t nr = std::min(NR, nc - j0);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t j = 0; j < nr; ++j) {
        dst[p * NR + j] = load_b(trans_b, b, ldb, pc + p, jc + j0 + j);
      }
      for (int64_t j = nr; j < NR; ++j) dst[p * NR + j] = 0.0f;
    }
  }
}

// One R x NR tile over a kc-deep packed panel pair: rows [0, R) of an
// MR-row A panel (R <= MR; rows past the real ones are zero padding) against
// one B panel, storing rows [0, mr) and columns [0, nr) of it.
//
// The accumulator is written as R explicit NR-lane vectors (GCC/Clang
// vector extensions) rather than a float[R][NR] array: auto-vectorizers
// routinely pick a narrow width for the array form (GCC 12 at
// -march=skylake-avx512 emits 128-bit FMAs, ~1/10th of peak), whereas the
// vector type pins each accumulator row to one AVX-512 register (or a ymm
// pair on AVX2 -- the compiler legalizes wider-than-native vectors by
// splitting, so this stays portable down to SSE). Loads/stores go through
// memcpy: panel and C-row addresses are not 64-byte aligned in general.
// Every element runs the same FMA chain whatever R is, so a row's bits do
// not depend on the tile height that computed it.
#if defined(__GNUC__) || defined(__clang__)
#define DCDIFF_GEMM_VECTOR_EXT 1
typedef float VRow __attribute__((vector_size(NR * sizeof(float))));
#endif

// `bias` (mr row values, or null) is added after the tile is combined with
// C: crow = (beta * crow + acc) + bias[i], the same order as a separate
// bias pass over the finished product. Every loop over the R rows is
// unrolled, so acc[] is only ever indexed by constants and the compiler
// keeps it in registers from the first FMA to the write-out.
template <int64_t R>
void micro_kernel(int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, float* __restrict c, int64_t ldc,
                  int64_t mr, int64_t nr, float beta,
                  const float* __restrict bias) {
#ifdef DCDIFF_GEMM_VECTOR_EXT
  VRow acc[R];
#pragma GCC unroll 16
  for (int64_t i = 0; i < R; ++i) acc[i] = VRow{};
  for (int64_t p = 0; p < kc; ++p) {
    VRow bv;
    __builtin_memcpy(&bv, bp + p * NR, sizeof(bv));
    const float* acol = ap + p * MR;
#pragma GCC unroll 16
    for (int64_t i = 0; i < R; ++i) acc[i] += acol[i] * bv;
  }
  if (nr == NR) {
#pragma GCC unroll 16
    for (int64_t i = 0; i < R; ++i) {
      if (i == mr) break;
      float* crow = c + i * ldc;
      VRow cv = acc[i];
      if (beta != 0.0f) {
        __builtin_memcpy(&cv, crow, sizeof(cv));
        cv = beta * cv + acc[i];
      }
      if (bias) cv += bias[i];
      __builtin_memcpy(crow, &cv, sizeof(cv));
    }
    return;
  }
  // A partial column panel: through a stack copy, element by element.
  float accs[R][NR];
#pragma GCC unroll 16
  for (int64_t i = 0; i < R; ++i) {
    __builtin_memcpy(accs[i], &acc[i], sizeof(VRow));
  }
#else
  float accs[R][NR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * NR;
    const float* acol = ap + p * MR;
    for (int64_t i = 0; i < R; ++i) {
      const float av = acol[i];
      for (int64_t j = 0; j < NR; ++j) accs[i][j] += av * brow[j];
    }
  }
#endif
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr; ++j) {
      crow[j] = beta == 0.0f ? accs[i][j] : beta * crow[j] + accs[i][j];
    }
    if (bias) {
      for (int64_t j = 0; j < nr; ++j) crow[j] += bias[i];
    }
  }
}

using MicroKernel = void (*)(int64_t, const float*, const float*, float*,
                             int64_t, int64_t, int64_t, float, const float*);

// The tile height for a row panel with mr real rows: the smallest multiple
// of 4 (or MR itself) that covers them, so short panels -- the last one of
// m = 17, or all of an m = 3 or m = 4 product -- skip most of the padded
// rows' FMAs, and m = 8 or 16 stays exact.
template <int64_t R = 4>
MicroKernel kernel_for(int64_t mr) {
  if constexpr (R >= MR) {
    return micro_kernel<MR>;
  } else {
    return mr <= R ? micro_kernel<R> : kernel_for<R + 4>(mr);
  }
}

// One K-block of a blocked product over an nc-column block of C: every
// MR x NR tile, parallel over tiles. Tile (ir, jr) multiplies A panel ir
// of `ap` (kc deep) by the kc-deep B panel at bp + jr * b_stride; `bias`
// (m row values, or null) is added as the tiles are written out.
void run_tiles(int64_t m, int64_t nc, int64_t kc, const float* ap,
               const float* bp, int64_t b_stride, float beta,
               const float* bias, float* c, int64_t ldc) {
  const int64_t col_panels = (nc + NR - 1) / NR;
  const int64_t tiles = (m + MR - 1) / MR * col_panels;
  const int64_t grain = std::max<int64_t>(1, kGrainMacs / (kc * MR * NR));
  parallel_for_ranges(tiles, grain, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t ir = t / col_panels;
      const int64_t jr = t % col_panels;
      const int64_t mr = std::min(MR, m - ir * MR);
      kernel_for(mr)(kc, ap + ir * kc * MR, bp + jr * b_stride,
                     c + ir * MR * ldc + jr * NR, ldc, mr,
                     std::min(NR, nc - jr * NR), beta,
                     bias ? bias + ir * MR : nullptr);
    }
  });
}

// dst[j] = lane[j] >= 0 ? win[j] : 0 for one 16-lane panel row, where all
// 16 floats at `win` are readable: one vector load, select and store.
void copy_window(const float* __restrict win, const int32_t* __restrict lane,
                 float* __restrict dst) {
#ifdef DCDIFF_GEMM_VECTOR_EXT
  typedef int32_t VLane __attribute__((vector_size(NR * sizeof(int32_t))));
  VRow v;
  VLane l;
  __builtin_memcpy(&v, win, sizeof(v));
  __builtin_memcpy(&l, lane, sizeof(l));
  v = l >= 0 ? v : VRow{};
  __builtin_memcpy(dst, &v, sizeof(v));
#else
  for (int64_t j = 0; j < NR; ++j) dst[j] = lane[j] >= 0 ? win[j] : 0.0f;
#endif
}

}  // namespace

bool gemm_naive_enabled() {
  const int o = g_naive_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return naive_from_env();
}

void set_gemm_naive(bool naive) {
  g_naive_override.store(naive ? 1 : 0, std::memory_order_relaxed);
}

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, int64_t lda, const float* b, int64_t ldb, float beta,
          float* c, int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate: C = beta * C.
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0f) {
        std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
      } else if (beta != 1.0f) {
        for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }
  if (gemm_naive_enabled() || m * n * k <= kSmallProblem) {
    gemm_naive(trans_a, trans_b, m, n, k, a, lda, b, ldb, beta, c, ldc);
    return;
  }

  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  const int64_t row_panels = (m + MR - 1) / MR;
  const int64_t kc_max = std::min(KC, k);
  float* ap = ws.floats(static_cast<size_t>(row_panels * kc_max * MR));
  float* bp = ws.floats(
      static_cast<size_t>(((std::min(NC, n) + NR - 1) / NR) * kc_max * NR));

  // K-blocks outermost so A is packed once per block instead of once per
  // (jc, pc) pair — for wide-N products (batched conv patches) the old order
  // repacked the same weight panels n/NC times. Every C element still
  // accumulates its K-blocks in ascending pc order, so results are
  // unchanged bit for bit.
  for (int64_t pc = 0; pc < k; pc += KC) {
    const int64_t kc = std::min(KC, k - pc);
    pack_a(trans_a, a, lda, m, pc, kc, ap);
    for (int64_t jc = 0; jc < n; jc += NC) {
      const int64_t nc = std::min(NC, n - jc);
      pack_b(trans_b, b, ldb, pc, kc, jc, nc, bp);
      run_tiles(m, nc, kc, ap, bp, kc * NR, pc == 0 ? beta : 1.0f, nullptr,
                c + jc, ldc);
    }
  }
}

PackedA::PackedA(bool trans_a, int64_t m, int64_t k, const float* a,
                 int64_t lda)
    : m_(m), k_(k), trans_a_(trans_a), a_(a), lda_(lda) {
  const int64_t row_panels = (m + MR - 1) / MR;
  panels_.resize(static_cast<size_t>(row_panels) * MR * k);
  int64_t offset = 0;
  for (int64_t pc = 0; pc < k; pc += KC) {
    const int64_t kc = std::min(KC, k - pc);
    block_offset_.push_back(offset);
    pack_a(trans_a, a, lda, m, pc, kc, panels_.data() + offset);
    offset += row_panels * kc * MR;
  }
}

void PackedA::run(int64_t n, const float* b, int64_t ldb, float beta, float* c,
                  int64_t ldc) const {
  if (m_ <= 0 || n <= 0) return;
  // Mirror gemm()'s routing exactly so a batched matmul through PackedA is
  // bit-equal to the per-call gemm() the single-image path would issue.
  if (!blocked(n)) {
    gemm(trans_a_, false, m_, n, k_, a_, lda_, b, ldb, beta, c, ldc);
    return;
  }
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  const int64_t kc_max = std::min(KC, k_);
  float* bp = ws.floats(
      static_cast<size_t>(((std::min(NC, n) + NR - 1) / NR) * kc_max * NR));
  for (int64_t jc = 0; jc < n; jc += NC) {
    const int64_t nc = std::min(NC, n - jc);
    int64_t block = 0;
    for (int64_t pc = 0; pc < k_; pc += KC, ++block) {
      const int64_t kc = std::min(KC, k_ - pc);
      const float* ap = panels_.data() + block_offset_[static_cast<size_t>(block)];
      pack_b(false, b, ldb, pc, kc, jc, nc, bp);
      run_tiles(m_, nc, kc, ap, bp, kc * NR, pc == 0 ? beta : 1.0f, nullptr,
                c + jc, ldc);
    }
  }
}

bool PackedA::blocked(int64_t n) const {
  return m_ > 0 && n > 0 && k_ > 0 && !gemm_naive_enabled() &&
         m_ * n * k_ > kSmallProblem;
}

void PackedA::run_panels(int64_t n, const float* panels, const float* bias,
                         float* c, int64_t ldc) const {
  // run()'s loop nest with the B panels already in place: panel jr of the
  // whole matrix starts at panels + jr * k_ * NR, and K-block pc of it is
  // the kc * NR floats at offset pc * NR — exactly the block pack_b would
  // have copied out.
  for (int64_t jc = 0; jc < n; jc += NC) {
    const int64_t nc = std::min(NC, n - jc);
    const float* bc = panels + (jc / NR) * k_ * NR;
    int64_t block = 0;
    for (int64_t pc = 0; pc < k_; pc += KC, ++block) {
      const int64_t kc = std::min(KC, k_ - pc);
      const float* ap = panels_.data() + block_offset_[static_cast<size_t>(block)];
      run_tiles(m_, nc, kc, ap, bc + pc * NR, k_ * NR, pc == 0 ? 0.0f : 1.0f,
                pc + kc == k_ ? bias : nullptr, c + jc, ldc);
    }
  }
}

int64_t panel_floats(int64_t k, int64_t n) {
  return k * ((n + NR - 1) / NR) * NR;
}

void im2col_panels(const float* x, int c, int h, int w, int kh, int kw,
                   int stride, int pad, int ho, int wo, int64_t col0,
                   int64_t col1, float* panels) {
  const int taps = kh * kw;
  const int64_t k = static_cast<int64_t>(c) * taps;
  const int64_t npix = static_cast<int64_t>(ho) * wo;
  const int64_t plane = static_cast<int64_t>(h) * w;
  const int64_t first_panel = col0 / NR;
  const int64_t num_panels = (col1 + NR - 1) / NR - first_panel;
  const int64_t grain = std::max<int64_t>(1, (1 << 14) / (k * NR));
  parallel_for_ranges(num_panels, grain, [&](int64_t p0, int64_t p1) {
    // Lane map, rebuilt per panel: src[t * NR + j] is the in-plane offset
    // lane j reads at tap t, -1 in padding or past the last pixel.
    // base[t] >= 0 marks a tap whose in-bounds lanes read src = base + j
    // with the 16-float window at `base` inside the plane (every tap of a
    // stride-1 "same" conv away from the plane's first and last rows): one
    // vector load per channel, padded lanes then zeroed by a select. Other
    // taps gather lane by lane. The map is per thread, grown once to the
    // largest kernel seen.
    thread_local std::vector<int32_t> map;
    map.resize(static_cast<size_t>(taps) * (NR + 1));
    int32_t* src = map.data();
    int32_t* base = src + taps * NR;
    for (int64_t jr = first_panel + p0; jr < first_panel + p1; ++jr) {
      // Top-left input pixel of each lane's window (one division per panel,
      // then stepping along the output row).
      int y0[NR], x0[NR];
      int oy = static_cast<int>(jr * NR / wo), ox = static_cast<int>(jr * NR % wo);
      for (int64_t j = 0; j < NR; ++j) {
        y0[j] = jr * NR + j < npix ? oy * stride - pad : -h - kh;
        x0[j] = ox * stride - pad;
        if (++ox == wo) ox = 0, ++oy;
      }
      for (int t = 0; t < taps; ++t) {
        const int ky = t / kw, kx = t % kw;
        int32_t* lane = src + t * NR;
        for (int64_t j = 0; j < NR; ++j) {
          const int iy = y0[j] + ky, ix = x0[j] + kx;
          const bool in = static_cast<unsigned>(iy) < static_cast<unsigned>(h) &&
                          static_cast<unsigned>(ix) < static_cast<unsigned>(w);
          lane[j] = in ? iy * w + ix : -1;
        }
        int64_t first = 0;
        while (first < NR && lane[first] < 0) ++first;
        // All-padding taps use the window at 0: every lane is zeroed.
        const int64_t b = first < NR ? lane[first] - first : 0;
        bool window = b >= 0 && b + NR <= plane;
        for (int64_t j = 0; j < NR; ++j) {
          window = window && (lane[j] < 0 || lane[j] == b + j);
        }
        base[t] = window ? static_cast<int32_t>(b) : -1;
      }
      float* dst = panels + (jr - first_panel) * k * NR;
      for (int ci = 0; ci < c; ++ci) {
        const float* xp = x + ci * plane;
        for (int t = 0; t < taps; ++t, dst += NR) {
          const int32_t* lane = src + t * NR;
          if (base[t] >= 0) {
            copy_window(xp + base[t], lane, dst);
            continue;
          }
          for (int64_t j = 0; j < NR; ++j) {
            dst[j] = lane[j] >= 0 ? xp[lane[j]] : 0.0f;
          }
        }
      }
    }
  });
}

void im2col(const float* x, int c, int h, int w, int kh, int kw, int stride,
            int pad, int ho, int wo, float* col) {
  const int64_t ld = static_cast<int64_t>(ho) * wo;
  const int64_t rows = static_cast<int64_t>(c) * kh * kw;
  const int64_t row_elems = static_cast<int64_t>(ho) * wo;
  const int64_t grain = std::max<int64_t>(1, (1 << 14) / std::max<int64_t>(1, row_elems));
  parallel_for_ranges(rows, grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int ci = static_cast<int>(r / (kh * kw));
      const int ky = static_cast<int>(r / kw % kh);
      const int kx = static_cast<int>(r % kw);
      const float* xp = x + static_cast<int64_t>(ci) * h * w;
      float* dst = col + r * ld;
      // ox producing an in-bounds ix = ox*stride - pad + kx:
      const int lo_num = pad - kx;
      const int ox_lo =
          lo_num <= 0 ? 0 : (lo_num + stride - 1) / stride;  // first valid
      const int hi_num = w - 1 + pad - kx;
      const int ox_hi =
          hi_num < 0 ? -1 : std::min(wo - 1, hi_num / stride);  // last valid
      for (int oy = 0; oy < ho; ++oy) {
        float* drow = dst + static_cast<int64_t>(oy) * wo;
        const int iy = oy * stride - pad + ky;
        if (iy < 0 || iy >= h || ox_hi < ox_lo) {
          std::memset(drow, 0, static_cast<size_t>(wo) * sizeof(float));
          continue;
        }
        for (int ox = 0; ox < ox_lo; ++ox) drow[ox] = 0.0f;
        const float* srow = xp + static_cast<int64_t>(iy) * w;
        if (stride == 1) {
          std::memcpy(drow + ox_lo, srow + (ox_lo - pad + kx),
                      static_cast<size_t>(ox_hi - ox_lo + 1) * sizeof(float));
        } else {
          for (int ox = ox_lo; ox <= ox_hi; ++ox) {
            drow[ox] = srow[ox * stride - pad + kx];
          }
        }
        for (int ox = ox_hi + 1; ox < wo; ++ox) drow[ox] = 0.0f;
      }
    }
  });
}

void col2im_add(const float* col, int c, int h, int w, int kh, int kw,
                int stride, int pad, int ho, int wo, float* x) {
  const int64_t row_elems = static_cast<int64_t>(ho) * wo;
  const int64_t per_channel = static_cast<int64_t>(kh) * kw * row_elems;
  const int64_t grain =
      std::max<int64_t>(1, (1 << 14) / std::max<int64_t>(1, per_channel));
  // Channel-parallel: channel ci's col rows scatter only into x plane ci,
  // so ranges write disjoint memory and the result is deterministic.
  parallel_for_ranges(c, grain, [&](int64_t c0, int64_t c1) {
    for (int64_t ci = c0; ci < c1; ++ci) {
      float* xp = x + ci * h * w;
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          const int64_t r = (ci * kh + ky) * kw + kx;
          const float* src = col + r * row_elems;
          const int lo_num = pad - kx;
          const int ox_lo = lo_num <= 0 ? 0 : (lo_num + stride - 1) / stride;
          const int hi_num = w - 1 + pad - kx;
          const int ox_hi = hi_num < 0 ? -1 : std::min(wo - 1, hi_num / stride);
          if (ox_hi < ox_lo) continue;
          for (int oy = 0; oy < ho; ++oy) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            const float* srow = src + static_cast<int64_t>(oy) * wo;
            float* xrow = xp + static_cast<int64_t>(iy) * w;
            for (int ox = ox_lo; ox <= ox_hi; ++ox) {
              xrow[ox * stride - pad + kx] += srow[ox];
            }
          }
        }
      }
    }
  });
}

}  // namespace dcdiff::nn
