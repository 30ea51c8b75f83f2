#include "nn/plan/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "nn/gemm.h"
#include "nn/threadpool.h"

namespace dcdiff::nn::plan {
namespace {

// Same elementwise dispatch grain as nn/ops.cpp.
constexpr int64_t kEwGrain = 1 << 13;
// Patch floats k_conv2d packs before multiplying them (1 MiB): small enough
// to stay in a core's L2 from the packing pass to the GEMM that reads it.
constexpr int64_t kConvBlockFloats = 1 << 18;

// Eight-lane vectors (GCC/Clang vector extensions, the idiom of the GEMM
// micro-kernel): the compiler maps them onto whatever SIMD width the
// target has.
typedef float V8f __attribute__((vector_size(8 * sizeof(float))));
typedef double V8d __attribute__((vector_size(8 * sizeof(double))));
typedef int64_t V8i __attribute__((vector_size(8 * sizeof(int64_t))));

constexpr double kLog2e = 0x1.71547652b82fep0;
constexpr double kShift = 0x1.8p52;

// x = k ln2 + r with |r| <= ln2/2 for |x| <= 2^51: k is rounded by the
// 1.5 * 2^52 shifter, whose low mantissa bits then hold it, and ln2 is
// split so k * hi is exact. Returns 2^k, written into the exponent field.
inline V8d reduce_ln2(V8d x, V8d& r) {
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  const V8d shifted = x * kLog2e + kShift;
  const V8d k = shifted - kShift;
  r = (x - k * kLn2Hi) - k * kLn2Lo;
  // Bits of `shifted` end in 2^51 + k; adding the bias and shifting by 52
  // leaves exactly (k + 1023) << 52, the double 2^k.
  return (V8d)(((V8i)shifted + 1023) << 52);
}

// q(r) with expm1(r) = q(r) * r, from the degree-11 Taylor polynomial of
// exp (truncation below 1e-14 relative for |r| <= ln2/2, far under the
// final float rounding).
inline V8d expm1_over_r(V8d r) {
  V8d p = V8d{} + 1.0 / 39916800;  // 1/11!
  p = p * r + 1.0 / 3628800;
  p = p * r + 1.0 / 362880;
  p = p * r + 1.0 / 40320;
  p = p * r + 1.0 / 5040;
  p = p * r + 1.0 / 720;
  p = p * r + 1.0 / 120;
  p = p * r + 1.0 / 24;
  p = p * r + 1.0 / 6;
  p = p * r + 0.5;
  return p * r + 1.0;
}

// exp of eight floats, evaluated in double and rounded to float once.
//
// x is clamped to [-110, 100] — past either end the float result is 0 or
// +inf anyway, and NaN fails both comparisons so it passes through and
// stays NaN — then exp(x) = 2^k (q(r) r + 1). The one float rounding is
// the conversion, so results are correctly rounded except within ~1e-14
// of a tie, and subnormals come out correctly rounded too.
inline V8f vexp8(V8f xf) {
  const V8d lo = V8d{} - 110.0, hi = V8d{} + 100.0;
  V8d x = __builtin_convertvector(xf, V8d);
  x = x < lo ? lo : x;
  x = x > hi ? hi : x;
  V8d r;
  const V8d scale = reduce_ln2(x, r);
  return __builtin_convertvector((expm1_over_r(r) * r + 1.0) * scale, V8f);
}

// tanh of eight floats, evaluated in double and rounded to float once:
// tanh(|x|) = e / (e + 2) with e = expm1(2|x|) = 2^k q(r) r + (2^k - 1),
// then x's sign bit copied onto it. expm1 keeps small |x| accurate (k = 0
// there, so e = q(r) r exactly as reduced), 2|x| is clamped to 40
// (tanh(20) is 1 in double, and inf lands there too), NaN passes through,
// and -0 stays -0.
inline V8f vtanh8(V8f xf) {
  const V8d x = __builtin_convertvector(xf, V8d);
  const V8i sign = (V8i)x & (V8i{} + INT64_MIN);
  V8d t = (V8d)((V8i)x ^ sign) * 2.0;
  t = t > 40.0 ? V8d{} + 40.0 : t;
  V8d r;
  const V8d scale = reduce_ln2(t, r);
  const V8d e = scale * (expm1_over_r(r) * r) + (scale - 1.0);
  const V8d th = e / (e + 2.0);
  return __builtin_convertvector((V8d)((V8i)th | sign), V8f);
}

// out[i] = f(a[i]) eight lanes at a time; the tail runs zero-padded through
// the same f, so no element ever takes a different code path. `a` may
// equal `out`.
template <class F>
void map8(const float* a, float* out, size_t n, F f) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    V8f v;
    __builtin_memcpy(&v, a + i, sizeof(v));
    v = f(v);
    __builtin_memcpy(out + i, &v, sizeof(v));
  }
  if (i < n) {
    V8f v{};
    __builtin_memcpy(&v, a + i, (n - i) * sizeof(float));
    v = f(v);
    __builtin_memcpy(out + i, &v, (n - i) * sizeof(float));
  }
}

// The eager expressions x / (1 + exp(-x)) and 1 / (1 + exp(-x)), in float,
// with vexp8 in place of std::exp.
inline V8f silu8(V8f x) { return x / (1.0f + vexp8(-x)); }
inline V8f sigmoid8(V8f x) { return 1.0f / (1.0f + vexp8(-x)); }

}  // namespace

void apply_post_inplace(PostOp post, float* p, size_t n) {
  switch (post) {
    case PostOp::kNone:
      return;
    case PostOp::kSiLU:
      map8(p, p, n, silu8);
      return;
    case PostOp::kRelu:
      for (size_t i = 0; i < n; ++i) p[i] = p[i] > 0 ? p[i] : 0.0f;
      return;
    case PostOp::kTanh:
      map8(p, p, n, vtanh8);
      return;
    case PostOp::kSigmoid:
      map8(p, p, n, sigmoid8);
      return;
  }
}

void k_exp(const float* a, float* out, size_t n) { map8(a, out, n, vexp8); }

void k_silu(const float* a, float* out, size_t n) { map8(a, out, n, silu8); }

void k_relu(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] > 0 ? a[i] : 0.0f;
}

void k_tanh(const float* a, float* out, size_t n) { map8(a, out, n, vtanh8); }

void k_sigmoid(const float* a, float* out, size_t n) {
  map8(a, out, n, sigmoid8);
}

void k_clamp(const float* a, float* out, size_t n, float lo, float hi) {
  for (size_t i = 0; i < n; ++i) out[i] = std::clamp(a[i], lo, hi);
}

void k_add(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void k_sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void k_scale(const float* a, float* out, size_t n, float s) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void k_copy(const float* a, float* out, size_t n) { std::copy_n(a, n, out); }

void k_mul_per_sample(const float* x, const float* s, float* out, size_t n,
                      size_t per) {
  // Per-sample outer loop: one scale broadcast per row instead of an integer
  // division per element.
  for (size_t i = 0; i < n; i += per) {
    const float si = s[i / per];
    for (size_t j = 0; j < per; ++j) out[i + j] = x[i + j] * si;
  }
}

void k_add_sample_channel_bias(const float* x, const float* b, float* out,
                               size_t n, size_t inner) {
  for (size_t i = 0; i < n; i += inner) {
    const float bi = b[i / inner];
    for (size_t j = 0; j < inner; ++j) out[i + j] = x[i + j] + bi;
  }
}

void k_concat_channels(const float* a, const float* b, float* out, int n,
                       size_t sa, size_t sb) {
  for (int i = 0; i < n; ++i) {
    std::copy_n(a + i * sa, sa, out + i * (sa + sb));
    std::copy_n(b + i * sb, sb, out + i * (sa + sb) + sa);
  }
}

void k_slice_channels(const float* a, float* out, int n, size_t stride_in,
                      size_t stride_out, size_t skip) {
  for (int i = 0; i < n; ++i) {
    std::copy_n(a + i * stride_in + skip, stride_out, out + i * stride_out);
  }
}

void k_conv2d(const float* x, int n, int c, int h, int w, const PackedA& pw,
              int f, int kh, int kw, int stride, int pad, int ho, int wo,
              const float* bias, float* col, float* out) {
  const int64_t npix = static_cast<int64_t>(ho) * wo;
  const bool fast_1x1 = kh == 1 && kw == 1 && stride == 1 && pad == 0;
  if (!fast_1x1 && pw.blocked(npix)) {
    // Patches go straight into B-panel layout and the bias rides the last
    // K-block's write-out: the same products and sums as im2col + run +
    // the bias pass below, without the two intermediate copies. Columns are
    // packed and multiplied a block at a time, the block sized to stay
    // cache-resident between the two (the whole plane for the UNet's
    // shapes; the 64x64 decoder convs take several).
    const int64_t kdim = static_cast<int64_t>(c) * kh * kw;
    // Whole 16-column panels: each block starts on a panel boundary.
    const int64_t block =
        std::max<int64_t>(16, kConvBlockFloats / kdim / 16 * 16);
    for (int ni = 0; ni < n; ++ni) {
      const float* xi = x + static_cast<size_t>(ni) * c * h * w;
      float* oi = out + static_cast<size_t>(ni) * f * npix;
      for (int64_t j0 = 0; j0 < npix; j0 += block) {
        const int64_t j1 = std::min(npix, j0 + block);
        im2col_panels(xi, c, h, w, kh, kw, stride, pad, ho, wo, j0, j1, col);
        pw.run_panels(j1 - j0, col, bias, oi + j0, npix);
      }
    }
    return;
  }
  for (int ni = 0; ni < n; ++ni) {
    const float* xplane = x + static_cast<size_t>(ni) * c * h * w;
    const float* patches = xplane;
    if (!fast_1x1) {
      im2col(xplane, c, h, w, kh, kw, stride, pad, ho, wo, col);
      patches = col;
    }
    // out plane (f x npix) = W (f x kdim) * patches (kdim x npix).
    pw.run(npix, patches, npix, 0.0f,
           out + static_cast<size_t>(ni) * f * npix, npix);
  }
  if (bias) {
    parallel_for_ranges(
        static_cast<int64_t>(n) * f, std::max<int64_t>(1, kEwGrain / npix),
        [&](int64_t t0, int64_t t1) {
          for (int64_t t = t0; t < t1; ++t) {
            const float b = bias[t % f];
            float* oplane = out + t * npix;
            for (int64_t i = 0; i < npix; ++i) oplane[i] += b;
          }
        });
  }
}

void k_linear(const float* x, int n, int k, int m, const float* w,
              const float* bias, float* out) {
  gemm(/*trans_a=*/false, /*trans_b=*/true, n, m, k, x, k, w, k, 0.0f, out,
       m);
  if (bias) {
    parallel_for_ranges(
        n, std::max<int64_t>(1, kEwGrain / std::max(1, m)),
        [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            float* orow = out + i * m;
            for (int j = 0; j < m; ++j) orow[j] += bias[j];
          }
        });
  }
}

// Interleaved double-precision reduction: four independent accumulator
// chains hide the FP-add latency a single serial chain pays (the eager
// group_norm is chain-bound and ~3x slower on the same data). The sum order
// therefore differs from eager by a reassociation of double-precision
// partials — a ~1e-16 relative perturbation; planned-vs-eager stays far
// inside the 1e-5 test tolerance, but is no longer bit-identical.
double lat_hiding_sum(const float* p, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += p[i];
    a1 += p[i + 1];
    a2 += p[i + 2];
    a3 += p[i + 3];
  }
  for (; i < n; ++i) a0 += p[i];
  return (a0 + a1) + (a2 + a3);
}

double lat_hiding_sumsq(const float* p, size_t n, double mu) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = p[i] - mu, d1 = p[i + 1] - mu;
    const double d2 = p[i + 2] - mu, d3 = p[i + 3] - mu;
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = p[i] - mu;
    a0 += d * d;
  }
  return (a0 + a1) + (a2 + a3);
}

void k_group_norm(const float* x, const float* gamma, const float* beta,
                  float* out, int n, int c, int groups, size_t inner,
                  float eps) {
  const int cpg = c / groups;
  const size_t gsize = static_cast<size_t>(cpg) * inner;
  for (int ni = 0; ni < n; ++ni) {
    for (int gi = 0; gi < groups; ++gi) {
      const size_t base =
          (static_cast<size_t>(ni) * c + static_cast<size_t>(gi) * cpg) *
          inner;
      const double mu = lat_hiding_sum(x + base, gsize) /
                        static_cast<double>(gsize);
      const double var = lat_hiding_sumsq(x + base, gsize, mu) /
                         static_cast<double>(gsize);
      const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
      const float muf = static_cast<float>(mu);
      // Per-channel affine, hoisted out of the element loop (no per-element
      // channel division; the scale/shift fold into one FMA-friendly form).
      for (int cc = 0; cc < cpg; ++cc) {
        const size_t ch = static_cast<size_t>(gi) * cpg +
                          static_cast<size_t>(cc);
        const float ga = gamma[ch];
        const float b = beta[ch];
        const float* xp = x + base + static_cast<size_t>(cc) * inner;
        float* op = out + base + static_cast<size_t>(cc) * inner;
        for (size_t i = 0; i < inner; ++i) {
          // Element arithmetic unchanged from eager: (x - mu) * is, then
          // gamma * xh + beta — only the mu/var reductions reassociate.
          op[i] = ga * ((xp[i] - muf) * is) + b;
        }
      }
    }
  }
}

void k_avg_pool2d(const float* x, float* out, int n, int c, int h, int w,
                  int k) {
  const int ho = h / k, wo = w / k;
  const float inv = 1.0f / static_cast<float>(k * k);
  for (int t = 0; t < n * c; ++t) {
    const float* xp = x + static_cast<size_t>(t) * h * w;
    float* op = out + static_cast<size_t>(t) * ho * wo;
    for (int oy = 0; oy < ho; ++oy) {
      for (int ox = 0; ox < wo; ++ox) {
        float acc = 0.0f;
        for (int dy = 0; dy < k; ++dy) {
          for (int dx = 0; dx < k; ++dx) {
            acc += xp[(oy * k + dy) * w + ox * k + dx];
          }
        }
        op[oy * wo + ox] = acc * inv;
      }
    }
  }
}

void k_global_avg_pool(const float* x, float* out, int n, int c, int h,
                       int w) {
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int t = 0; t < n * c; ++t) {
    const float* xp = x + static_cast<size_t>(t) * h * w;
    float acc = 0.0f;
    for (int i = 0; i < h * w; ++i) acc += xp[i];
    out[static_cast<size_t>(t)] = acc * inv;
  }
}

void k_upsample2x(const float* x, float* out, int n, int c, int h, int w) {
  const int wo = w * 2;
  for (int t = 0; t < n * c; ++t) {
    const float* xp = x + static_cast<size_t>(t) * h * w;
    float* op = out + static_cast<size_t>(t) * h * 2 * wo;
    for (int y = 0; y < h; ++y) {
      const float* srow = xp + static_cast<size_t>(y) * w;
      float* drow = op + static_cast<size_t>(2 * y) * wo;
      for (int ox = 0; ox < w; ++ox) {
        drow[2 * ox] = srow[ox];
        drow[2 * ox + 1] = srow[ox];
      }
      std::copy_n(drow, wo, drow + wo);  // second output row = first
    }
  }
}

void k_repeat_batch(const float* x, float* out, int n, int k, size_t per) {
  float* dst = out;
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < k; ++r) {
      std::copy(x + static_cast<size_t>(i) * per,
                x + static_cast<size_t>(i + 1) * per, dst);
      dst += per;
    }
  }
}

void k_ensemble_mean(const float* x, float* out, int n, int e, size_t per) {
  const float inv = 1.0f / static_cast<float>(e);
  for (int i = 0; i < n; ++i) {
    const float* rows = x + static_cast<size_t>(i) * e * per;
    float* orow = out + static_cast<size_t>(i) * per;
    for (size_t j = 0; j < per; ++j) {
      // Left-to-right accumulation, matching the eager add() fold.
      float acc = rows[j];
      for (int m = 1; m < e; ++m) acc = acc + rows[static_cast<size_t>(m) * per + j];
      orow[j] = acc * inv;
    }
  }
}

}  // namespace dcdiff::nn::plan
