// Tests for the compiled inference-plan subsystem (nn/plan/ +
// core/recon_plan.h) and its wiring into DCDiffModel::reconstruct*.
//
// The load-bearing properties:
//   * Planned execution is numerically identical to the eager tape path for
//     both reconstruct() and reconstruct_batch() (the plan's kernels clone
//     the eager loop bodies, so the target is bit-identity; the assert
//     tolerance is 1e-5).
//   * Plans compile once per shape signature and are reused (cache hits, no
//     rebuilds), whatever the step count: the compiled unit is one DDIM
//     step.
//   * The one DDIM loop records core.ddim.* for planned requests too.
//   * set_plan_enabled(0) is a real eager oracle: the plan layer is never
//     consulted.
//   * Steady state allocates nothing: after warmup, repeated planned
//     forwards (anytime calls with partials included) grow neither the plan
//     arena pool nor the thread workspace.
//   * Plan build failures surface as a typed Status, never an exception.
//   * Replica-sharded serving works with per-replica plans (this suite runs
//     under the `concurrency` CTest label; a TSan build exercises it).
//   * The vector kernels keep their contracts: the exp under SiLU/sigmoid
//     and the tanh are within 1 ulp of std::exp / std::tanh and
//     position-independent, and the panel-packed conv is bit-exact against
//     im2col + gemm + bias, inline and on a 3-thread pool.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "jpeg/codec.h"
#include "nn/gemm.h"
#include "nn/plan/builder.h"
#include "nn/plan/cache.h"
#include "nn/plan/kernels.h"
#include "nn/threadpool.h"
#include "nn/workspace.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace dcdiff {
namespace {

core::DCDiffConfig tiny_config() {
  core::DCDiffConfig cfg;
  cfg.image_size = 32;
  cfg.stage1_steps = 6;
  cfg.stage2_steps = 6;
  cfg.fmpp_steps = 2;
  cfg.batch = 1;
  cfg.ddim_steps = 4;
  cfg.diffusion_T = 50;
  cfg.ae.base = 8;
  cfg.ae.ac_channels = 8;
  cfg.unet.base = 8;
  cfg.unet.temb_dim = 16;
  cfg.ae_tag = "test_plan_ae";
  cfg.tag = "test_plan";
  return cfg;
}

class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ =
        std::filesystem::temp_directory_path() / "dcdiff_plan_test_cache";
    std::filesystem::create_directories(cache_dir_);
    setenv("DCDIFF_CACHE_DIR", cache_dir_.c_str(), 1);
    model_ = core::ModelPool::instance().get(tiny_config());
  }
  static void TearDownTestSuite() {
    model_.reset();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }
  void TearDown() override { core::set_plan_enabled(-1); }

  static std::vector<uint8_t> bitstream(int idx, int size = 64) {
    const Image img = data::dataset_image(data::DatasetId::kKodak, idx, size);
    return core::sender_encode(img).bytes;
  }

  static double max_abs_diff(const Image& a, const Image& b) {
    if (a.width() != b.width() || a.height() != b.height() ||
        a.channels() != b.channels()) {
      return 1e9;
    }
    double m = 0;
    for (int c = 0; c < a.channels(); ++c) {
      const auto& pa = a.plane(c);
      const auto& pb = b.plane(c);
      for (size_t i = 0; i < pa.size(); ++i) {
        m = std::max(m, static_cast<double>(std::fabs(pa[i] - pb[i])));
      }
    }
    return m;
  }

  static std::filesystem::path cache_dir_;
  static std::shared_ptr<const core::DCDiffModel> model_;
};

std::filesystem::path PlanTest::cache_dir_;
std::shared_ptr<const core::DCDiffModel> PlanTest::model_;

// ---- numerical equivalence ----

TEST_F(PlanTest, PlannedReconstructMatchesEager) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));

  core::set_plan_enabled(0);
  const Image eager = model_->reconstruct(coeffs);

  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  core::set_plan_enabled(1);
  const Image planned = model_->reconstruct(coeffs);
  // The planned path must actually have served this (no silent fallback).
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);

  EXPECT_LE(max_abs_diff(eager, planned), 1e-5);

  // A second planned call reuses the compiled plan and stays identical.
  const Image planned2 = model_->reconstruct(coeffs);
  EXPECT_EQ(max_abs_diff(planned, planned2), 0.0);
}

TEST_F(PlanTest, PlannedBatchMatchesEagerAcrossMixedSizes) {
  // Two padded sizes -> two plan signatures inside one batch call.
  std::vector<jpeg::CoeffImage> coeffs;
  coeffs.push_back(jpeg::decode_jfif(bitstream(0, 64)));
  coeffs.push_back(jpeg::decode_jfif(bitstream(1, 48)));
  coeffs.push_back(jpeg::decode_jfif(bitstream(2, 64)));

  core::set_plan_enabled(0);
  const std::vector<Image> eager = model_->reconstruct_batch(coeffs);

  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  core::set_plan_enabled(1);
  const std::vector<Image> planned = model_->reconstruct_batch(coeffs);
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);

  ASSERT_EQ(planned.size(), eager.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    EXPECT_LE(max_abs_diff(eager[i], planned[i]), 1e-5) << "image " << i;
  }
}

// ---- compile-once semantics ----

TEST_F(PlanTest, PlanCompiledOncePerSignature) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  core::set_plan_enabled(1);
  (void)model_->reconstruct(coeffs);  // compiles on first use (or earlier)

  const uint64_t builds_before = obs::counter("plan.builds").value();
  const uint64_t hits_before = obs::counter("plan.cache_hits").value();
  (void)model_->reconstruct(coeffs);
  (void)model_->reconstruct(coeffs);
  EXPECT_EQ(obs::counter("plan.builds").value(), builds_before);
  EXPECT_GE(obs::counter("plan.cache_hits").value(), hits_before + 2);

  // The step count is not part of the signature: after the warm 4-step
  // call, shorter chains (the governor's shed counts) reuse the same plans.
  ASSERT_EQ(model_->config().ddim_steps, 4);
  for (int steps = 1; steps <= 3; ++steps) {
    core::ReconstructOptions opts;
    opts.ddim_steps = steps;
    (void)model_->reconstruct(coeffs, opts);
    EXPECT_EQ(obs::counter("plan.builds").value(), builds_before)
        << steps << " steps";
  }
}

TEST_F(PlanTest, PlannedBatchRecordsEveryDdimStep) {
  const jpeg::CoeffImage c0 = jpeg::decode_jfif(bitstream(0));
  const jpeg::CoeffImage c1 = jpeg::decode_jfif(bitstream(1));
  const std::vector<const jpeg::CoeffImage*> batch = {&c0, &c1};
  core::set_plan_enabled(1);
  core::ReconstructOptions opts;
  opts.ddim_steps = 3;
  (void)model_->reconstruct_batch(batch, opts);  // warm: compile

  obs::Counter& steps = obs::counter("core.ddim.steps");
  obs::Histogram& step_seconds = obs::histogram("core.ddim.step_seconds");
  obs::Histogram& rows = obs::histogram("core.ddim.batch_rows");
  const uint64_t steps_before = steps.value();
  const uint64_t timed_before = step_seconds.count();
  const uint64_t rows_before = rows.count();
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  (void)model_->reconstruct_batch(batch, opts);
  // One size group: one sampling pass of 3 steps, served planned.
  EXPECT_EQ(steps.value(), steps_before + 3);
  EXPECT_EQ(step_seconds.count(), timed_before + 3);
  EXPECT_EQ(rows.count(), rows_before + 1);
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
}

TEST_F(PlanTest, DisabledPlanPathIsNeverConsulted) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  core::set_plan_enabled(0);
  EXPECT_FALSE(core::plan_enabled());
  const uint64_t builds_before = obs::counter("plan.builds").value();
  const uint64_t hits_before = obs::counter("plan.cache_hits").value();
  const Image img = model_->reconstruct(coeffs);
  EXPECT_GT(img.width(), 0);
  EXPECT_EQ(obs::counter("plan.builds").value(), builds_before);
  EXPECT_EQ(obs::counter("plan.cache_hits").value(), hits_before);
  core::set_plan_enabled(-1);  // back to the default: planned
  EXPECT_TRUE(core::plan_enabled());
}

// ---- steady-state allocation behaviour ----

TEST_F(PlanTest, SteadyStatePlannedForwardAllocatesNothing) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  core::set_plan_enabled(1);
  // An anytime call that decodes a partial after every step but the last.
  const std::vector<core::AnytimeItem> items = {{&coeffs, 0, 0}};
  core::AnytimeControl partials;
  int emitted = 0;
  partials.on_step = [](int done, int total) {
    return done < total ? core::AnytimeControl::Action::kEmitPartial
                        : core::AnytimeControl::Action::kContinue;
  };
  partials.on_partial = [&](int, Image, int, double) { ++emitted; };
  // Warm up: plan compile, arena-pool seeding, workspace growth.
  (void)model_->reconstruct(coeffs);
  (void)model_->reconstruct(coeffs);
  (void)model_->reconstruct_batch_anytime(items, {}, partials);

  const uint64_t arena_allocs_before =
      obs::counter("plan.arena_allocs").value();
  const size_t ws_blocks_before = nn::Workspace::total_blocks_allocated();
  emitted = 0;
  for (int i = 0; i < 3; ++i) {
    (void)model_->reconstruct(coeffs);
    EXPECT_EQ(obs::gauge("plan.allocs_per_forward").value(), 0.0);
    (void)model_->reconstruct_batch_anytime(items, {}, partials);
    EXPECT_EQ(obs::gauge("plan.allocs_per_forward").value(), 0.0);
  }
  EXPECT_EQ(emitted, 3 * (model_->config().ddim_steps - 1));
  EXPECT_EQ(obs::counter("plan.arena_allocs").value(), arena_allocs_before);
  EXPECT_EQ(nn::Workspace::total_blocks_allocated(), ws_blocks_before);
  EXPECT_GT(obs::gauge("plan.arena_bytes").value(), 0.0);
}

// ---- vector kernels: the exp under SiLU/sigmoid, the panel-packed conv ----

uint32_t float_bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

float bits_float(uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

TEST(PlanKernelTest, VectorExpWithinOneUlpOfStdExp) {
  // Every 257th float of [-110, 90] (both ends included): exp is positive,
  // so the ulp distance is the distance between bit patterns.
  std::vector<float> xs;
  for (uint32_t b = 0; b <= float_bits(110.0f); b += 257) {
    xs.push_back(-bits_float(b));
  }
  for (uint32_t b = 0; b <= float_bits(90.0f); b += 257) {
    xs.push_back(bits_float(b));
  }
  xs.push_back(-110.0f);
  xs.push_back(90.0f);
  std::vector<float> got(xs.size());
  nn::plan::k_exp(xs.data(), got.data(), xs.size());
  size_t off_by_one = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint32_t want = float_bits(std::exp(xs[i]));
    const uint32_t have = float_bits(got[i]);
    const uint32_t ulps = want > have ? want - have : have - want;
    ASSERT_LE(ulps, 1u) << "x = " << xs[i] << " got " << got[i]
                        << " want " << std::exp(xs[i]);
    off_by_one += ulps;
  }
  // Rounded once from double, the result is almost always the correctly
  // rounded one; std::exp is too, so the two rarely differ at all.
  EXPECT_LT(off_by_one, xs.size() / 100);
}

TEST(PlanKernelTest, VectorExpSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> xs = {nan,    -inf,  inf,    89.0f,  100.0f,
                                 1e30f,  -104.0f, -150.0f, -1e30f, 0.0f,
                                 -0.0f};
  std::vector<float> got(xs.size());
  nn::plan::k_exp(xs.data(), got.data(), xs.size());
  EXPECT_TRUE(std::isnan(got[0]));
  EXPECT_EQ(float_bits(got[1]), float_bits(0.0f));
  EXPECT_EQ(got[2], inf);
  EXPECT_EQ(got[3], inf);
  EXPECT_EQ(got[4], inf);
  EXPECT_EQ(got[5], inf);
  EXPECT_EQ(float_bits(got[6]), float_bits(0.0f));
  EXPECT_EQ(float_bits(got[7]), float_bits(0.0f));
  EXPECT_EQ(float_bits(got[8]), float_bits(0.0f));
  EXPECT_EQ(got[9], 1.0f);
  EXPECT_EQ(got[10], 1.0f);

  // Deep underflow: exp(x) below FLT_MIN is 0 or the correctly rounded
  // subnormal (double exp rounded to float), never flushed early.
  std::vector<float> deep;
  for (float x = -104.5f; x < -87.0f; x += 0.0137f) deep.push_back(x);
  std::vector<float> out(deep.size());
  nn::plan::k_exp(deep.data(), out.data(), deep.size());
  size_t subnormals = 0;
  for (size_t i = 0; i < deep.size(); ++i) {
    const float want = static_cast<float>(std::exp(static_cast<double>(deep[i])));
    EXPECT_EQ(float_bits(out[i]), float_bits(want)) << "x = " << deep[i];
    if (std::fpclassify(out[i]) == FP_SUBNORMAL) ++subnormals;
  }
  EXPECT_GT(subnormals, deep.size() / 2);
}

TEST(PlanKernelTest, SiluGivesSameBitsAtEveryPosition) {
  // A value's SiLU (and sigmoid) must not depend on where it sits: full
  // vector lanes and the padded tail run the same code.
  const std::vector<float> values = {-91.25f, -17.5f, -3.0f,  -0.7f,
                                     0.0f,    1e-3f,  0.5f,   4.25f,
                                     30.0f,   88.0f};
  for (float v : values) {
    float want_silu = 0, want_sig = 0;
    nn::plan::k_silu(&v, &want_silu, 1);
    nn::plan::k_sigmoid(&v, &want_sig, 1);
    // Close to the std::exp form the eager op computes.
    EXPECT_NEAR(want_silu, v / (1.0f + std::exp(-v)),
                1e-6f * (1.0f + std::fabs(v)));
    for (size_t n = 1; n <= 40; ++n) {
      for (size_t pos = 0; pos < n; ++pos) {
        std::vector<float> in(n);
        for (size_t i = 0; i < n; ++i) in[i] = 0.37f * static_cast<float>(i) - 5.0f;
        in[pos] = v;
        std::vector<float> silu(n), sig(n);
        nn::plan::k_silu(in.data(), silu.data(), n);
        nn::plan::k_sigmoid(in.data(), sig.data(), n);
        nn::plan::apply_post_inplace(nn::plan::PostOp::kSiLU, in.data(), n);
        ASSERT_EQ(float_bits(silu[pos]), float_bits(want_silu))
            << "v " << v << " n " << n << " pos " << pos;
        ASSERT_EQ(float_bits(in[pos]), float_bits(want_silu))
            << "epilogue, v " << v << " n " << n << " pos " << pos;
        ASSERT_EQ(float_bits(sig[pos]), float_bits(want_sig))
            << "sigmoid, v " << v << " n " << n << " pos " << pos;
      }
    }
  }
}

TEST(PlanKernelTest, VectorTanhWithinOneUlpOfStdTanh) {
  // Every 257th float of [-20, 20] (both ends included); tanh keeps the
  // sign, so the ulp distance is the distance between bit patterns. The
  // vector tanh is held to 1 ulp of the double-precision std::tanh rounded
  // to float, and to 2 ulps of the float std::tanh the eager op calls,
  // whose own error bound is 2 ulps (glibc's tanhf, e.g. at x = 0.0305258).
  std::vector<float> xs;
  for (uint32_t b = 0; b <= float_bits(20.0f); b += 257) {
    xs.push_back(bits_float(b));
    xs.push_back(-bits_float(b));
  }
  xs.push_back(20.0f);
  xs.push_back(-20.0f);
  std::vector<float> got(xs.size());
  nn::plan::k_tanh(xs.data(), got.data(), xs.size());
  auto ulps = [](float a, float b) {
    const uint32_t ab = float_bits(a), bb = float_bits(b);
    return ab > bb ? ab - bb : bb - ab;
  };
  size_t off_by_one = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const float want =
        static_cast<float>(std::tanh(static_cast<double>(xs[i])));
    ASSERT_LE(ulps(got[i], want), 1u)
        << "x = " << xs[i] << " got " << got[i] << " want " << want;
    ASSERT_LE(ulps(got[i], std::tanh(xs[i])), 2u)
        << "x = " << xs[i] << " got " << got[i] << " std::tanh "
        << std::tanh(xs[i]);
    off_by_one += ulps(got[i], want);
  }
  // Rounded once from double, the result is almost always the correctly
  // rounded one.
  EXPECT_LT(off_by_one, xs.size() / 100);
}

TEST(PlanKernelTest, VectorTanhSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min() * 1000.0f;
  const std::vector<float> xs = {nan,   inf,    -inf,  0.0f,   -0.0f, 9.5f,
                                 -9.5f, 1e30f, -1e30f, 1e-20f, tiny,  -tiny};
  std::vector<float> got(xs.size());
  nn::plan::k_tanh(xs.data(), got.data(), xs.size());
  EXPECT_TRUE(std::isnan(got[0]));
  EXPECT_EQ(got[1], 1.0f);
  EXPECT_EQ(got[2], -1.0f);
  EXPECT_EQ(float_bits(got[3]), float_bits(0.0f));
  EXPECT_EQ(float_bits(got[4]), float_bits(-0.0f));
  // Saturation: past ~9.01 tanh rounds to +-1 in float.
  EXPECT_EQ(got[5], 1.0f);
  EXPECT_EQ(got[6], -1.0f);
  EXPECT_EQ(got[7], 1.0f);
  EXPECT_EQ(got[8], -1.0f);
  // Near zero tanh(x) rounds to x, subnormals included.
  for (size_t i = 9; i < xs.size(); ++i) {
    EXPECT_EQ(float_bits(got[i]), float_bits(xs[i])) << "x = " << xs[i];
  }
}

TEST(PlanKernelTest, TanhGivesSameBitsAtEveryPosition) {
  const std::vector<float> values = {-12.0f, -3.0f, -0.7f, -1e-5f, 0.0f,
                                     1e-3f,  0.5f,  2.25f, 8.0f,   30.0f};
  for (float v : values) {
    float want = 0;
    nn::plan::k_tanh(&v, &want, 1);
    for (size_t n = 1; n <= 40; ++n) {
      for (size_t pos = 0; pos < n; ++pos) {
        std::vector<float> in(n);
        for (size_t i = 0; i < n; ++i) in[i] = 0.37f * static_cast<float>(i) - 5.0f;
        in[pos] = v;
        std::vector<float> out(n);
        nn::plan::k_tanh(in.data(), out.data(), n);
        nn::plan::apply_post_inplace(nn::plan::PostOp::kTanh, in.data(), n);
        ASSERT_EQ(float_bits(out[pos]), float_bits(want))
            << "v " << v << " n " << n << " pos " << pos;
        ASSERT_EQ(float_bits(in[pos]), float_bits(want))
            << "epilogue, v " << v << " n " << n << " pos " << pos;
      }
    }
  }
}

struct ConvCase {
  int n, c, f, hw, k, stride, pad;
};

// k_conv2d against the unfused reference: im2col, gemm(), then a bias pass.
// Returns whether the case ran the panel-packed path.
bool expect_conv_bit_exact(const ConvCase& cc) {
  const int ho = (cc.hw + 2 * cc.pad - cc.k) / cc.stride + 1;
  const int64_t kdim = static_cast<int64_t>(cc.c) * cc.k * cc.k;
  const int64_t npix = static_cast<int64_t>(ho) * ho;
  std::vector<float> x(static_cast<size_t>(cc.n) * cc.c * cc.hw * cc.hw);
  std::vector<float> w(static_cast<size_t>(cc.f * kdim));
  std::vector<float> bias(static_cast<size_t>(cc.f));
  uint32_t state = 12345u + static_cast<uint32_t>(kdim * 31 + npix);
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<float>(state >> 8) / 16777216.0f - 0.5f;
  };
  for (float& v : x) v = next();
  for (float& v : w) v = next();
  for (float& v : bias) v = next();

  std::vector<float> ref(static_cast<size_t>(cc.n * cc.f * npix));
  std::vector<float> col(static_cast<size_t>(kdim * npix));
  for (int ni = 0; ni < cc.n; ++ni) {
    const float* xp = x.data() + static_cast<size_t>(ni) * cc.c * cc.hw * cc.hw;
    const bool direct = cc.k == 1 && cc.stride == 1 && cc.pad == 0;
    if (!direct) {
      nn::im2col(xp, cc.c, cc.hw, cc.hw, cc.k, cc.k, cc.stride, cc.pad, ho, ho,
                 col.data());
    }
    float* rp = ref.data() + static_cast<size_t>(ni) * cc.f * npix;
    nn::gemm(false, false, cc.f, npix, kdim, w.data(), kdim,
             direct ? xp : col.data(), npix, 0.0f, rp, npix);
    for (int fi = 0; fi < cc.f; ++fi) {
      for (int64_t i = 0; i < npix; ++i) rp[fi * npix + i] += bias[fi];
    }
  }

  const nn::PackedA packed(false, cc.f, kdim, w.data(), kdim);
  std::vector<float> scratch(static_cast<size_t>(nn::panel_floats(kdim, npix)));
  std::vector<float> out(ref.size(), -7.0f);
  nn::plan::k_conv2d(x.data(), cc.n, cc.c, cc.hw, cc.hw, packed, cc.f, cc.k,
                     cc.k, cc.stride, cc.pad, ho, ho, bias.data(),
                     scratch.data(), out.data());
  size_t mismatches = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    mismatches += float_bits(out[i]) != float_bits(ref[i]);
  }
  EXPECT_EQ(mismatches, 0u)
      << "n " << cc.n << " c " << cc.c << " f " << cc.f << " hw " << cc.hw
      << " k " << cc.k << " stride " << cc.stride << " pad " << cc.pad;
  return !(cc.k == 1 && cc.stride == 1 && cc.pad == 0) && packed.blocked(npix);
}

std::vector<ConvCase> conv_cases() {
  // Every (c, f, spatial) triple, with kernel size, stride, padding and
  // batch cycling through their values so each pairs with all shapes.
  // c = 96 at k = 3 gives four K-blocks (kdim 864), c = 16 at k = 3 one
  // (144); spatial 5, 18 and 33 leave a partial 16-column panel. f runs
  // every micro-kernel tile height: 3, 4, 8, 12 and 16 rows exactly, 17
  // a full tile plus a one-row tail.
  std::vector<ConvCase> cases;
  int i = 0;
  for (int c : {3, 16, 96}) {
    for (int f : {3, 4, 8, 12, 16, 17, 32, 64}) {
      for (int hw : {5, 8, 16, 18, 33}) {
        const int k = i % 4 < 3 ? 3 : 1;
        const int stride = 1 + (i / 2) % 2;
        const int pad = k == 3 ? (i / 3) % 2 : (i / 5) % 2;
        cases.push_back({1 + i % 2, c, f, hw, k, stride, pad});
        ++i;
      }
    }
  }
  // 3x3 stride 1 pad 1 — the UNet's shape — at two K-blocks (kdim 288),
  // and a plane packed in several column blocks, the last ending mid-panel.
  cases.push_back({2, 32, 32, 16, 3, 1, 1});
  cases.push_back({2, 32, 64, 18, 3, 1, 1});
  cases.push_back({1, 96, 32, 33, 3, 1, 1});
  return cases;
}

void expect_all_convs_bit_exact() {
  int paneled = 0;
  const std::vector<ConvCase> cases = conv_cases();
  for (const ConvCase& cc : cases) paneled += expect_conv_bit_exact(cc);
  // Most cases take the panel path; the rest (1x1 direct, products below
  // the small-problem cutoff) keep im2col + PackedA::run's routing.
  EXPECT_GT(paneled, static_cast<int>(cases.size()) / 2);
  EXPECT_LT(paneled, static_cast<int>(cases.size()));
}

TEST(PlanKernelTest, PanelPackedConvIsBitExactInline) {
  nn::ThreadPool inline_pool(1);
  nn::PoolBinding bind(&inline_pool);
  expect_all_convs_bit_exact();
}

TEST(PlanKernelTest, NaiveGemmModeKeepsIm2colRouting) {
  // DCDIFF_GEMM_NAIVE sends every product through the reference loop; the
  // planned conv must follow it (no panel path) and still match.
  nn::set_gemm_naive(true);
  int paneled = 0;
  for (const ConvCase& cc : {ConvCase{1, 16, 32, 18, 3, 1, 1},
                             ConvCase{2, 96, 4, 8, 3, 2, 1}}) {
    paneled += expect_conv_bit_exact(cc);
  }
  nn::set_gemm_naive(false);
  EXPECT_EQ(paneled, 0);
}

TEST(PlanKernelTest, PanelPackedConvIsBitExactOnThreePool) {
  nn::ThreadPool pool(3);
  nn::PoolBinding bind(&pool);
  expect_all_convs_bit_exact();
}

// ---- typed build failures ----

TEST(PlanCacheTest, BuildFailureSurfacesAsStatus) {
  nn::plan::PlanCache cache;
  std::shared_ptr<const nn::plan::Plan> plan;

  // A capture that throws (unsupported op) becomes invalid_argument.
  const Status bad = cache.get_or_build(
      "bad",
      [](nn::plan::GraphBuilder&) {
        throw std::invalid_argument("unsupported op");
      },
      nullptr, &plan);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 0u);

  // A capture that marks no output is a malformed graph, same code.
  const Status empty = cache.get_or_build(
      "empty", [](nn::plan::GraphBuilder& g) { (void)g.input({1, 4}); },
      nullptr, &plan);
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);

  // A well-formed graph compiles and runs the same math as eager.
  const Status ok = cache.get_or_build(
      "ok",
      [](nn::plan::GraphBuilder& g) { g.mark_output(g.silu(g.input({1, 4}))); },
      nullptr, &plan);
  ASSERT_TRUE(ok.is_ok()) << ok.to_string();
  EXPECT_EQ(cache.size(), 1u);
  auto lease = cache.arena_for(*plan);
  const float in[4] = {-1.0f, 0.0f, 0.5f, 2.0f};
  std::vector<const float*> outs;
  plan->run(lease.arena(), {in}, &outs);
  ASSERT_EQ(outs.size(), 1u);
  for (int i = 0; i < 4; ++i) {
    const float want = in[i] / (1.0f + std::exp(-in[i]));
    EXPECT_EQ(outs[0][i], want) << "lane " << i;
  }
}

// ---- replica-sharded serving through per-replica plans ----

TEST_F(PlanTest, ShardedServerMatchesSingleWorkerWithPlans) {
  core::set_plan_enabled(1);
  constexpr int kImages = 4;
  std::vector<std::vector<uint8_t>> streams;
  for (int i = 0; i < kImages; ++i) streams.push_back(bitstream(i));

  serve::ServerConfig scfg;
  scfg.max_batch = 2;
  scfg.queue_capacity = 64;

  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();

  std::vector<Image> reference(kImages);
  {
    scfg.workers = 1;
    serve::ReceiverServer server(scfg, model_);
    serve::Session session = server.open_session();
    for (int i = 0; i < kImages; ++i) {
      serve::ReconstructRequest req;
      req.jfif = streams[static_cast<size_t>(i)];
      serve::Result r = session.reconstruct(req);
      ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
      reference[static_cast<size_t>(i)] = std::move(r.image);
    }
  }
  {
    scfg.workers = 3;
    serve::ReceiverServer server(scfg, model_);
    serve::Session session = server.open_session();
    std::vector<std::future<serve::Result>> futs;
    for (const auto& bytes : streams) {
      serve::ReconstructRequest req;
      req.jfif = bytes;
      futs.push_back(session.submit_future(req));
    }
    for (int i = 0; i < kImages; ++i) {
      serve::Result r = futs[static_cast<size_t>(i)].get();
      ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
      // Worker batching may group requests differently than the reference
      // pass, so this matches at the (tested) batch-vs-single tolerance.
      EXPECT_LE(max_abs_diff(reference[static_cast<size_t>(i)], r.image),
                1e-4)
          << "image " << i;
    }
  }
  // Every request on both servers went through the planned path.
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
}

}  // namespace
}  // namespace dcdiff
