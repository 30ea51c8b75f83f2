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
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "jpeg/codec.h"
#include "nn/plan/builder.h"
#include "nn/plan/cache.h"
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
