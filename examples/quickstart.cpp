// Quickstart: the full DCDiff story in one file.
//
// 1. A sender (any fixed-function JPEG camera) compresses an image at Q50
//    and zeroes every DC coefficient except the 4 corner anchors -- no
//    change to the JPEG implementation, ~25% fewer bits.
// 2. The receiver reconstructs the image three ways: naive decode (no
//    recovery), the strongest iterative baseline (ICIP 2022), and DCDiff's
//    diffusion-based DC estimation.
//
// Run from the repository root; weights are trained on first use and cached
// in ./dcdiff_weights (or train once with examples/train_dcdiff).
//
// Observability: set DCDIFF_TRACE_FILE to record a Chrome trace of the whole
// sender->receiver path (per-DDIM-step spans included), DCDIFF_LOG_LEVEL for
// structured logs, DCDIFF_METRICS_FILE for a metrics snapshot. With
// DCDIFF_QUICKSTART_FAST=1 a tiny model (seconds to train) replaces the full
// shared model -- used by the `quickstart_trace` CTest so instrumentation
// regressions surface in tier-1.
#include <chrono>
#include <cstdio>

#include "baselines/dc_recovery.h"
#include "bench_util.h"
#include "core/pipeline.h"
#include "data/datasets.h"
#include "image/image.h"
#include "jpeg/dcdrop.h"
#include "metrics/metrics.h"
#include "obs/env.h"
#include "obs/trace.h"

using namespace dcdiff;

namespace {

const core::DCDiffModel& quickstart_model() {
  if (obs::env_int("DCDIFF_QUICKSTART_FAST", 0) > 0) {
    static core::DCDiffModel* model = [] {
      auto* m = new core::DCDiffModel(core::toy_config());
      m->train_or_load();
      return m;
    }();
    return *model;
  }
  return *core::ModelPool::instance().default_instance();
}

}  // namespace

int main() {
  // A Kodak-style test image (procedural stand-in; see DESIGN.md).
  const Image original = data::dataset_image(data::DatasetId::kKodak, 3, 64);

  // ---- Sender ----
  const core::SenderOutput sent = core::sender_encode(original, /*quality=*/50);
  std::printf("sender: standard JPEG %zu bits -> DC-dropped %zu bits "
              "(%.1f%% of standard)\n",
              sent.standard_bits, sent.dropped_bits,
              100.0 * static_cast<double>(sent.dropped_bits) /
                  static_cast<double>(sent.standard_bits));

  // ---- Receiver ----
  const jpeg::CoeffImage received = jpeg::decode_jfif(sent.bytes);

  const Image naive = jpeg::inverse_transform(received);
  const Image icip =
      baselines::recover_dc(received, baselines::RecoveryMethod::kICIP2022);
  // Timed so that perf runs (DCDIFF_BENCH_JSON set, e.g. the perf_smoke
  // CTest) get a per-run receiver wall-time record alongside the obs
  // metrics snapshot.
  const auto t0 = std::chrono::steady_clock::now();
  const Image dcdiff = core::receiver_reconstruct(sent.bytes, quickstart_model());
  const double receiver_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  bench::JsonReport::instance().set_bench("quickstart");
  bench::JsonReport::instance().add_sample(
      "Kodak", "dcdiff", 3, receiver_seconds,
      metrics::evaluate(original, dcdiff));

  auto report = [&](const char* label, const Image& rec) {
    const auto r = metrics::evaluate(original, rec);
    std::printf("%-22s PSNR %6.2f dB  SSIM %.4f  MS-SSIM %.4f  LPIPS %.4f\n",
                label, r.psnr, r.ssim, r.ms_ssim, r.lpips);
  };
  std::printf("\nreceiver-side reconstruction quality:\n");
  report("naive decode (no DC)", naive);
  report("ICIP 2022 baseline", icip);
  report("DCDiff", dcdiff);
  // Machine-readable full-precision line for the cross-process golden
  // regression test (cmake/golden_regression_test.cmake): the 2-decimal
  // table above is far too coarse to catch a drifting kernel.
  std::printf("quickstart_golden psnr=%.9f\n",
              metrics::evaluate(original, dcdiff).psnr);

  write_pnm(original, "quickstart_original.ppm");
  write_pnm(dcdiff, "quickstart_dcdiff.ppm");
  std::printf("\nwrote quickstart_original.ppm / quickstart_dcdiff.ppm\n");
  if (obs::trace_enabled() && obs::flush_trace()) {
    std::printf("wrote Chrome trace to %s\n", obs::trace_file().c_str());
  }
  return 0;
}
