// Shared helpers for the experiment harnesses (one binary per paper table /
// figure). Each harness prints the same rows/series the paper reports, and —
// when DCDIFF_BENCH_JSON is set — also writes a machine-readable JSON report
// with per-method per-image latency + quality plus a snapshot of the obs
// metrics registry (per-stage latency percentiles). Serving performance is
// measured by rxbench (BENCHMARK.json), not by these reports.
//
// Runtime knobs (environment variables):
//   DCDIFF_BENCH_N      images per dataset (default: dataset_default_count)
//   DCDIFF_EVAL_SIZE    evaluation image size (default 64; paper uses 256
//                       crops -- everything here is scaled 4x down, see
//                       DESIGN.md)
//   DCDIFF_CACHE_DIR    weight cache (shared with examples)
//   DCDIFF_BENCH_JSON   path for the JSON report (unset = table output only)
//   DCDIFF_TRACE_FILE   Chrome trace_event output (see src/obs/trace.h)
//   DCDIFF_LOG_LEVEL    structured-log threshold (see src/obs/log.h)
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/dc_recovery.h"
#include "baselines/tii2021.h"
#include "core/pipeline.h"
#include "data/datasets.h"
#include "jpeg/dcdrop.h"
#include "metrics/metrics.h"
#include "obs/env.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace dcdiff::bench {

// Strict parsing (malformed / negative values fall back instead of silently
// becoming 0 -- see obs::env_int).
inline int env_int(const char* name, int fallback) {
  return obs::env_int(name, fallback);
}

inline std::string env_str(const char* name, const char* fallback = "") {
  return obs::env_str(name, fallback);
}

inline int eval_size() { return env_int("DCDIFF_EVAL_SIZE", 64); }

inline int images_for(data::DatasetId id) {
  const int n = env_int("DCDIFF_BENCH_N", 0);
  return n > 0 ? std::min(n, data::dataset_full_count(id))
               : data::dataset_default_count(id);
}

// The four compared methods, in the paper's table order.
enum class Method { kSmartCom2019, kTII2021, kICIP2022, kDCDiff };

inline const char* method_label(Method m) {
  switch (m) {
    case Method::kSmartCom2019: return "SmartCom 2019 [18]";
    case Method::kTII2021: return "IEEE TII 2021 [19]";
    case Method::kICIP2022: return "ICIP 2022 [20]";
    case Method::kDCDiff: return "DCDiff";
  }
  return "?";
}

// Stable machine-readable identifier (JSON report, metric names).
inline const char* method_key(Method m) {
  switch (m) {
    case Method::kSmartCom2019: return "smartcom2019";
    case Method::kTII2021: return "tii2021";
    case Method::kICIP2022: return "icip2022";
    case Method::kDCDiff: return "dcdiff";
  }
  return "?";
}

inline std::vector<Method> all_methods() {
  return {Method::kSmartCom2019, Method::kTII2021, Method::kICIP2022,
          Method::kDCDiff};
}

// ----- machine-readable JSON report -----

// Collects one record per (method, image) evaluation; written to
// DCDIFF_BENCH_JSON at process exit (or via write_now). Schema:
//   {"schema": 1,
//    "bench": "<title>",
//    "eval_size": 64,
//    "records": [{"dataset": "Kodak", "method": "dcdiff", "image": 0,
//                 "seconds": 0.123, "psnr": .., "ssim": ..,
//                 "ms_ssim": .., "lpips": ..}, ...],
//    "metrics": {"counters": {...}, "gauges": {...},
//                "histograms": {"core.ddim.step_seconds":
//                               {"count","sum","min","max",
//                                "p50","p90","p99"}, ...}}}
class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport* r = [] {
      auto* rep = new JsonReport();
      std::atexit([] { JsonReport::instance().write_now(); });
      return rep;
    }();
    return *r;
  }

  void set_bench(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    bench_ = name;
  }

  void add_sample(const std::string& dataset, const std::string& method,
                  int image, double seconds,
                  const metrics::QualityReport& q) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back({dataset, method, image, seconds, q});
  }

  // Writes the report when DCDIFF_BENCH_JSON is set. Idempotent per content:
  // later calls rewrite the file with everything collected so far.
  void write_now() {
    const std::string path = env_str("DCDIFF_BENCH_JSON");
    if (path.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream f(path);
    if (!f) {
      DCDIFF_LOG_ERROR("bench", "report_write_failed", {{"path", path}});
      return;
    }
    f << "{\"schema\":1,\"bench\":\"" << obs::json_escape(bench_)
      << "\",\"eval_size\":" << eval_size() << ",\"records\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      if (i) f << ',';
      f << "{\"dataset\":\"" << obs::json_escape(r.dataset)
        << "\",\"method\":\"" << obs::json_escape(r.method)
        << "\",\"image\":" << r.image
        << ",\"seconds\":" << obs::json_number(r.seconds)
        << ",\"psnr\":" << obs::json_number(r.quality.psnr)
        << ",\"ssim\":" << obs::json_number(r.quality.ssim)
        << ",\"ms_ssim\":" << obs::json_number(r.quality.ms_ssim)
        << ",\"lpips\":" << obs::json_number(r.quality.lpips) << '}';
    }
    f << "],\"metrics\":" << obs::Registry::instance().to_json() << "}\n";
    DCDIFF_LOG_INFO("bench", "report_written",
                    {{"path", path}, {"records", rows_.size()}});
  }

 private:
  struct Row {
    std::string dataset;
    std::string method;
    int image;
    double seconds;
    metrics::QualityReport quality;
  };
  std::mutex mu_;
  std::string bench_;
  std::vector<Row> rows_;
};

// Runs one method's receiver on a DC-dropped coefficient image.
inline Image run_method(Method m, const jpeg::CoeffImage& dropped) {
  switch (m) {
    case Method::kSmartCom2019:
      return baselines::recover_dc(dropped,
                                   baselines::RecoveryMethod::kSmartCom2019);
    case Method::kTII2021:
      return baselines::recover_tii2021(dropped,
                                        baselines::shared_corrector());
    case Method::kICIP2022:
      return baselines::recover_dc(dropped,
                                   baselines::RecoveryMethod::kICIP2022);
    case Method::kDCDiff:
      return core::ModelPool::instance().default_instance()->reconstruct(
          dropped);
  }
  throw std::logic_error("run_method: bad method");
}

// Full sender -> receiver evaluation of one method on one dataset. Each
// receiver call is timed; per-image rows feed the JSON report and a
// per-method latency histogram (bench.<method>.receiver_seconds).
inline metrics::QualityReport evaluate_method_on_dataset(
    Method m, data::DatasetId id, int quality = 50) {
  std::vector<metrics::QualityReport> reports;
  const int n = images_for(id);
  obs::Histogram& lat = obs::histogram(
      std::string("bench.") + method_key(m) + ".receiver_seconds");
  for (int i = 0; i < n; ++i) {
    const Image original = data::dataset_image(id, i, eval_size());
    jpeg::CoeffImage coeffs = jpeg::forward_transform(original, quality);
    jpeg::drop_dc(coeffs);
    const auto t0 = std::chrono::steady_clock::now();
    const Image recovered = run_method(m, coeffs);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    lat.observe(seconds);
    const metrics::QualityReport q = metrics::evaluate(original, recovered);
    JsonReport::instance().add_sample(data::dataset_name(id), method_key(m),
                                      i, seconds, q);
    reports.push_back(q);
  }
  return metrics::average(reports);
}

inline void print_header(const char* title) {
  JsonReport::instance().set_bench(title);
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("(synthetic datasets at %dx%d; shapes comparable to the paper,\n",
              eval_size(), eval_size());
  std::printf(" absolute numbers are substrate-dependent -- see EXPERIMENTS.md)\n");
  std::printf("================================================================\n");
}

}  // namespace dcdiff::bench
