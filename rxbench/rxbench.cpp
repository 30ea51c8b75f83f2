// rxbench: the receiver benchmark.
//
// Serves generated DC-dropped JFIF bytes through serve::ReceiverServer under
// one of four workloads (see README.md for why each exists), checks every
// answer, and prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run) as the last line of stdout:
//
//   {"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":..,"unit":..}}}
//
// Usage (normally through run.py, which builds this and prepares weights):
//   rxbench --workload NAME --seed N --seconds S --trace 0|1
//           --cache-dir DIR [--report FILE] [--trace-out FILE]
//           [--min-psnr-gain-db X] [--git-sha SHA] [--source-digest D]
//   rxbench --prepare --cache-dir DIR   (trains both models into DIR)
//   rxbench --list-metrics              (names and units, one per line)
//
// Layers are timed from outside, through their public functions; the
// program's own state is read only through ReceiverServer::stats(), the
// flight recorder and the obs registry. Nothing here adds tracing to the
// libraries.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/postprocess.h"
#include "data/datasets.h"
#include "image/image.h"
#include "jpeg/codec.h"
#include "loadgen.h"
#include "metrics/metrics.h"
#include "nn/cache.h"
#include "nn/gemm.h"
#include "nn/plan/kernels.h"
#include "nn/threadpool.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/tiler.h"

extern char** environ;

using namespace dcdiff;
using rxbench::median;
using rxbench::nearest_rank;
using rxbench::poisson_schedule;
using rxbench::grouped_percentile;
using rxbench::SeededRng;

namespace {

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names; run.py and
// tests/test_names.py check that the two agree.

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"images_per_s", "1/s"},
      {"cpu_ms_per_image", "ms"},
      {"peak_rss_mb", "MB"},
      {"psnr_db", "dB"},
      {"complete_share", "share"},
      {"answered_share", "share"},
  };
  return m;
}

// Default-model shapes the nn kernels are timed at (64x64 input): the UNet
// 3x3 conv at latent resolution, the UNet mid-block 3x3 conv, and the AE
// decoder's full-resolution 3x3 conv.
struct ConvShape {
  const char* tag;
  int c, f, hw;
  bool unet;  // batch is images x ensemble (UNet) or images (decoder)
};
const std::vector<ConvShape>& conv_shapes() {
  static const std::vector<ConvShape> s = {
      {"u16c32", 32, 32, 16, true},
      {"u8c64", 64, 64, 8, true},
      {"d64c32", 32, 16, 64, false},
  };
  return s;
}
// Group norms of the UNet at latent and mid resolution (8 groups).
const std::vector<ConvShape>& norm_shapes() {
  static const std::vector<ConvShape> s = {
      {"u16c32", 32, 32, 16, true},
      {"u8c64", 64, 64, 8, true},
  };
  return s;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = [] {
    std::vector<MetricDef> v = {
        {"jpeg.decode_us", "us"},
        {"jpeg.tilde_us", "us"},
        {"jpeg.decode_cm_us", "us"},
        {"core.reconstruct_ms.n1", "ms"},
        {"core.reconstruct_ms.n4", "ms"},
        {"core.ddim_step_ms", "ms"},
        {"core.fixed_ms", "ms"},
        {"core.anytime_step_ms", "ms"},
        {"core.partial_decode_ms", "ms"},
        {"core.postprocess_ms", "ms"},
        {"core.plan_compile_ms", "ms"},
        {"nn.dispatch_us.t2", "us"},
        {"nn.pool_busy_share", "share"},
    };
    for (const ConvShape& s : conv_shapes()) {
      v.push_back({std::string("nn.gemm_gflops.") + s.tag, "GFLOP/s"});
    }
    for (const ConvShape& s : conv_shapes()) {
      v.push_back({std::string("nn.conv2d_us.") + s.tag, "us"});
      v.push_back({std::string("nn.conv2d_gbps.") + s.tag, "GB/s"});
    }
    for (const ConvShape& s : norm_shapes()) {
      v.push_back({std::string("nn.group_norm_us.") + s.tag, "us"});
      v.push_back({std::string("nn.group_norm_gbps.") + s.tag, "GB/s"});
    }
    const std::vector<MetricDef> tail = {
        {"nn.plan.arena_mb", "MB"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.batch_size_mean", "count"},
        {"serve.steals_per_100", "count"},
        {"serve.overhead_ms", "ms"},
        {"serve.governor_sheds_per_100", "count"},
        {"serve.partials_per_request", "count"},
        {"serve.stitch_ms", "ms"},
        {"serve.tile_work_ratio", "ratio"},
        {"obs.trace_overhead_pct", "%"},
        {"loadgen.lag_p90_ms", "ms"},
    };
    v.insert(v.end(), tail.begin(), tail.end());
    return v;
  }();
  return m;
}

// ---------------------------------------------------------------------------
// Clocks.

// Trace-clock seconds: the time base of obs::RequestRecord, so the
// benchmark's spans line up with the server's flight records.
double now_s() { return obs::trace_now_us() * 1e-6; }

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// CPUs this process may run on (what `nproc` prints).
int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

void sleep_s(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// ---------------------------------------------------------------------------
// Models.

// The toy model: the same "quickfast" configuration the examples use.
core::DCDiffConfig toy_config() {
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
  cfg.ae_tag = "quickfast_ae";
  cfg.tag = "quickfast";
  return cfg;
}

std::vector<std::string> weight_files(const core::DCDiffConfig& cfg) {
  return {nn::cache_path("dcdiff_" + cfg.ae_tag + ".bin"),
          nn::cache_path("dcdiff_" + cfg.tag + "_diff.bin"),
          nn::cache_path("dcdiff_" + cfg.tag + "_fmpp.bin")};
}

// Loads a fresh model from the weight cache. Timed runs never train: a
// missing file is an error, so training can never hide inside setup_s.
std::shared_ptr<const core::DCDiffModel> load_model(
    const core::DCDiffConfig& cfg) {
  for (const std::string& f : weight_files(cfg)) {
    if (!std::filesystem::exists(f)) {
      throw std::runtime_error("no cached weights at " + f +
                               " (run `rxbench --prepare` first)");
    }
  }
  auto m = std::make_shared<core::DCDiffModel>(cfg);
  m->train_or_load();
  return m;
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kFinal, kLatency, kProgressive, kTiled, kCm };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kFinal: return "final";
    case Kind::kLatency: return "latency";
    case Kind::kProgressive: return "progressive";
    case Kind::kTiled: return "tiled";
    case Kind::kCm: return "cm";
  }
  return "?";
}

struct Workload {
  std::string name;
  bool toy = false;
  serve::ServerConfig cfg;
  int in_flight = 0;    // closed-loop clients; 0 = open loop
  double rate = 0;      // open-loop arrivals per second (fixed)
  int deadline_ms = 0;  // latency-tier relative deadline
  int max_tile_px = 0;  // tile policy of kTiled requests
  std::vector<Kind> pool_kinds;  // one per distinct input
  int large_every = 0;  // every n-th input is 128x128, not 64x64 (0 = none)
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.cfg.flight_recorder_size = 4096;  // holds a whole traced phase
  if (name == "single_stream") {
    // One compute thread: a 2-thread pool waits on both vCPUs at every
    // intra-op dispatch, so hypervisor steal on a shared host doubled its
    // latency from run to run. The 2-thread pool is timed in the replay.
    w.cfg.workers = 1;
    w.cfg.pool_threads = 1;
    w.in_flight = 1;
    w.pool_kinds.assign(32, Kind::kFinal);
  } else if (name == "batched_throughput") {
    w.cfg.workers = 2;
    w.cfg.pool_threads = 2;
    w.cfg.max_batch = 4;
    w.in_flight = 8;
    w.pool_kinds.assign(32, Kind::kFinal);
  } else if (name == "mixed_anytime") {
    w.cfg.workers = 2;
    w.cfg.pool_threads = 2;
    w.cfg.min_steps = 1;
    w.cfg.governor_depth_per_step = 2;
    // About a third of the mix's capacity (about 13 requests/s on a 4-core
    // host); fixed, never recalibrated, so a faster receiver shows as lower
    // latency and CPU. At 5-7 requests/s, requests queued behind the tiled
    // request's fan-out often enough to swing p90 by 20-50% between runs.
    w.rate = 4.5;
    w.deadline_ms = 60;
    w.max_tile_px = 64;
    // 40 inputs, sent in this fixed order: 19 final-only quality, 8
    // latency-tier with a deadline, 6 progressive, 1 tiled 128x128, 6
    // cm-coded. The tiled request takes about ten times longer than the
    // rest and sits above p90 with the requests it delays; p90 lands among
    // the progressive requests.
    using K = Kind;
    w.pool_kinds = {K::kFinal, K::kLatency, K::kProgressive, K::kFinal,
                    K::kCm, K::kFinal, K::kLatency, K::kFinal,
                    K::kProgressive, K::kFinal, K::kCm, K::kFinal,
                    K::kLatency, K::kFinal, K::kTiled, K::kFinal,
                    K::kProgressive, K::kCm, K::kFinal, K::kLatency,
                    K::kFinal, K::kFinal, K::kLatency, K::kProgressive,
                    K::kFinal, K::kCm, K::kFinal, K::kLatency,
                    K::kFinal, K::kProgressive, K::kFinal, K::kCm,
                    K::kFinal, K::kLatency, K::kFinal, K::kProgressive,
                    K::kFinal, K::kCm, K::kLatency, K::kFinal};
  } else if (name == "toy_lone_requests") {
    w.toy = true;
    w.cfg.workers = 1;
    w.cfg.pool_threads = 1;
    w.in_flight = 1;
    w.pool_kinds.assign(32, Kind::kFinal);
    // One request in 8 is a 128x128 image, about three times as long, so
    // p90 lands a fifth of the way up those. At the edge of the 64x64
    // requests' narrow spread, a few milliseconds of CPU lost to a
    // co-tenant moved it by a third from run to run.
    w.large_every = 8;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::string server_config_json(const serve::ServerConfig& c) {
  std::ostringstream o;
  o << "{\"max_batch\":" << c.max_batch
    << ",\"batch_timeout_ms\":" << c.batch_timeout_ms
    << ",\"queue_capacity\":" << c.queue_capacity
    << ",\"workers\":" << c.workers << ",\"pool_threads\":" << c.pool_threads
    << ",\"pin_cpus\":" << (c.pin_cpus ? "true" : "false")
    << ",\"min_steps\":" << c.min_steps
    << ",\"governor_depth_per_step\":" << c.governor_depth_per_step
    << ",\"partial_interval\":" << c.partial_interval
    << ",\"stats_interval_ms\":" << c.stats_interval_ms
    << ",\"flight_recorder_size\":" << c.flight_recorder_size
    << ",\"recon\":{\"use_fmpp\":" << (c.recon.use_fmpp ? "true" : "false")
    << ",\"ddim_steps\":" << c.recon.ddim_steps
    << ",\"ensemble\":" << c.recon.ensemble << ",\"seed\":" << c.recon.seed
    << "}}";
  return o.str();
}

// ---------------------------------------------------------------------------
// Inputs. Generated from the seed across all six dataset generators; the
// server only ever sees the encoded bytes.

struct Input {
  Kind kind = Kind::kFinal;
  Image original;
  jpeg::CoeffImage coeffs;  // the DC-dropped coefficients in `bytes`
  std::vector<uint8_t> bytes;
  double naive_psnr = 0;  // DC-less decode (jpeg::inverse_transform) vs original
  Image reference;        // reconstruct_batch output (final-only kinds)
};

std::vector<Input> make_inputs(const Workload& w, uint64_t seed) {
  SeededRng rng(seed ^ 0x5EEDF00Dull);
  const std::vector<data::DatasetId> sets = data::all_datasets();
  std::vector<Input> pool;
  for (size_t j = 0; j < w.pool_kinds.size(); ++j) {
    Input in;
    in.kind = w.pool_kinds[j];
    const bool large = in.kind == Kind::kTiled ||
                       (w.large_every > 0 && (j + 1) % w.large_every == 0);
    const int size = large ? 128 : 64;
    const int index = static_cast<int>(rng.below(1000));
    in.original = data::dataset_image(sets[j % sets.size()], index, size);
    const jpeg::EntropyKind ek =
        in.kind == Kind::kCm ? jpeg::EntropyKind::kCm : jpeg::EntropyKind::kHuffman;
    in.bytes = core::sender_encode(in.original, 50, ek).bytes;
    const Status st = jpeg::try_decode_jfif(in.bytes, &in.coeffs);
    if (!st.is_ok()) throw std::runtime_error("input decode: " + st.to_string());
    in.naive_psnr = metrics::psnr(in.original, jpeg::inverse_transform(in.coeffs));
    pool.push_back(std::move(in));
  }
  return pool;
}

bool checks_reference(Kind k) { return k == Kind::kFinal || k == Kind::kCm; }

double max_abs_diff(const Image& a, const Image& b) {
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

// ---------------------------------------------------------------------------
// Spans: recorded in memory from this file around calls into the program,
// written out once at the end of a traced run.

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;        // index into the span list, -1 = root
  uint64_t request = 0;   // client request number (0 = none)
  int lane = 0;           // 0 client, 1 server records, 2 replay
};

class SpanLog {
 public:
  int add(std::string name, double start_us, double end_us, int parent,
          uint64_t request, int lane) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(
        Span{std::move(name), start_us, end_us, parent, request, lane});
    return static_cast<int>(spans_.size()) - 1;
  }
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"request\":%llu}}",
                    i ? ",\n" : "", s.name.c_str(), s.lane, s.start_us,
                    s.end_us - s.start_us, i, s.parent,
                    static_cast<unsigned long long>(s.request));
      f << buf;
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Load generation.

struct RequestLog {
  int input = 0;
  Kind kind = Kind::kFinal;
  // due: when the request was due (closed loop: == sent); sent: Session::
  // submit entered; done: terminal result observed.
  rxbench::OpenLoopTiming t;
  double submitted = 0;  // Session::submit returned
  bool terminal = false;
  bool single_terminal = true;  // no event after the terminal one
  serve::Outcome outcome = serve::Outcome::kRejected;
  bool size_ok = true;
  double psnr = 0;
  double ref_diff = -1;  // < 0: not compared
  int partials = 0;
};

struct PhaseResult {
  std::vector<RequestLog> logs;
  double start = 0;    // window start (trace-clock seconds)
  double end = 0;      // window end: no request is sent after it
  double drained = 0;  // last answer observed
  double cpu_seconds = 0;  // process CPU time from start to drained

  void begin(double seconds) {
    start = now_s();
    end = start + seconds;
    cpu_seconds = cpu_s();
  }
  void finish() {
    drained = now_s();
    cpu_seconds = cpu_s() - cpu_seconds;
  }
};

serve::ReconstructRequest make_request(const Workload& w, const Input& in) {
  serve::ReconstructRequest req;
  req.jfif = in.bytes;
  if (in.kind == Kind::kLatency) {
    req.tier = serve::QosTier::kLatency;
    req.deadline_ms = w.deadline_ms;
  } else if (in.kind == Kind::kProgressive) {
    req.delivery = serve::DeliveryMode::kProgressive;
  } else if (in.kind == Kind::kTiled) {
    req.tile.max_tile_px = w.max_tile_px;
  }
  return req;
}

class LoadGenerator {
 public:
  LoadGenerator(const Workload& w, const std::vector<Input>& inputs,
         serve::Session session, SpanLog* spans)
      : w_(w), inputs_(inputs), session_(session), spans_(spans) {}

  struct Pending {
    size_t log;
    std::future<serve::Result> fut;
  };

  // The open loop's second thread: reads progressive streams in arrival
  // order, counting partials, until the terminal result. The destructor
  // releases and joins the thread on every path out of open().
  class ProgressiveConsumer {
   public:
    ProgressiveConsumer(LoadGenerator* d, PhaseResult* ph)
        : thread_([this, d, ph] { run(d, ph); }) {}
    ~ProgressiveConsumer() { stop(); }
    ProgressiveConsumer(const ProgressiveConsumer&) = delete;
    ProgressiveConsumer& operator=(const ProgressiveConsumer&) = delete;

    void push(size_t log, serve::ResultStream s) {
      std::lock_guard<std::mutex> lk(mu_);
      streams_.emplace_back(log, std::move(s));
      cv_.notify_one();
    }
    // Drains the streams, joins, and rethrows the thread's failure.
    void finish() {
      stop();
      if (error_) std::rethrow_exception(error_);
    }

   private:
    void stop() {
      {
        std::lock_guard<std::mutex> lk(mu_);
        done_ = true;
      }
      cv_.notify_one();
      if (thread_.joinable()) thread_.join();
    }
    void run(LoadGenerator* d, PhaseResult* ph) {
      try {
        for (;;) {
          std::pair<size_t, serve::ResultStream> item;
          {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] { return done_ || !streams_.empty(); });
            if (streams_.empty()) return;
            item = std::move(streams_.front());
            streams_.pop_front();
          }
          RequestLog& log = ph->logs[item.first];
          serve::ResultStream::Event ev;
          while (item.second.next(&ev)) {
            if (!ev.terminal) {
              ++log.partials;
              continue;
            }
            log.t.done = now_s();
            serve::ResultStream::Event extra;
            log.single_terminal = !item.second.next(&extra);
            d->settle(std::move(ev.result), &log, item.first);
            break;
          }
        }
      } catch (...) {
        error_ = std::current_exception();
      }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::pair<size_t, serve::ResultStream>> streams_;
    bool done_ = false;
    std::exception_ptr error_;
    std::thread thread_;  // last: starts after the state it uses exists
  };

  int next_input() { return static_cast<int>(next_++ % inputs_.size()); }

  // Closed loop: `in_flight` clients, each sending its next request when the
  // previous answer arrives, until `seconds` have passed; then drains.
  PhaseResult closed(double seconds) {
    PhaseResult ph;
    ph.begin(seconds);
    std::vector<Pending> pending;
    const auto send = [&] {
      const int idx = next_input();
      RequestLog log;
      log.input = idx;
      log.kind = inputs_[idx].kind;
      log.t.sent = log.t.due = now_s();
      const serve::ReconstructRequest req = make_request(w_, inputs_[idx]);
      std::future<serve::Result> fut = session_.submit_future(req);
      log.submitted = now_s();
      ph.logs.push_back(std::move(log));
      pending.push_back({ph.logs.size() - 1, std::move(fut)});
    };
    for (int i = 0; i < w_.in_flight; ++i) send();
    while (!pending.empty()) {
      if (pending.size() == 1) pending[0].fut.wait();
      bool progressed = false;
      for (size_t i = 0; i < pending.size();) {
        if (pending[i].fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        RequestLog& log = ph.logs[pending[i].log];
        log.t.done = now_s();
        settle(pending[i].fut.get(), &log, pending[i].log);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
        if (now_s() < ph.end) send();
      }
      if (!progressed) sleep_s(kPollSeconds);
    }
    ph.finish();
    return ph;
  }

  // Open loop: requests sent at the seeded Poisson due times regardless of
  // answers. This thread sends and polls final-only futures; a second
  // thread consumes progressive streams in arrival order.
  PhaseResult open(const std::vector<double>& due, double seconds) {
    PhaseResult ph;
    ph.begin(seconds);
    // Log slots are reserved up front, so the consumer thread's writes to
    // its own entries never race with a reallocation.
    ph.logs.resize(due.size());
    ProgressiveConsumer consumer(this, &ph);
    std::vector<Pending> pending;
    const auto poll = [&] {
      for (size_t i = 0; i < pending.size();) {
        if (pending[i].fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        RequestLog& log = ph.logs[pending[i].log];
        log.t.done = now_s();
        settle(pending[i].fut.get(), &log, pending[i].log);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      }
    };
    for (size_t r = 0; r < due.size(); ++r) {
      const double target = ph.start + due[r];
      for (double t = now_s(); t < target; t = now_s()) {
        poll();
        sleep_s(std::min(kPollSeconds, target - now_s()));
      }
      const int idx = next_input();
      RequestLog& log = ph.logs[r];
      log.input = idx;
      log.kind = inputs_[idx].kind;
      log.t.due = target;
      log.t.sent = now_s();
      const serve::ReconstructRequest req = make_request(w_, inputs_[idx]);
      if (log.kind == Kind::kProgressive) {
        serve::ResultStream s = session_.submit(req);
        log.submitted = now_s();
        consumer.push(r, std::move(s));
      } else {
        std::future<serve::Result> fut = session_.submit_future(req);
        log.submitted = now_s();
        pending.push_back({r, std::move(fut)});
      }
    }
    while (!pending.empty()) {
      poll();
      sleep_s(kPollSeconds);
    }
    consumer.finish();
    ph.finish();
    return ph;
  }

 private:
  static constexpr double kPollSeconds = 250e-6;

  void settle(serve::Result r, RequestLog* log, size_t number) {
    const Input& in = inputs_[static_cast<size_t>(log->input)];
    log->terminal = true;
    log->outcome = r.outcome;
    if (r.outcome != serve::Outcome::kRejected) {
      log->size_ok = r.image.width() == in.original.width() &&
                     r.image.height() == in.original.height();
      if (log->size_ok) log->psnr = metrics::psnr(in.original, r.image);
      if (r.outcome == serve::Outcome::kComplete && checks_reference(in.kind)) {
        log->ref_diff = max_abs_diff(r.image, in.reference);
      }
    }
    if (spans_) {
      const int root = spans_->add(std::string("request.") + kind_name(in.kind),
                                   log->t.due * 1e6, log->t.done * 1e6, -1,
                                   number + 1, 0);
      if (log->t.lag() > 0) {
        spans_->add("loadgen.lag", log->t.due * 1e6, log->t.sent * 1e6, root,
                    number + 1, 0);
      }
      spans_->add("serve.submit", log->t.sent * 1e6, log->submitted * 1e6, root,
                  number + 1, 0);
      spans_->add("serve.await", log->submitted * 1e6, log->t.done * 1e6, root,
                  number + 1, 0);
    }
  }

  const Workload& w_;
  const std::vector<Input>& inputs_;
  serve::Session session_;
  SpanLog* spans_;
  size_t next_ = 0;  // next pool entry to send
};

// Seed of the open-loop arrival schedule. It is fixed, not the workload
// seed: every run offers the same Poisson burst pattern, so run-to-run
// spread measures the receiver rather than which seed happened to bunch
// arrivals around a tiled request. The workload seed varies the images.
constexpr uint64_t kScheduleSeed = 0x5C4ED;

// Runs the workload's load shape for `seconds`.
PhaseResult run_phase(const Workload& w, const std::vector<Input>& inputs,
                      serve::ReceiverServer& server, double seconds,
                      SpanLog* spans) {
  LoadGenerator d(w, inputs, server.open_session(), spans);
  if (w.in_flight > 0) return d.closed(seconds);
  return d.open(poisson_schedule(kScheduleSeed, w.rate, seconds), seconds);
}

// Warm-up before any measured window. Where requests can batch, every
// worker's model replica first runs each batch size once, through
// ReceiverServer::worker_model, so every replica has compiled the plan and
// holds the arena of every shape before timing starts. Left to the load,
// which shapes a worker happened to see varied from run to run and moved
// the peak RSS in steps of one arena. Then the load itself runs for
// `seconds`.
void warm_up(const Workload& w, const std::vector<Input>& inputs,
             serve::ReceiverServer& server, double seconds) {
  if (w.in_flight != 1) {
    std::vector<const jpeg::CoeffImage*> batch;
    for (const Input& in : inputs) {
      if (in.kind == Kind::kFinal) batch.push_back(&in.coeffs);
    }
    nn::ThreadPool pool(1);
    nn::PoolBinding binding(&pool);
    for (int worker = 0; worker < w.cfg.workers; ++worker) {
      for (int n = 1; n <= w.cfg.max_batch; ++n) {
        server.worker_model(worker).reconstruct_batch(
            std::vector<const jpeg::CoeffImage*>(batch.begin(), batch.begin() + n),
            w.cfg.recon);
      }
    }
  }
  run_phase(w, inputs, server, seconds, nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end summary of one phase.

struct Summary {
  size_t attempted = 0;
  size_t answered = 0;
  size_t complete = 0;
  size_t degraded = 0;
  size_t failed = 0;  // kRejected or no terminal result
  std::vector<double> latency_ms;  // all answered requests, in send order
  std::map<std::string, std::vector<double>> latency_ms_by_kind;
  std::vector<double> lag_ms;
  double images_per_s = 0;
  double cpu_ms_per_image = 0;
  double psnr_db = 0;
  double naive_psnr_db = 0;
  double max_ref_diff = 0;
  size_t ref_checked = 0;
  std::vector<std::string> errors;  // failed correctness checks
};

Summary summarize(const Workload& w, const std::vector<Input>& inputs,
                  const PhaseResult& ph) {
  Summary s;
  size_t answered_in_window = 0;
  double psnr_sum = 0, naive_sum = 0;
  for (const RequestLog& log : ph.logs) {
    ++s.attempted;
    if (!log.terminal) {
      ++s.failed;
      s.errors.push_back("a request got no terminal result");
      continue;
    }
    if (!log.single_terminal) {
      s.errors.push_back("a request got more than one terminal result");
    }
    if (w.in_flight == 0) s.lag_ms.push_back(log.t.lag() * 1e3);
    if (log.outcome == serve::Outcome::kRejected) {
      ++s.failed;
      continue;
    }
    ++s.answered;
    if (log.outcome == serve::Outcome::kComplete) ++s.complete;
    if (log.outcome == serve::Outcome::kDegraded) ++s.degraded;
    if (!log.size_ok) {
      s.errors.push_back("an answered image does not match its input's size");
    }
    if (log.t.done <= ph.end) ++answered_in_window;
    s.latency_ms.push_back(log.t.latency() * 1e3);
    const bool large = inputs[static_cast<size_t>(log.input)].original.width() > 64;
    s.latency_ms_by_kind[std::string(kind_name(log.kind)) + (large ? " 128px" : "")]
        .push_back(log.t.latency() * 1e3);
    psnr_sum += log.psnr;
    naive_sum += inputs[static_cast<size_t>(log.input)].naive_psnr;
    if (log.ref_diff >= 0) {
      ++s.ref_checked;
      s.max_ref_diff = std::max(s.max_ref_diff, log.ref_diff);
    }
  }
  s.images_per_s =
      static_cast<double>(answered_in_window) / (ph.end - ph.start);
  if (s.answered > 0) {
    s.cpu_ms_per_image = ph.cpu_seconds * 1e3 / static_cast<double>(s.answered);
    s.psnr_db = psnr_sum / static_cast<double>(s.answered);
    s.naive_psnr_db = naive_sum / static_cast<double>(s.answered);
  }
  if (s.max_ref_diff > 1e-4) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "served output differs from reconstruct_batch by %.3g (> 1e-4)",
                  s.max_ref_diff);
    s.errors.push_back(buf);
  }
  if (s.attempted == 0) s.errors.push_back("no request was sent");
  if (s.answered == 0) s.errors.push_back("no request was answered");
  return s;
}

// ---------------------------------------------------------------------------
// Layer replay: each layer's public function timed on this workload's own
// inputs and batch sizes, on a thread pool of the workload's per-worker size.

// Median wall time (seconds) of `fn` over `reps` calls after one warm call.
double time_median(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> t;
  t.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

// Median per-call time of a cheap `fn`, timed in batches of `inner` calls.
double time_median_fast(int inner, const std::function<void()>& fn) {
  return time_median(15, [&] {
           for (int i = 0; i < inner; ++i) fn();
         }) /
         inner;
}

class Replay {
 public:
  explicit Replay(SpanLog* spans) : spans_(spans) {}

  // Times `fn` (median seconds) and records one span covering the timing.
  double timed(const std::string& name, int reps,
               const std::function<void()>& fn) {
    const double t0 = now_s();
    const double v = time_median(reps, fn);
    if (spans_) spans_->add("replay." + name, t0 * 1e6, now_s() * 1e6, -1, 0, 2);
    return v;
  }
  double timed_fast(const std::string& name, int inner,
                    const std::function<void()>& fn) {
    const double t0 = now_s();
    const double v = time_median_fast(inner, fn);
    if (spans_) spans_->add("replay." + name, t0 * 1e6, now_s() * 1e6, -1, 0, 2);
    return v;
  }

 private:
  SpanLog* spans_;
};

std::vector<float> seeded_floats(size_t n, uint64_t seed) {
  SeededRng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return v;
}

void replay_layers(const Workload& w, const std::vector<Input>& inputs,
                   const core::DCDiffModel& model, SpanLog* spans,
                   std::map<std::string, double>* out) {
  auto& m = *out;
  const int threads_per_worker =
      std::max(1, w.cfg.pool_threads / std::max(1, w.cfg.workers));
  nn::ThreadPool pool(threads_per_worker);
  nn::PoolBinding bind(&pool);
  Replay rp(spans);

  std::vector<const Input*> plain, cm, tiled;
  for (const Input& in : inputs) {
    if (in.kind == Kind::kTiled) tiled.push_back(&in);
    else if (in.kind == Kind::kCm) cm.push_back(&in);
    else plain.push_back(&in);
  }
  const bool anytime = w.in_flight == 0;  // only the open-loop mix uses it

  // jpeg: entropy decode and x-tilde of the workload's Huffman inputs.
  size_t k = 0;
  m["jpeg.decode_us"] = rp.timed_fast("jpeg.decode", 20, [&] {
    jpeg::CoeffImage ci;
    if (!jpeg::try_decode_jfif(plain[k++ % plain.size()]->bytes, &ci).is_ok())
      throw std::runtime_error("replay decode failed");
  }) * 1e6;
  m["jpeg.tilde_us"] = rp.timed_fast("jpeg.tilde", 20, [&] {
    Image t = jpeg::tilde_image(plain[k++ % plain.size()]->coeffs);
    if (t.empty()) throw std::runtime_error("replay tilde failed");
  }) * 1e6;
  m["jpeg.decode_cm_us"] = 0;
  if (!cm.empty()) {
    m["jpeg.decode_cm_us"] = rp.timed_fast("jpeg.decode_cm", 10, [&] {
      jpeg::CoeffImage ci;
      if (!jpeg::try_decode_jfif(cm[k++ % cm.size()]->bytes, &ci).is_ok())
        throw std::runtime_error("replay cm decode failed");
    }) * 1e6;
  }

  // core: planned reconstruct_batch at the served batch sizes.
  std::vector<const jpeg::CoeffImage*> b1 = {&plain[0]->coeffs};
  std::vector<const jpeg::CoeffImage*> b4;
  for (size_t i = 0; i < 4; ++i) b4.push_back(&plain[i % plain.size()]->coeffs);
  const int reps = w.toy ? 15 : 5;
  const double t_n1 = rp.timed("core.reconstruct.n1", reps,
                               [&] { model.reconstruct_batch(b1); });
  const double t_n4 = rp.timed("core.reconstruct.n4", reps,
                               [&] { model.reconstruct_batch(b4); });
  m["core.reconstruct_ms.n1"] = t_n1 * 1e3;
  m["core.reconstruct_ms.n4"] = t_n4 * 1e3;

  // Split of the planned forward at the workload's batch size: the full step
  // count against one DDIM step gives the per-step cost and the remainder.
  const bool batched = w.in_flight != 1;
  const auto& bn = batched ? b4 : b1;
  const int steps = model.config().ddim_steps;
  core::ReconstructOptions one_step;
  one_step.ddim_steps = 1;
  const double t_1 = rp.timed("core.reconstruct.one_step", reps,
                              [&] { model.reconstruct_batch(bn, one_step); });
  const double t_full = batched ? t_n4 : t_n1;
  const double step = steps > 1 ? (t_full - t_1) / (steps - 1) : t_full;
  m["core.ddim_step_ms"] = step * 1e3;
  m["core.fixed_ms"] = (t_1 - step) * 1e3;

  // core: the eager anytime path and its partial decodes (open-loop mix).
  m["core.anytime_step_ms"] = 0;
  m["core.partial_decode_ms"] = 0;
  if (anytime) {
    std::vector<core::AnytimeItem> items;
    for (const jpeg::CoeffImage* c : bn) items.push_back({c, 0, 0});
    std::vector<double> step_gaps;
    core::AnytimeControl plain_ctrl;
    double last = 0;
    plain_ctrl.on_step = [&](int done, int) {
      const double t = now_s();
      if (done > 1) step_gaps.push_back(t - last);
      last = t;
      return core::AnytimeControl::Action::kContinue;
    };
    const double t_plain = rp.timed("core.anytime", 3, [&] {
      last = now_s();
      model.reconstruct_batch_anytime(items, core::ReconstructOptions{},
                                      plain_ctrl);
    });
    m["core.anytime_step_ms"] = median(step_gaps) * 1e3;
    int emitted = 0;
    core::AnytimeControl emit_ctrl;
    emit_ctrl.on_step = [&](int done, int total) {
      if (done < total) {
        ++emitted;
        return core::AnytimeControl::Action::kEmitPartial;
      }
      return core::AnytimeControl::Action::kContinue;
    };
    emit_ctrl.on_partial = [](int, Image, int, double) {};
    const double t_emit = rp.timed("core.anytime_partials", 3, [&] {
      model.reconstruct_batch_anytime(items, core::ReconstructOptions{},
                                      emit_ctrl);
    });
    const int per_call = std::max(1, steps - 1);
    m["core.partial_decode_ms"] = (t_emit - t_plain) / per_call * 1e3;
  }

  // core: receiver postprocess (corner anchoring + known-AC projection).
  {
    const Input& in = *plain[0];
    const Image rec = model.reconstruct_batch(b1)[0];
    const Image tilde = jpeg::tilde_image(in.coeffs);
    m["core.postprocess_ms"] = rp.timed("core.postprocess", 30, [&] {
      const Image a = core::anchor_to_corners(rec, tilde);
      const Image p = core::project_onto_known_ac(a, in.coeffs);
      if (p.empty()) throw std::runtime_error("replay postprocess failed");
    }) * 1e3;
  }

  // core: plan compile = first call on a fresh replica (fresh plan cache,
  // shared weights and panels) minus a warm call.
  {
    std::vector<double> compile;
    auto shared = std::shared_ptr<const core::DCDiffModel>(
        &model, [](const core::DCDiffModel*) {});
    const double t0 = now_s();
    for (int i = 0; i < 3; ++i) {
      auto replica = core::DCDiffModel::replicate(shared);
      const double a = now_s();
      replica->reconstruct_batch(b1);
      const double first = now_s() - a;
      const double warm = time_median(2, [&] { replica->reconstruct_batch(b1); });
      compile.push_back(first - warm);
    }
    if (spans) spans->add("replay.core.plan_compile", t0 * 1e6, now_s() * 1e6, -1, 0, 2);
    m["core.plan_compile_ms"] = median(compile) * 1e3;
  }

  // nn: the 2-thread intra-op pool. Dispatch cost of an empty two-range
  // loop, and the pool's busy share while it runs the batch-1 forward.
  {
    nn::ThreadPool p2(2);
    const std::function<void(int64_t, int64_t)> noop = [](int64_t, int64_t) {};
    m["nn.dispatch_us.t2"] =
        rp.timed_fast("nn.dispatch", 200, [&] { p2.parallel_ranges(2, noop); }) *
        1e6;
    nn::PoolBinding bind2(&p2);
    model.reconstruct_batch(b1);
    const double busy0 = p2.busy_seconds();
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) model.reconstruct_batch(b1);
    const double wall = now_s() - t0;
    if (spans) spans->add("replay.nn.pool_t2", t0 * 1e6, now_s() * 1e6, -1, 0, 2);
    m["nn.pool_busy_share"] = (p2.busy_seconds() - busy0) / (wall * 2);
  }

  // nn: GEMM, conv2d and group norm at the default model's shapes, batch =
  // the workload's images per model call (x ensemble for UNet layers).
  const int images = batched ? 4 : 1;
  const int ensemble = std::max(1, model.config().sample_ensemble);
  for (const ConvShape& s : conv_shapes()) {
    const int64_t mm = s.f, kk = static_cast<int64_t>(s.c) * 9,
                  nn_ = static_cast<int64_t>(s.hw) * s.hw;
    const auto a = seeded_floats(static_cast<size_t>(mm * kk), 1);
    const auto b = seeded_floats(static_cast<size_t>(kk * nn_), 2);
    std::vector<float> c(static_cast<size_t>(mm * nn_));
    const double t = rp.timed_fast(std::string("nn.gemm.") + s.tag, 20, [&] {
      nn::gemm(false, false, mm, nn_, kk, a.data(), kk, b.data(), nn_, 0.0f,
               c.data(), nn_);
    });
    m[std::string("nn.gemm_gflops.") + s.tag] = 2.0 * mm * nn_ * kk / t * 1e-9;
  }
  for (const ConvShape& s : conv_shapes()) {
    const int n = s.unet ? images * ensemble : images;
    const size_t in_n = static_cast<size_t>(n) * s.c * s.hw * s.hw;
    const size_t out_n = static_cast<size_t>(n) * s.f * s.hw * s.hw;
    const size_t w_n = static_cast<size_t>(s.f) * s.c * 9;
    const auto x = seeded_floats(in_n, 3);
    const auto wt = seeded_floats(w_n, 4);
    const auto bias = seeded_floats(static_cast<size_t>(s.f), 5);
    std::vector<float> col(static_cast<size_t>(s.c) * 9 * s.hw * s.hw);
    std::vector<float> y(out_n);
    const nn::PackedA packed(false, s.f, static_cast<int64_t>(s.c) * 9, wt.data(),
                             static_cast<int64_t>(s.c) * 9);
    const double t = rp.timed_fast(std::string("nn.conv2d.") + s.tag, 10, [&] {
      nn::plan::k_conv2d(x.data(), n, s.c, s.hw, s.hw, packed, s.f, 3, 3, 1, 1,
                         s.hw, s.hw, bias.data(), col.data(), y.data());
    });
    // Bytes moved, computed from tensor sizes: input, weights and bias
    // read, output written.
    const double bytes = 4.0 * static_cast<double>(in_n + w_n + s.f + out_n);
    m[std::string("nn.conv2d_us.") + s.tag] = t * 1e6;
    m[std::string("nn.conv2d_gbps.") + s.tag] = bytes / t * 1e-9;
  }
  for (const ConvShape& s : norm_shapes()) {
    const int n = s.unet ? images * ensemble : images;
    const size_t inner = static_cast<size_t>(s.hw) * s.hw;
    const size_t count = static_cast<size_t>(n) * s.c * inner;
    auto x = seeded_floats(count, 6);
    const auto gamma = seeded_floats(static_cast<size_t>(s.c), 7);
    const auto beta = seeded_floats(static_cast<size_t>(s.c), 8);
    std::vector<float> y(count);
    const double t = rp.timed_fast(std::string("nn.group_norm.") + s.tag, 20, [&] {
      nn::plan::k_group_norm(x.data(), gamma.data(), beta.data(), y.data(), n,
                             s.c, 8, inner, 1e-5f);
    });
    const double bytes = 4.0 * static_cast<double>(2 * count + 2 * s.c);
    m[std::string("nn.group_norm_us.") + s.tag] = t * 1e6;
    m[std::string("nn.group_norm_gbps.") + s.tag] = bytes / t * 1e-9;
  }

  // serve: tile planning waste and stitching of the workload's large inputs.
  m["serve.stitch_ms"] = 0;
  m["serve.tile_work_ratio"] = 0;
  if (!tiled.empty()) {
    serve::TilePolicy policy;
    policy.max_tile_px = w.max_tile_px;
    const Input& in = *tiled[0];
    const serve::TileLayout layout = serve::plan_tiles(in.coeffs, policy);
    double crop_area = 0;
    std::vector<Image> tile_images;
    for (const serve::TileSpec& t : layout.tiles) {
      crop_area += static_cast<double>(t.cx1 - t.cx0) * (t.cy1 - t.cy0);
      tile_images.push_back(
          jpeg::inverse_transform(serve::extract_tile(in.coeffs, t)));
    }
    m["serve.tile_work_ratio"] =
        crop_area / (static_cast<double>(in.coeffs.width) * in.coeffs.height);
    m["serve.stitch_ms"] = rp.timed("serve.stitch", 10, [&] {
      const Image img = serve::stitch_tiles(in.coeffs, layout, tile_images);
      if (img.empty()) throw std::runtime_error("replay stitch failed");
    }) * 1e3;
  }
}

// ---------------------------------------------------------------------------
// Output.

std::string fmt_value(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

std::string dcdiff_env_json() {
  std::string o = "{";
  bool first = true;
  for (char** e = environ; e && *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("DCDIFF_", 0) != 0) continue;
    const size_t eq = kv.find('=');
    o += std::string(first ? "" : ",") + "\"" + json_escape(kv.substr(0, eq)) +
         "\":\"" + json_escape(kv.substr(eq + 1)) + "\"";
    first = false;
  }
  return o + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool prepare = false;
  bool list = false;
  std::string cache_dir;
  std::string report;
  std::string trace_out;
  double min_psnr_gain_db = 0;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val()) != 0;
    else if (k == "--cache-dir") a.cache_dir = val();
    else if (k == "--report") a.report = val();
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--min-psnr-gain-db") a.min_psnr_gain_db = std::stod(val());
    else if (k == "--git-sha") a.git_sha = val();
    else if (k == "--source-digest") a.source_digest = val();
    else if (k == "--prepare") a.prepare = true;
    else if (k == "--list-metrics") a.list = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

// One server: built from a freshly loaded model, timed to its first answer.
struct Setup {
  std::shared_ptr<const core::DCDiffModel> model;
  std::unique_ptr<serve::ReceiverServer> server;
  double seconds = 0;
};

Setup set_up(const Workload& w, const std::vector<Input>& inputs) {
  const Input* first = nullptr;
  for (const Input& in : inputs) {
    if (in.kind == Kind::kFinal) {
      first = &in;
      break;
    }
  }
  Setup s;
  const double t0 = now_s();
  s.model = load_model(w.toy ? toy_config() : core::DCDiffConfig{});
  s.server = std::make_unique<serve::ReceiverServer>(w.cfg, s.model);
  const serve::Result r = s.server->open_session().reconstruct(make_request(w, *first));
  s.seconds = now_s() - t0;
  if (r.outcome != serve::Outcome::kComplete) {
    throw std::runtime_error("setup request failed: " + r.status.to_string());
  }
  return s;
}

int run(const Args& args) {
  // Wall time of each part of the run, printed for whoever budgets run time.
  std::vector<std::pair<const char*, double>> phases;
  double phase_t0 = now_s();
  const auto phase_done = [&](const char* name) {
    const double t = now_s();
    phases.emplace_back(name, t - phase_t0);
    phase_t0 = t;
  };
  const Workload w = make_workload(args.workload);
  std::vector<Input> inputs = make_inputs(w, args.seed);
  phase_done("inputs");

  // Set-up, seven times; the median is setup_s and the last server serves.
  std::vector<double> setups;
  Setup s;
  const int setup_reps = args.trace ? 1 : 7;
  for (int i = 0; i < setup_reps; ++i) {
    s = Setup{};  // the previous server stops before the next one is timed
    s = set_up(w, inputs);
    setups.push_back(s.seconds);
  }
  phase_done("setup");
  // References for the final-only outputs, computed by the model directly,
  // one image per call so no plan shape the server would not compile
  // (and no arena it would not hold) enters the peak RSS. They run on one
  // thread, like the serving workers; a multi-thread pool only adds
  // dispatch stalls on a shared host.
  {
    nn::ThreadPool ref_pool(1);
    nn::PoolBinding ref_binding(&ref_pool);
    for (Input& in : inputs) {
      if (!checks_reference(in.kind)) continue;
      in.reference = s.model->reconstruct_batch(
          std::vector<const jpeg::CoeffImage*>{&in.coeffs}, w.cfg.recon)[0];
    }
  }
  phase_done("references");

  const double warm_s = 1.0;
  std::map<std::string, double> values;
  std::vector<std::string> errors;
  Summary main;
  PhaseResult measured;  // the window the metrics come from, for the report
  std::map<std::string, size_t> samples;  // sample count per printed metric

  const auto record_errors = [&](const Summary& sm, const char* phase) {
    for (const std::string& e : sm.errors) errors.push_back(std::string(phase) + ": " + e);
  };

  if (!args.trace) {
    warm_up(w, inputs, *s.server, warm_s);
    phase_done("warm-up");
    measured = run_phase(w, inputs, *s.server, args.seconds, nullptr);
    const PhaseResult& ph = measured;
    phase_done("window");
    const double rss = peak_rss_mb();
    main = summarize(w, inputs, ph);
    record_errors(main, "run");
    const double n = static_cast<double>(std::max<size_t>(1, main.attempted));
    values["setup_s"] = median(setups);
    values["latency_p50_ms"] = grouped_percentile(main.latency_ms, 50);
    values["latency_p90_ms"] = grouped_percentile(main.latency_ms, 90);
    values["images_per_s"] = main.images_per_s;
    values["cpu_ms_per_image"] = main.cpu_ms_per_image;
    values["peak_rss_mb"] = rss;
    values["psnr_db"] = main.psnr_db;
    values["complete_share"] = static_cast<double>(main.complete) / n;
    values["answered_share"] = static_cast<double>(main.answered) / n;
    samples["setup_s"] = setups.size();
    for (const char* k : {"latency_p50_ms", "latency_p90_ms", "psnr_db"})
      samples[k] = main.latency_ms.size();
    for (const char* k : {"images_per_s", "cpu_ms_per_image", "complete_share",
                          "answered_share"})
      samples[k] = main.attempted;
    samples["peak_rss_mb"] = 1;
    // Quality floor: the served default model must beat a naive DC-less
    // decode of the same inputs by the recorded margin.
    if (!w.toy && main.answered > 0 &&
        main.psnr_db - main.naive_psnr_db < args.min_psnr_gain_db) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "quality floor: served %.3f dB vs naive DC-less %.3f dB, "
                    "gain below %.3f dB",
                    main.psnr_db, main.naive_psnr_db, args.min_psnr_gain_db);
      errors.push_back(buf);
    }
    std::printf("quality: served %.3f dB, naive DC-less decode %.3f dB, gain %.3f dB\n",
                main.psnr_db, main.naive_psnr_db, main.psnr_db - main.naive_psnr_db);
    std::printf("outcomes: attempted %zu, complete %zu, degraded %zu, failed %zu "
                "(degraded_share %.4f, failed_share %.4f); reference-checked %zu, "
                "max diff %.3g\n",
                main.attempted, main.complete, main.degraded, main.failed,
                static_cast<double>(main.degraded) / n,
                static_cast<double>(main.failed) / n, main.ref_checked,
                main.max_ref_diff);
    for (const auto& [kind, lat] : main.latency_ms_by_kind) {
      std::printf("latency %-12s n=%-5zu p50 %8.2f ms  p90 %8.2f ms\n",
                  kind.c_str(), lat.size(), nearest_rank(lat, 50),
                  nearest_rank(lat, 90));
    }
    s.server->shutdown();
  } else {
    SpanLog spans;
    serve::ReceiverServer& server = *s.server;
    // Untraced half: the baseline of the tracing overhead.
    warm_up(w, inputs, server, warm_s);
    const PhaseResult plain = run_phase(w, inputs, server, args.seconds / 2, nullptr);
    const Summary ps = summarize(w, inputs, plain);
    record_errors(ps, "untraced");

    // Traced half; the server's counters are read as deltas over it.
    const serve::ReceiverServer::Stats before = server.stats();
    measured = run_phase(w, inputs, server, args.seconds / 2, &spans);
    const PhaseResult& traced = measured;
    const serve::ReceiverServer::Stats after = server.stats();
    const std::vector<obs::RequestRecord> records =
        server.flight_recorder().snapshot();
    server.shutdown();
    main = summarize(w, inputs, traced);
    record_errors(main, "traced");

    // Server-side stages of the traced phase, from the flight recorder.
    std::vector<double> queue_ms, model_ms;
    std::set<std::pair<int, double>> batches;
    size_t executed = 0;
    for (const obs::RequestRecord& r : records) {
      if (r.submit_us < traced.start * 1e6) continue;
      const int root = spans.add("server.request", r.submit_us, r.done_us, -1,
                                 r.request_id, 1);
      spans.add("server.queue", r.route_us, r.batch_us, root, r.request_id, 1);
      spans.add("server.batch", r.batch_us, r.model_us, root, r.request_id, 1);
      spans.add("server.model", r.model_us, r.done_us, root, r.request_id, 1);
      if (r.tiled) continue;  // tile sub-requests and stitched parents
      queue_ms.push_back((r.batch_us - r.route_us) * 1e-3);
      model_ms.push_back((r.done_us - r.model_us) * 1e-3);
      batches.insert({r.worker, r.model_us});
      ++executed;
    }
    const double accepted =
        static_cast<double>(std::max<uint64_t>(1, after.accepted - before.accepted));
    size_t progressive = 0, partials = 0;
    for (const RequestLog& log : traced.logs) {
      if (log.kind != Kind::kProgressive) continue;
      ++progressive;
      partials += static_cast<size_t>(log.partials);
    }
    values["serve.queue_wait_ms"] = queue_ms.empty() ? 0 : median(queue_ms);
    values["serve.batch_size_mean"] =
        batches.empty() ? 0 : static_cast<double>(executed) / batches.size();
    values["serve.steals_per_100"] =
        100.0 * static_cast<double>(after.steals - before.steals) / accepted;
    values["serve.governor_sheds_per_100"] =
        100.0 * static_cast<double>(after.governor_sheds - before.governor_sheds) /
        accepted;
    values["serve.partials_per_request"] =
        progressive == 0 ? 0
                         : static_cast<double>(partials) /
                               static_cast<double>(progressive);
    values["serve.overhead_ms"] =
        main.latency_ms.empty() || model_ms.empty()
            ? 0
            : median(main.latency_ms) - median(model_ms);
    values["nn.plan.arena_mb"] = obs::gauge("plan.arena_bytes").value() / 1e6;
    const double p50_plain = grouped_percentile(ps.latency_ms, 50);
    values["obs.trace_overhead_pct"] =
        (grouped_percentile(main.latency_ms, 50) - p50_plain) / p50_plain * 100.0;
    values["loadgen.lag_p90_ms"] =
        ps.lag_ms.empty() ? 0 : nearest_rank(ps.lag_ms, 90);

    phase_done("serve");
    replay_layers(w, inputs, *s.model, &spans, &values);
    phase_done("replay");
    for (const MetricDef& d : per_layer_metrics()) samples[d.name] = 1;
    if (!args.trace_out.empty() && !spans.write(args.trace_out)) {
      errors.push_back("cannot write spans to " + args.trace_out);
    }
  }

  // Report: provenance first, then the human-readable table, then the one
  // JSON line the harness reads.
  const std::vector<MetricDef>& defs =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics_json = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end() || !std::isfinite(it->second)) {
      errors.push_back("metric not measured: " + defs[i].name);
    }
    const double v = it == values.end() ? NAN : it->second;
    std::printf("  %-30s %14.4f %-8s n=%zu\n", defs[i].name.c_str(), v,
                defs[i].unit.c_str(), samples[defs[i].name]);
    metrics_json += std::string(i ? "," : "") + "\"" + defs[i].name +
                    "\":{\"value\":" + fmt_value(v) + ",\"unit\":\"" +
                    defs[i].unit + "\"}";
  }
  metrics_json += "}";
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("phases:");
  for (const auto& [name, secs] : phases) std::printf(" %s %.2f s", name, secs);
  std::printf("\n");

  std::ostringstream prov;
  prov << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
       << ",\"seconds\":" << args.seconds << ",\"trace\":" << (args.trace ? 1 : 0)
       << ",\"git_sha\":\"" << json_escape(args.git_sha)
       << "\",\"source_digest\":\"" << json_escape(args.source_digest)
       << "\",\"build_type\":\"" << RXBENCH_BUILD_TYPE
       << "\",\"fault_injection\":" << RXBENCH_FAULT_INJECTION
       << ",\"nproc\":" << online_cpus()
       << ",\"model\":\"" << (w.toy ? "quickfast" : "default")
       << "\",\"server_config\":" << server_config_json(w.cfg)
       << ",\"open_loop_rate\":" << w.rate << ",\"in_flight\":" << w.in_flight
       << ",\"large_every\":" << w.large_every
       << ",\"dcdiff_env\":" << dcdiff_env_json() << "}";
  std::printf("provenance: %s\n", prov.str().c_str());

  const bool correct = errors.empty();
  char head[128];
  std::snprintf(head, sizeof head, "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,",
                correct ? "true" : "false", main.attempted, main.failed);
  const std::string result = std::string(head) + "\"metrics\":" + metrics_json + "}";
  if (!args.report.empty()) {
    std::ofstream f(args.report);
    // Every request of the measured window, times in ms from its start.
    f << "{\"provenance\":" << prov.str() << ",\"result\":" << result
      << ",\"requests\":[";
    for (size_t i = 0; i < measured.logs.size(); ++i) {
      const RequestLog& r = measured.logs[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"kind\":\"%s\",\"due\":%.3f,\"sent\":%.3f,"
                    "\"done\":%.3f,\"outcome\":\"%s\",\"partials\":%d}",
                    i ? "," : "", kind_name(r.kind),
                    (r.t.due - measured.start) * 1e3,
                    (r.t.sent - measured.start) * 1e3,
                    (r.t.done - measured.start) * 1e3,
                    r.terminal ? serve::outcome_name(r.outcome) : "none",
                    r.partials);
      f << buf;
    }
    f << "]}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
      for (const MetricDef& d : *defs) {
        if (!rxbench::valid_metric_name(d.name) || !rxbench::valid_unit(d.unit)) {
          throw std::logic_error("metric name or unit breaks the charset: " +
                                 d.name + " " + d.unit);
        }
      }
    }
    if (args.list) {
      for (const MetricDef& d : end_to_end_metrics())
        std::printf("end_to_end %s %s\n", d.name.c_str(), d.unit.c_str());
      for (const MetricDef& d : per_layer_metrics())
        std::printf("per_layer %s %s\n", d.name.c_str(), d.unit.c_str());
      return 0;
    }
    if (args.cache_dir.empty()) throw std::invalid_argument("--cache-dir is required");
    setenv("DCDIFF_CACHE_DIR", args.cache_dir.c_str(), 1);
    if (args.prepare) {
      for (const core::DCDiffConfig& cfg : {core::DCDiffConfig{}, toy_config()}) {
        core::DCDiffModel m(cfg);
        m.train_or_load();
      }
      return 0;
    }
    if (std::string(RXBENCH_BUILD_TYPE) != "Release" || RXBENCH_FAULT_INJECTION) {
      std::fprintf(stderr,
                   "rxbench: refusing to report from a %s build%s; "
                   "configure Release without DCDIFF_FAULT_INJECTION\n",
                   RXBENCH_BUILD_TYPE,
                   RXBENCH_FAULT_INJECTION ? " with fault injection" : "");
      return 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rxbench: %s\n", e.what());
    return 2;
  }
}
