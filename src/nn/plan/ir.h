// Static inference-plan IR: a flat SSA operator graph over tensor ids.
//
// A Graph is captured once per (model, shape) combination by the capture
// methods on the nn/core modules (see GraphBuilder), then compiled into a
// Plan: a fusion pass merges adjacent conv/groupnorm/activation ops, a
// liveness pass assigns every intermediate a slice of one preplanned arena,
// and weight references are resolved to raw pointers (and PackedA panels)
// up front. Executing the plan then touches no allocator, no autograd tape,
// and no shape logic: plans and arenas are allocated once, then reused.
//
// Every kernel the executor runs keeps the per-element arithmetic of the
// corresponding eager loop in nn/ops.cpp, and fusion only merges memory
// passes (it never reassociates per-element math). There are three
// documented exceptions, all planned-only (the eager ops, and so
// training, are untouched):
//   1. k_group_norm's mean/variance reduction interleaves four
//      double-precision accumulator chains to hide FP-add latency — a
//      reassociation of double partials whose effect on the fp32 outputs
//      is below measurement in practice.
//   2. SiLU and sigmoid (kernels and fused epilogues) take exp from k_exp,
//      an eight-lane vector exp evaluated in double and rounded to float
//      once, instead of std::exp: within 1 ulp of it, and the same bits
//      for a value at any position (tails run padded through the same
//      code).
//   3. tanh (k_tanh and the fused kTanh epilogue, the AE decoder's last
//      op) is an eight-lane vector tanh built on the same exp core:
//      e / (e + 2) with e = expm1(2|x|) in double, the sign copied back,
//      rounded to float once, instead of std::tanh. Within 1 ulp of the
//      double tanh rounded to float, and the same bits at any position.
// Tests assert planned == eager to 1e-5; golden_regression pins the
// served outputs.
//
// Conv2d does not run im2col: when the product takes PackedA's blocked
// path, k_conv2d packs each sample's patch matrix straight from NCHW into
// the GEMM micro-kernel's 16-column B panels (nn::im2col_panels) in the
// op's scratch, a cache-sized block of columns at a time, runs
// PackedA::run_panels over them with no pack_b copy, and adds the bias in
// the last K-block's write-out. K-blocking, the FMA
// chain and the (c + acc) + bias order are those of im2col + gemm + a
// bias pass, so conv outputs are bit-identical to it.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/plan/fwd.h"
#include "nn/tensor.h"

namespace dcdiff::nn::plan {

// Where a tensor's storage lives at execution time.
enum class Storage : uint8_t {
  kInput,     // caller-provided buffer, by input ordinal
  kParam,     // a live model weight (Graph::params keeps the node alive)
  kArena,     // intermediate: offset into the plan arena (liveness-assigned)
};

struct TensorInfo {
  std::vector<int> shape;
  size_t numel = 0;
  Storage storage = Storage::kArena;
  // kInput: input ordinal; kParam: params index.
  int index = -1;
  // kArena: offset in floats, assigned by plan_memory().
  size_t offset = 0;
};

enum class OpKind : uint8_t {
  kConv2d,         // in: x, w[, b][, gamma, beta when fused_gn]; i0=stride,
                   // i1=pad, i2=has_bias; fused_gn: i3=groups, f0=eps
  kLinear,         // in: x, w[, b]; i2=has_bias
  kGroupNorm,      // in: x, gamma, beta; i0=groups, f0=eps
  kSiLU,
  kRelu,
  kTanh,
  kSigmoid,
  kClamp,          // f0=lo, f1=hi
  kAdd,
  kSub,
  kScale,          // f0=s
  kAddSampleChannelBias,  // in: x (N,C,H,W), b (N,C)
  kMulPerSample,   // in: x, s (N)
  kConcatChannels,
  kSliceChannels,  // i0=c0, i1=c1
  kReshape,        // copy with new shape
  kAvgPool2d,      // i0=k (stride == k)
  kGlobalAvgPool,
  kUpsample2x,
  kRepeatBatch,    // i0=k; [s0 x k, s1 x k, ...]
  kEnsembleMean,   // i0=n, i1=e; row i = mean of rows [i*e, (i+1)*e)
};

// Elementwise epilogue applied in-place to an op's output (fusion only).
enum class PostOp : uint8_t { kNone, kSiLU, kRelu, kTanh, kSigmoid };

struct Op {
  OpKind kind;
  PostOp post = PostOp::kNone;
  bool fused_gn = false;  // kConv2d only: group-norm epilogue before `post`
  std::vector<TensorId> in;
  TensorId out = kNoTensor;
  int i0 = 0, i1 = 0, i2 = 0, i3 = 0;
  float f0 = 0.0f, f1 = 0.0f;
  // Conv patch scratch (nn::panel_floats(kdim, npix) floats, per-sample:
  // kdim * npix when npix % 16 == 0), arena-assigned by plan_memory(); 0
  // floats for 1x1 stride-1 unpadded convs.
  size_t scratch_off = 0;
  size_t scratch_floats = 0;
};

struct Graph {
  std::vector<TensorInfo> tensors;
  std::vector<Op> ops;
  std::vector<TensorId> outputs;
  // Keep-alive handles for kParam tensors; TensorInfo::index indexes here.
  std::vector<Tensor> params;
  int num_inputs = 0;
};

}  // namespace dcdiff::nn::plan
