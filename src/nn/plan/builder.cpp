#include "nn/plan/builder.h"

#include <stdexcept>
#include <utility>

namespace dcdiff::nn::plan {
namespace {

int conv_out_dim(int in, int k, int stride, int pad) {
  return (in + 2 * pad - k) / stride + 1;
}

}  // namespace

TensorId GraphBuilder::add_tensor(std::vector<int> shape, Storage storage,
                                  int index) {
  TensorInfo info;
  info.numel = shape_numel(shape);
  info.shape = std::move(shape);
  info.storage = storage;
  info.index = index;
  g_->tensors.push_back(std::move(info));
  return static_cast<TensorId>(g_->tensors.size() - 1);
}

TensorId GraphBuilder::input(std::vector<int> shape) {
  return add_tensor(std::move(shape), Storage::kInput, g_->num_inputs++);
}

TensorId GraphBuilder::param(const Tensor& t) {
  if (!t.defined()) return kNoTensor;
  auto it = param_ids_.find(t.node().get());
  if (it != param_ids_.end()) return it->second;
  g_->params.push_back(t);
  const TensorId id = add_tensor(t.shape(), Storage::kParam,
                                 static_cast<int>(g_->params.size() - 1));
  param_ids_.emplace(t.node().get(), id);
  return id;
}

void GraphBuilder::mark_output(TensorId id) { g_->outputs.push_back(id); }

const std::vector<int>& GraphBuilder::shape(TensorId id) const {
  return g_->tensors[static_cast<size_t>(id)].shape;
}

int GraphBuilder::dim(TensorId id, int d) const {
  return shape(id)[static_cast<size_t>(d)];
}

int GraphBuilder::ndim(TensorId id) const {
  return static_cast<int>(shape(id).size());
}

size_t GraphBuilder::numel(TensorId id) const {
  return g_->tensors[static_cast<size_t>(id)].numel;
}

TensorId GraphBuilder::emit(Op op, std::vector<int> out_shape) {
  op.out = add_tensor(std::move(out_shape), Storage::kArena, -1);
  const TensorId out = op.out;
  g_->ops.push_back(std::move(op));
  return out;
}

TensorId GraphBuilder::conv2d(TensorId x, const Tensor& w, const Tensor& b,
                              int stride, int pad) {
  if (ndim(x) != 4 || w.ndim() != 4 || dim(x, 1) != w.dim(1)) {
    throw std::invalid_argument("plan conv2d: shape mismatch");
  }
  const int n = dim(x, 0), h = dim(x, 2), ww = dim(x, 3);
  const int f = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int ho = conv_out_dim(h, kh, stride, pad);
  const int wo = conv_out_dim(ww, kw, stride, pad);
  if (ho <= 0 || wo <= 0) {
    throw std::invalid_argument("plan conv2d: empty output");
  }
  if (b.defined() && (b.ndim() != 1 || b.dim(0) != f)) {
    throw std::invalid_argument("plan conv2d: bias mismatch");
  }
  Op op;
  op.kind = OpKind::kConv2d;
  op.i0 = stride;
  op.i1 = pad;
  op.i2 = b.defined() ? 1 : 0;
  op.in = {x, param(w)};
  if (b.defined()) op.in.push_back(param(b));
  return emit(std::move(op), {n, f, ho, wo});
}

TensorId GraphBuilder::linear(TensorId x, const Tensor& w, const Tensor& b) {
  if (ndim(x) != 2 || w.ndim() != 2 || dim(x, 1) != w.dim(1)) {
    throw std::invalid_argument("plan linear: shape mismatch");
  }
  const int n = dim(x, 0), m = w.dim(0);
  if (b.defined() && (b.ndim() != 1 || b.dim(0) != m)) {
    throw std::invalid_argument("plan linear: bias mismatch");
  }
  Op op;
  op.kind = OpKind::kLinear;
  op.i2 = b.defined() ? 1 : 0;
  op.in = {x, param(w)};
  if (b.defined()) op.in.push_back(param(b));
  return emit(std::move(op), {n, m});
}

TensorId GraphBuilder::group_norm(TensorId x, const Tensor& gamma,
                                  const Tensor& beta, int groups, float eps) {
  if (ndim(x) < 2) throw std::invalid_argument("plan group_norm: rank");
  const int c = dim(x, 1);
  if (c % groups) {
    throw std::invalid_argument("plan group_norm: C % groups != 0");
  }
  if (gamma.ndim() != 1 || gamma.dim(0) != c || beta.ndim() != 1 ||
      beta.dim(0) != c) {
    throw std::invalid_argument("plan group_norm: affine shape");
  }
  Op op;
  op.kind = OpKind::kGroupNorm;
  op.i0 = groups;
  op.f0 = eps;
  op.in = {x, param(gamma), param(beta)};
  return emit(std::move(op), shape(x));
}

TensorId GraphBuilder::silu(TensorId a) {
  Op op;
  op.kind = OpKind::kSiLU;
  op.in = {a};
  return emit(std::move(op), shape(a));
}

TensorId GraphBuilder::relu(TensorId a) {
  Op op;
  op.kind = OpKind::kRelu;
  op.in = {a};
  return emit(std::move(op), shape(a));
}

TensorId GraphBuilder::tanh(TensorId a) {
  Op op;
  op.kind = OpKind::kTanh;
  op.in = {a};
  return emit(std::move(op), shape(a));
}

TensorId GraphBuilder::sigmoid(TensorId a) {
  Op op;
  op.kind = OpKind::kSigmoid;
  op.in = {a};
  return emit(std::move(op), shape(a));
}

TensorId GraphBuilder::clamp(TensorId a, float lo, float hi) {
  Op op;
  op.kind = OpKind::kClamp;
  op.f0 = lo;
  op.f1 = hi;
  op.in = {a};
  return emit(std::move(op), shape(a));
}

TensorId GraphBuilder::add(TensorId a, TensorId b) {
  if (shape(a) != shape(b)) throw std::invalid_argument("plan add: shape");
  Op op;
  op.kind = OpKind::kAdd;
  op.in = {a, b};
  return emit(std::move(op), shape(a));
}

TensorId GraphBuilder::sub(TensorId a, TensorId b) {
  if (shape(a) != shape(b)) throw std::invalid_argument("plan sub: shape");
  Op op;
  op.kind = OpKind::kSub;
  op.in = {a, b};
  return emit(std::move(op), shape(a));
}

TensorId GraphBuilder::scale(TensorId a, float s) {
  Op op;
  op.kind = OpKind::kScale;
  op.f0 = s;
  op.in = {a};
  return emit(std::move(op), shape(a));
}

TensorId GraphBuilder::add_sample_channel_bias(TensorId x, TensorId b) {
  if (ndim(x) != 4 || ndim(b) != 2 || dim(b, 0) != dim(x, 0) ||
      dim(b, 1) != dim(x, 1)) {
    throw std::invalid_argument("plan add_sample_channel_bias: shape");
  }
  Op op;
  op.kind = OpKind::kAddSampleChannelBias;
  op.in = {x, b};
  return emit(std::move(op), shape(x));
}

TensorId GraphBuilder::mul_per_sample(TensorId x, TensorId s) {
  if (ndim(s) != 1 || dim(s, 0) != dim(x, 0)) {
    throw std::invalid_argument("plan mul_per_sample: s must be (N)");
  }
  Op op;
  op.kind = OpKind::kMulPerSample;
  op.in = {x, s};
  return emit(std::move(op), shape(x));
}

TensorId GraphBuilder::concat_channels(TensorId a, TensorId b) {
  if (ndim(a) != ndim(b) || ndim(a) < 2) {
    throw std::invalid_argument("plan concat_channels: rank mismatch");
  }
  for (int d = 0; d < ndim(a); ++d) {
    if (d != 1 && dim(a, d) != dim(b, d)) {
      throw std::invalid_argument("plan concat_channels: dim mismatch");
    }
  }
  std::vector<int> out_shape = shape(a);
  out_shape[1] = dim(a, 1) + dim(b, 1);
  Op op;
  op.kind = OpKind::kConcatChannels;
  op.in = {a, b};
  return emit(std::move(op), std::move(out_shape));
}

TensorId GraphBuilder::slice_channels(TensorId a, int c0, int c1) {
  if (ndim(a) < 2 || c0 < 0 || c1 > dim(a, 1) || c0 >= c1) {
    throw std::invalid_argument("plan slice_channels: bad range");
  }
  std::vector<int> out_shape = shape(a);
  out_shape[1] = c1 - c0;
  Op op;
  op.kind = OpKind::kSliceChannels;
  op.i0 = c0;
  op.i1 = c1;
  op.in = {a};
  return emit(std::move(op), std::move(out_shape));
}

TensorId GraphBuilder::reshape(TensorId a, std::vector<int> new_shape) {
  if (shape_numel(new_shape) != numel(a)) {
    throw std::invalid_argument("plan reshape: numel mismatch");
  }
  Op op;
  op.kind = OpKind::kReshape;
  op.in = {a};
  return emit(std::move(op), std::move(new_shape));
}

TensorId GraphBuilder::avg_pool2d(TensorId x, int k) {
  if (ndim(x) != 4) throw std::invalid_argument("plan avg_pool2d: not 4-D");
  const int n = dim(x, 0), c = dim(x, 1), h = dim(x, 2), w = dim(x, 3);
  if (h % k || w % k) {
    throw std::invalid_argument("plan avg_pool2d: not divisible");
  }
  Op op;
  op.kind = OpKind::kAvgPool2d;
  op.i0 = k;
  op.in = {x};
  return emit(std::move(op), {n, c, h / k, w / k});
}

TensorId GraphBuilder::global_avg_pool(TensorId x) {
  if (ndim(x) != 4) {
    throw std::invalid_argument("plan global_avg_pool: not 4-D");
  }
  Op op;
  op.kind = OpKind::kGlobalAvgPool;
  op.in = {x};
  return emit(std::move(op), {dim(x, 0), dim(x, 1)});
}

TensorId GraphBuilder::upsample2x(TensorId x) {
  if (ndim(x) != 4) throw std::invalid_argument("plan upsample: not 4-D");
  Op op;
  op.kind = OpKind::kUpsample2x;
  op.in = {x};
  return emit(std::move(op),
              {dim(x, 0), dim(x, 1), dim(x, 2) * 2, dim(x, 3) * 2});
}

TensorId GraphBuilder::repeat_batch(TensorId x, int k) {
  if (k < 1) throw std::invalid_argument("plan repeat_batch: k < 1");
  if (ndim(x) < 1) throw std::invalid_argument("plan repeat_batch: scalar");
  if (k == 1) return x;
  std::vector<int> out_shape = shape(x);
  out_shape[0] *= k;
  Op op;
  op.kind = OpKind::kRepeatBatch;
  op.i0 = k;
  op.in = {x};
  return emit(std::move(op), std::move(out_shape));
}

TensorId GraphBuilder::ensemble_mean(TensorId x, int n, int ensemble) {
  if (ndim(x) < 1 || dim(x, 0) != n * ensemble || ensemble < 1) {
    throw std::invalid_argument("plan ensemble_mean: shape");
  }
  std::vector<int> out_shape = shape(x);
  out_shape[0] = n;
  Op op;
  op.kind = OpKind::kEnsembleMean;
  op.i0 = n;
  op.i1 = ensemble;
  op.in = {x};
  return emit(std::move(op), std::move(out_shape));
}

}  // namespace dcdiff::nn::plan
