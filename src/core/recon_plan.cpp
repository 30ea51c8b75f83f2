#include "core/recon_plan.h"

#include <algorithm>
#include <exception>

#include "nn/plan/builder.h"
#include "obs/metrics.h"

namespace dcdiff::core {

using namespace dcdiff::nn;

std::string ReconPlanKey::str() const {
  return "n" + std::to_string(n) + "_e" + std::to_string(ensemble) + "_" +
         std::to_string(ph) + "x" + std::to_string(pw) +
         (use_fmpp ? "_fmpp" : "_nofmpp");
}

namespace {

// Output `i` of a finished run, copied out of the arena.
Tensor output_tensor(const plan::Plan& p, const std::vector<const float*>& outs,
                     int i) {
  const float* d = outs[static_cast<size_t>(i)];
  return Tensor::from_data(p.output_shape(i),
                           std::vector<float>(d, d + p.output_numel(i)));
}

}  // namespace

std::vector<const float*> PlannedGroup::run(
    const plan::Plan& p, const std::vector<const float*>& in) {
  std::vector<const float*> outs;
  p.run(lease_.arena(), in, &outs);
  return outs;
}

Conditioning PlannedGroup::condition(const Tensor& tilde) {
  const auto outs = run(*cond_, {tilde.value().data()});
  Conditioning c;
  c.ctrl.c1 = output_tensor(*cond_, outs, 0);
  c.ctrl.c2 = output_tensor(*cond_, outs, 1);
  c.ac.half = output_tensor(*cond_, outs, 2);
  c.ac.quarter = output_tensor(*cond_, outs, 3);
  if (key_.use_fmpp) {
    c.s = output_tensor(*cond_, outs, 4);
    c.b = output_tensor(*cond_, outs, 5);
  }
  return c;
}

Tensor PlannedGroup::denoise(const Tensor& z, int t, const Conditioning& c) {
  const auto bias = planner_->temb_biases(key_.rows(), t);
  std::vector<const float*> in = {z.value().data(), c.ctrl.c1.value().data(),
                                  c.ctrl.c2.value().data()};
  if (key_.use_fmpp) {
    in.push_back(c.s.value().data());
    in.push_back(c.b.value().data());
  }
  for (const Tensor& b : *bias) in.push_back(b.value().data());
  return output_tensor(*step_, run(*step_, in), 0);
}

Tensor PlannedGroup::decode(const Tensor& z_rows, const ACFeatures& ac) {
  return output_tensor(
      *decode_,
      run(*decode_, {z_rows.value().data(), ac.half.value().data(),
                     ac.quarter.value().data()}),
      0);
}

std::shared_ptr<const std::vector<Tensor>> ReconPlanner::temb_biases(int rows,
                                                                     int t) {
  std::lock_guard<std::mutex> lock(bias_mu_);
  auto& slot = biases_[{rows, t}];
  if (!slot) {
    slot = std::make_shared<const std::vector<Tensor>>(
        unet_.temb_biases(rows, t));
  }
  return slot;
}

Status ReconPlanner::open(const ReconPlanKey& key,
                          std::unique_ptr<PlannedGroup>* out) {
  if (key.n < 1 || key.ensemble < 1 || key.ph < 8 || key.pw < 8 ||
      key.ph % 8 != 0 || key.pw % 8 != 0) {
    return Status::invalid_argument("recon plan: bad group shape " +
                                    key.str());
  }
  const std::string k = key.str();
  const int e = key.ensemble;
  const std::vector<int> latent = {key.rows(), unet_.config().z_channels,
                                   key.ph / 4, key.pw / 4};

  // Conditioner. Outputs: c1, c2 (repeated onto the member rows), AC half
  // and quarter (per image), then FMPP s, b (member rows) with FMPP on.
  std::shared_ptr<const plan::Plan> cond;
  Status st = cache_.get_or_build(
      "cond_" + k,
      [&](plan::GraphBuilder& g) {
        const plan::TensorId tilde = g.input({key.n, 3, key.ph, key.pw});
        auto [c1, c2] = control_.capture(g, tilde);
        const Autoencoder::CapturedAC ac = ae_.capture_encode_ac(g, tilde);
        if (e > 1) {
          c1 = g.repeat_batch(c1, e);
          c2 = g.repeat_batch(c2, e);
        }
        for (plan::TensorId id : {c1, c2, ac.half, ac.quarter}) {
          g.mark_output(id);
        }
        if (key.use_fmpp) {
          const FMPP::CapturedFactors f = fmpp_.capture(g, tilde);
          g.mark_output(g.repeat_batch(f.s, e));
          g.mark_output(g.repeat_batch(f.b, e));
        }
      },
      packs_, &cond);
  if (!st.is_ok()) return st;

  // One denoising step. Inputs, in order: z, c1, c2, [s, b], the four
  // timestep biases; output: the prediction.
  std::shared_ptr<const plan::Plan> step;
  st = cache_.get_or_build(
      "step_" + k,
      [&](plan::GraphBuilder& g) {
        const plan::TensorId z = g.input(latent);
        const plan::TensorId c1 = g.input(cond->output_shape(0));
        const plan::TensorId c2 = g.input(cond->output_shape(1));
        plan::TensorId s = plan::kNoTensor, b = plan::kNoTensor;
        if (key.use_fmpp) {
          s = g.input(cond->output_shape(4));
          b = g.input(cond->output_shape(5));
        }
        std::vector<plan::TensorId> bias;
        for (const Tensor& t : *temb_biases(key.rows(), 0)) {
          bias.push_back(g.input(t.shape()));
        }
        g.mark_output(unet_.capture(g, z, c1, c2, s, b, bias));
      },
      packs_, &step);
  if (!st.is_ok()) return st;

  // Decode. Inputs: z rows, AC half, AC quarter; output: xhat.
  std::shared_ptr<const plan::Plan> decode;
  st = cache_.get_or_build(
      "decode_" + k,
      [&](plan::GraphBuilder& g) {
        const plan::TensorId z_rows = g.input(latent);
        Autoencoder::CapturedAC ac;
        ac.half = g.input(cond->output_shape(2));
        ac.quarter = g.input(cond->output_shape(3));
        const plan::TensorId z0 =
            e > 1 ? g.ensemble_mean(z_rows, key.n, e) : z_rows;
        g.mark_output(ae_.capture_decode(g, z0, ac));
      },
      packs_, &decode);
  if (!st.is_ok()) return st;

  try {
    auto lease = cache_.arena_for(std::max(
        {cond->arena_floats(), step->arena_floats(), decode->arena_floats()}));
    // Steady state is 0: the arena pool hands back an existing buffer.
    static obs::Gauge& allocs = obs::gauge("plan.allocs_per_forward");
    allocs.set(lease.allocated() ? 1.0 : 0.0);
    out->reset(new PlannedGroup(this, key, std::move(lease)));
  } catch (const std::exception& ex) {
    return Status::internal(std::string("plan arena: ") + ex.what());
  }
  (*out)->cond_ = std::move(cond);
  (*out)->step_ = std::move(step);
  (*out)->decode_ = std::move(decode);
  return Status::ok();
}

}  // namespace dcdiff::core
