// Compile-once reconstruction plans (see nn/plan/). The compiled unit is one
// DDIM step: per group shape, ReconPlanner compiles three static operator
// graphs —
//   * conditioner: control module, AC encoder and FMPP on the tilde batch;
//   * step: one UNet forward, the timestep entering as four bias inputs;
//   * decode: ensemble mean, then the stage-1 decoder —
// and the DDIM loop itself (core/diffusion.h) runs outside them, calling the
// step plan once per step. A step plan therefore serves every step count,
// early stops and per-step checkpoints. Compiling happens once per shape
// per model replica; steady-state execution allocates no arena.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/autoencoder.h"
#include "core/diffusion.h"
#include "core/fmpp.h"
#include "nn/plan/cache.h"
#include "support/status.h"

namespace dcdiff::core {

// Shape/config signature of one reconstruction group. Calls with equal keys
// share compiled plans (weights are bound per ReconPlanner, which is per
// model replica). The step count is not part of it.
struct ReconPlanKey {
  int n = 1;           // images in the group
  int ensemble = 1;    // noise seeds averaged per image
  int ph = 0, pw = 0;  // padded tilde size (multiples of 8)
  bool use_fmpp = true;

  int rows() const { return n * ensemble; }
  std::string str() const;
};

// A group's conditioning: control features and FMPP factors on the folded
// (n * ensemble)-row sampling axis, each image's members adjacent; AC
// features once per image. s/b stay undefined without FMPP.
struct Conditioning {
  ControlModule::Features ctrl;
  ACFeatures ac;
  nn::Tensor s, b;
};

class ReconPlanner;

// One group's compiled reconstruction: the key's three plans and one arena
// they all run in, one at a time (every output is copied out before the
// next run), so a group holds a single arena of the largest plan's size.
// Used by one thread at a time.
class PlannedGroup {
 public:
  Conditioning condition(const nn::Tensor& tilde);
  // The step plan's prediction for the rows of `z` at timestep `t`.
  nn::Tensor denoise(const nn::Tensor& z, int t, const Conditioning& c);
  // Decoded (n,3,ph,pw) batch of the (n * ensemble)-row latent `z_rows`.
  nn::Tensor decode(const nn::Tensor& z_rows, const ACFeatures& ac);

 private:
  friend class ReconPlanner;
  PlannedGroup(ReconPlanner* planner, const ReconPlanKey& key,
               nn::plan::PlanCache::ArenaLease lease)
      : planner_(planner), key_(key), lease_(std::move(lease)) {}
  std::vector<const float*> run(const nn::plan::Plan& p,
                                const std::vector<const float*>& in);

  ReconPlanner* planner_;
  ReconPlanKey key_;
  std::shared_ptr<const nn::plan::Plan> cond_, step_, decode_;
  nn::plan::PlanCache::ArenaLease lease_;
};

// Per-replica plan registry for DCDiffModel's reconstruct calls. Holds the
// replica's modules by reference (they outlive it). Thread-safe.
class ReconPlanner {
 public:
  ReconPlanner(const ControlModule& control, const Autoencoder& ae,
               const FMPP& fmpp, const UNet& unet, nn::PackCache* packs)
      : control_(control), ae_(ae), fmpp_(fmpp), unet_(unet), packs_(packs) {}

  // The key's three plans (compiled on first use) and an arena for them.
  // Any failure — a plan that does not build, an arena that cannot be had —
  // comes back as a typed Status before anything has run, so the caller
  // runs the whole group eagerly instead.
  Status open(const ReconPlanKey& key, std::unique_ptr<PlannedGroup>* out);

 private:
  friend class PlannedGroup;
  // The step plan's timestep inputs (UNet::temb_biases), computed once per
  // (rows, t) and kept: at most T entries per row count in use.
  std::shared_ptr<const std::vector<nn::Tensor>> temb_biases(int rows, int t);

  const ControlModule& control_;
  const Autoencoder& ae_;
  const FMPP& fmpp_;
  const UNet& unet_;
  nn::PackCache* packs_;
  nn::plan::PlanCache cache_;
  std::mutex bias_mu_;
  std::map<std::pair<int, int>, std::shared_ptr<const std::vector<nn::Tensor>>>
      biases_;
};

}  // namespace dcdiff::core
