// Compiled inference plan: a fused, memory-planned operator graph with every
// weight reference resolved (raw pointers + PackedA panels) at build time.
//
// A Plan is immutable after construction and holds no mutable execution
// state, so one plan may be shared across threads; each concurrent run()
// needs its own ExecArena (PlanCache pools them per size). In steady state
// running a plan allocates nothing.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "nn/gemm.h"
#include "nn/plan/ir.h"
#include "nn/plan/passes.h"

namespace dcdiff::nn {
class PackCache;
}

namespace dcdiff::nn::plan {

// The single backing buffer every intermediate lives in.
class ExecArena {
 public:
  explicit ExecArena(size_t floats)
      : data_(new float[std::max<size_t>(floats, 1)]), floats_(floats) {}
  float* data() { return data_.get(); }
  size_t floats() const { return floats_; }

 private:
  std::unique_ptr<float[]> data_;
  size_t floats_;
};

class Plan {
 public:
  // Compiles `g`: fusion, liveness arena planning, weight resolution.
  // Frozen conv weights resolve through `packs` (shared, process-lifetime
  // panels — the same ones the eager path uses); with no cache, or for
  // weights that might still train, the plan packs privately. Throws
  // std::invalid_argument / std::runtime_error on malformed graphs
  // (PlanCache::get_or_build converts that into a typed Status).
  Plan(Graph&& g, PackCache* packs);

  size_t arena_floats() const { return arena_floats_; }
  int num_inputs() const { return graph_.num_inputs; }
  size_t input_numel(int i) const;
  int num_outputs() const { return static_cast<int>(graph_.outputs.size()); }
  const std::vector<int>& output_shape(int i) const;
  size_t output_numel(int i) const;
  size_t num_ops() const { return graph_.ops.size(); }
  const FusionStats& fusion_stats() const { return stats_; }

  // Executes the graph. inputs[i] must hold input_numel(i) floats; on
  // return (*outputs)[i] points at output i inside `arena`, valid until the
  // arena is reused. Thread-safe given distinct arenas.
  void run(ExecArena& arena, const std::vector<const float*>& inputs,
           std::vector<const float*>* outputs) const;

 private:
  struct ConvPack {
    const PackedA* panels = nullptr;   // borrowed from PackCache, or...
    std::optional<PackedA> owned;      // ...packed privately at build
  };
  const float* resolve(TensorId id, float* arena,
                       const std::vector<const float*>& inputs) const;

  Graph graph_;
  FusionStats stats_;
  size_t arena_floats_ = 0;
  std::vector<ConvPack> conv_packs_;  // parallel to graph_.ops (empty slots
                                      // for non-conv ops)
};

}  // namespace dcdiff::nn::plan
