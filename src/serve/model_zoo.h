// The serving model zoo (docs/ARCHITECTURE.md §9).
//
// DeepRecSys-style at-scale serving runs a *zoo* of recommendation
// models with different sparse-vs-dense balance behind one endpoint;
// requests carry a model id and route to that model's own batcher and
// worker lane. ModelSpec is the one struct where a model's whole
// serving story lives — architecture, weight seed, kernel backend,
// embedding tiering (via `config.tiering`), and its dynamic-batching
// defaults — and FleetSpec is layer 2 of the serving spec: the zoo plus
// pool-level capacity knobs. Neither says anything about the query
// trace (layer 1, serve::TraceSpec) or a particular run (layer 3,
// serve::RunPolicy).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "kernels/backend.h"
#include "serve/batcher.h"
#include "train/model.h"

namespace recd::serve {

/// Everything one model needs to serve. A model's precision/backend/
/// tiering knobs live here (and in `config.tiering`) and nowhere else —
/// the runner and server take them from the spec, never from run-time
/// options.
struct ModelSpec {
  /// Label used in per-model stats, metrics labels, and bench rows.
  std::string name = "model";
  /// Architecture + embedding tiering (`config.tiering`, §13).
  train::ModelConfig config;
  /// Seed for every worker replica of this model (identical weights).
  std::uint64_t seed = 0x5eedf00d;
  /// Kernel backend for this model's replicas (bitwise-neutral, §12).
  kernels::KernelBackend backend = kernels::DefaultBackend();
  /// Per-model dynamic-batching defaults; RunPolicy may override.
  BatcherOptions batcher;
};

/// Layer 2 of the serving spec: the worker fleet.
struct FleetSpec {
  std::vector<ModelSpec> models;
  /// Worker threads per model when `workers` is empty.
  std::size_t default_workers = 1;
  /// Optional per-model worker counts; empty, or one entry per model.
  std::vector<std::size_t> workers;
  /// Bounded batch queue ahead of each model's workers.
  std::size_t batch_channel_capacity = 4;

  [[nodiscard]] std::size_t num_models() const { return models.size(); }
  [[nodiscard]] std::size_t workers_for(std::size_t model_id) const {
    return workers.empty() ? default_workers : workers.at(model_id);
  }

  /// The one-model fleet (the pre-zoo serving shape).
  [[nodiscard]] static FleetSpec Single(ModelSpec model,
                                        std::size_t num_workers = 1) {
    FleetSpec fleet;
    fleet.models.push_back(std::move(model));
    fleet.default_workers = num_workers;
    return fleet;
  }

  /// Throws std::invalid_argument on an empty zoo, a zero worker
  /// count, or a `workers` list that does not match `models`.
  void Validate() const;
};

/// An RM-flavored zoo member over a shared dataset: the config comes
/// from train::RmServeVariant (sequence groups from the dataset's sync
/// groups; `kind` sets the sparse-vs-dense balance), the name from the
/// variant, and the seed perturbed per kind so zoo members never share
/// weights.
[[nodiscard]] ModelSpec ZooVariant(datagen::RmKind kind,
                                   const datagen::DatasetSpec& dataset,
                                   std::uint64_t seed = 0x5eedf00d);

}  // namespace recd::serve
