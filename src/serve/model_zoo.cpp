#include "serve/model_zoo.h"

#include <stdexcept>

namespace recd::serve {

void FleetSpec::Validate() const {
  if (models.empty()) {
    throw std::invalid_argument("FleetSpec: need at least one model");
  }
  if (!workers.empty() && workers.size() != models.size()) {
    throw std::invalid_argument(
        "FleetSpec: workers must be empty or one entry per model");
  }
  if (default_workers == 0) {
    throw std::invalid_argument("FleetSpec: default_workers must be >= 1");
  }
  for (const auto w : workers) {
    if (w == 0) {
      throw std::invalid_argument("FleetSpec: worker counts must be >= 1");
    }
  }
}

ModelSpec ZooVariant(datagen::RmKind kind,
                     const datagen::DatasetSpec& dataset,
                     std::uint64_t seed) {
  ModelSpec spec;
  spec.config = train::RmServeVariant(kind, dataset);
  spec.name = spec.config.name;
  // Distinct weights per kind even when callers pass one base seed.
  spec.seed = seed + static_cast<std::uint64_t>(kind) * 0x9e3779b97f4a7c15ULL;
  return spec;
}

}  // namespace recd::serve
