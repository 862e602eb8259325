#include "stream/tailing_reader.h"

#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"

namespace recd::stream {

TailingReader::TailingReader(storage::BlobStore& store,
                             storage::StorageSchema schema,
                             reader::DataLoaderConfig config,
                             reader::ReaderOptions options,
                             common::ThreadPool* pool, Sink sink)
    : store_(&store),
      schema_(std::move(schema)),
      config_(std::move(config)),
      pipeline_(schema_, config_, options.use_ikjt),
      pool_(pool),
      sink_(std::move(sink)) {
  if (config_.batch_size == 0) {
    throw std::invalid_argument(
        "TailingReader: batch_size must be positive");
  }
  wall_.Start();
}

bool TailingReader::Offer(const LandedWindow& window) {
  for (const auto& name : window.files) {
    // Fill every stripe of the fresh file: stripes decode concurrently
    // on the pool, each into its own tally, and reassemble in stripe
    // order.
    const auto file = reader::OpenForScan(*store_, name, tally_);
    const std::size_t stripes = file.num_stripes();
    std::vector<std::vector<datagen::Sample>> decoded(stripes);
    std::vector<reader::ScanTally> tallies(stripes);
    const auto fill_one = [&](std::size_t s) {
      decoded[s] = reader::FillStripe(pipeline_, file, s, tallies[s]);
    };
    if (pool_ != nullptr && stripes > 1) {
      pool_->ParallelFor(0, stripes, fill_one);
    } else {
      for (std::size_t s = 0; s < stripes; ++s) fill_one(s);
    }
    for (std::size_t s = 0; s < stripes; ++s) {
      tally_ += tallies[s];
      for (auto& row : decoded[s]) buffer_.push_back(std::move(row));
    }

    while (buffer_.size() >= config_.batch_size) {
      if (!EmitBatch(config_.batch_size)) return false;
    }
  }
  return true;
}

bool TailingReader::Finish() {
  if (finished_) return true;
  finished_ = true;
  bool ok = true;
  if (!buffer_.empty()) ok = EmitBatch(buffer_.size());
  wall_.Stop();
  tally_.times.wall_s = wall_.seconds();
  return ok;
}

bool TailingReader::EmitBatch(std::size_t take) {
  auto batch = reader::PrepareBatch(
      pipeline_, reader::TakeRows(buffer_, take), tally_);
  return sink_ ? sink_(std::move(batch)) : true;
}

}  // namespace recd::stream
