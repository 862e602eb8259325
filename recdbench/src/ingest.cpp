#include "ingest.h"

#include <optional>
#include <span>
#include <utility>

#include "common/hash.h"
#include "core/pipeline.h"
#include "etl/etl.h"
#include "reader/batch.h"
#include "scribe/scribe.h"

namespace recd::bench {
namespace {

// The pipeline defaults (core::PipelineOptions).
constexpr std::size_t kScribeShards = 8;
constexpr std::size_t kRowsPerStripe = 1024;

template <typename T>
std::uint64_t Fold(std::uint64_t digest, std::span<const T> data) {
  return common::HashBytes(std::as_bytes(data), digest ^ data.size());
}

std::uint64_t FoldJagged(std::uint64_t digest, const tensor::JaggedTensor& t) {
  digest = Fold(digest, t.offsets());
  return Fold(digest, t.values());
}

}  // namespace

Ingested Ingest(const datagen::TrafficGenerator::Traffic& traffic,
                const datagen::DatasetSpec& dataset,
                std::size_t samples_per_partition, common::ThreadPool* pool,
                Spans& spans) {
  // Every call, and every teardown of a layer's state, runs inside a
  // span so the layer self times account for the whole write path.
  Ingested out;
  std::optional<scribe::ScribeCluster> cluster;
  {
    Spans::Scope span(spans, "scribe.log");
    cluster.emplace(kScribeShards, scribe::ShardKeyPolicy::kSessionId);
    for (const auto& log : traffic.features) cluster->LogFeature(log);
    for (const auto& log : traffic.events) cluster->LogEvent(log);
  }
  {
    Spans::Scope span(spans, "scribe.flush");
    cluster->Flush(pool);
    out.scribe_compression_ratio = cluster->totals().compression_ratio();
    cluster.reset();
  }

  std::vector<datagen::Sample> samples;
  {
    Spans::Scope span(spans, "etl.join");
    samples = etl::JoinLogs(traffic.features, traffic.events);
  }
  {
    Spans::Scope span(spans, "etl.cluster");
    etl::ClusterBySession(samples, pool);
    out.samples_per_session = etl::MeanSamplesPerSession(samples);
  }
  std::vector<std::vector<datagen::Sample>> partitions;
  {
    Spans::Scope span(spans, "etl.partition");
    partitions =
        etl::PartitionByCount(std::move(samples), samples_per_partition);
  }

  {
    Spans::Scope span(spans, "storage.land");
    out.store = std::make_unique<storage::BlobStore>();
    storage::WriterOptions wopts;
    wopts.rows_per_stripe = kRowsPerStripe;
    wopts.pool = pool;
    out.landed = storage::LandTable(*out.store, "table",
                                    core::MakePipelineSchema(dataset),
                                    partitions, wopts, pool);
    partitions = {};
  }
  return out;
}

std::uint64_t DigestBatch(std::uint64_t digest,
                          const reader::PreprocessedBatch& batch) {
  digest = common::Mix64(digest ^ batch.batch_size);
  for (std::size_t i = 0; i < batch.kjt.num_keys(); ++i) {
    digest = FoldJagged(digest, batch.kjt.tensor(i));
  }
  for (const auto& group : batch.groups) {
    for (std::size_t i = 0; i < group.num_keys(); ++i) {
      digest = FoldJagged(digest, group.unique(i));
    }
    digest = Fold(digest, group.inverse_lookup());
  }
  digest = Fold(digest, std::span<const float>(batch.dense));
  digest = Fold(digest, std::span<const float>(batch.labels));
  return Fold(digest, std::span<const std::int64_t>(batch.session_ids));
}

}  // namespace recd::bench
