// ReaderPool determinism tests: the parallel reader must produce the
// byte-identical batch stream — same batches, same order, same values,
// same io() counters — as the inline (one-worker) scan, for any worker
// count (the ordered-reassembly rule of docs/ARCHITECTURE.md §7).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/blob_store.h"
#include "storage/table.h"
#include "tensor/ikjt.h"
#include "tensor/partial_ikjt.h"
#include "train/model.h"

namespace recd::reader {
namespace {

constexpr std::size_t kBatchSize = 192;

struct Fixture {
  storage::BlobStore store;
  storage::Table table;
  train::ModelConfig model;
};

/// A clustered RM1 table split across several partitions with small
/// stripes, so the pool has many stripes to claim and batch boundaries
/// straddle stripe and partition edges.
Fixture MakeFixture(std::size_t num_samples = 3'000) {
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.08);
  spec.concurrent_sessions = 128;
  spec.mean_session_size = 8.0;
  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(num_samples);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  const auto partitions = etl::PartitionByCount(std::move(samples), 1'000);

  Fixture f;
  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& feature : spec.sparse) {
    schema.sparse_names.push_back(feature.name);
  }
  storage::WriterOptions wopts;
  wopts.rows_per_stripe = 256;
  f.table =
      storage::LandTable(f.store, "pool", schema, partitions, wopts).table;
  f.model = train::RmModel(datagen::RmKind::kRm1, spec);
  f.model.emb_hash_size = 10'000;
  return f;
}

DataLoaderConfig MakeLoader(const train::ModelConfig& model,
                            std::size_t num_workers) {
  auto loader = train::MakeDataLoaderConfig(model, kBatchSize,
                                            /*recd_enabled=*/true);
  loader.num_workers = num_workers;
  // Exercise the Process stage on both dedup and dense paths.
  if (!model.elementwise_features.empty()) {
    loader.transforms.push_back({TransformKind::kSparseHash,
                                 model.elementwise_features.front(),
                                 1'000'003, 0});
  }
  loader.transforms.push_back(
      {TransformKind::kDenseNormalize, "", 0.0, 1.0});
  return loader;
}

void AppendBits(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

/// Canonical bytes of one batch: order-preserving, with every IKJT and
/// partial IKJT expanded back to per-row values. Two streams are
/// byte-identical iff their fingerprint sequences match.
std::string Fingerprint(const PreprocessedBatch& batch) {
  std::string out;
  AppendBits(out, &batch.batch_size, sizeof(batch.batch_size));

  std::map<std::string, const tensor::JaggedTensor*> features;
  std::vector<tensor::KeyedJaggedTensor> expanded;
  expanded.reserve(batch.groups.size());
  for (const auto& key : batch.kjt.keys()) {
    features[key] = &batch.kjt.Get(key);
  }
  for (const auto& group : batch.groups) {
    expanded.push_back(tensor::ExpandToKjt(group));
    for (const auto& key : expanded.back().keys()) {
      features[key] = &expanded.back().Get(key);
    }
  }
  std::vector<tensor::JaggedTensor> expanded_partials;
  expanded_partials.reserve(batch.partials.size());
  for (const auto& partial : batch.partials) {
    expanded_partials.push_back(tensor::ExpandPartialIkjt(partial));
    features[partial.key()] = &expanded_partials.back();
  }

  for (std::size_t i = 0; i < batch.batch_size; ++i) {
    AppendBits(out, &batch.session_ids[i], sizeof(batch.session_ids[i]));
    AppendBits(out, &batch.labels[i], sizeof(batch.labels[i]));
    AppendBits(out, batch.dense.data() + i * batch.dense_dim,
               batch.dense_dim * sizeof(float));
    for (const auto& [name, jagged] : features) {
      out += name;
      out += '\0';
      const auto row = jagged->row(i);
      for (const auto id : row) AppendBits(out, &id, sizeof(id));
      out += '\n';
    }
  }
  return out;
}

struct Stream {
  std::vector<std::string> batches;  // fingerprints, in delivery order
  ReaderIoStats io;
};

Stream Drain(ReaderPool& rdr) {
  Stream s;
  while (auto batch = rdr.NextBatch()) {
    s.batches.push_back(Fingerprint(*batch));
  }
  s.io = rdr.io();
  return s;
}

TEST(ReaderPoolTest, WorkerCountDoesNotChangeTheBatchStream) {
  // The acceptance invariant: 1, 2, and 8 workers deliver identical
  // batch streams and identical io counters.
  std::vector<Stream> streams;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    auto fixture = MakeFixture();
    const std::size_t store_before = fixture.store.stats().bytes_read;
    ReaderPool pool(fixture.store, fixture.table,
                    MakeLoader(fixture.model, workers));
    streams.push_back(Drain(pool));
    ASSERT_FALSE(streams.back().batches.empty());
    // The analytic byte accounting equals what the store measured.
    EXPECT_EQ(streams.back().io.bytes_read,
              fixture.store.stats().bytes_read - store_before)
        << "workers=" << workers;
  }
  for (std::size_t i = 1; i < streams.size(); ++i) {
    EXPECT_EQ(streams[0].batches, streams[i].batches)
        << "stream diverged at worker sweep index " << i;
    EXPECT_EQ(streams[0].io.bytes_read, streams[i].io.bytes_read);
    EXPECT_EQ(streams[0].io.bytes_sent, streams[i].io.bytes_sent);
    EXPECT_EQ(streams[0].io.rows_read, streams[i].io.rows_read);
    EXPECT_EQ(streams[0].io.batches_produced,
              streams[i].io.batches_produced);
    EXPECT_EQ(streams[0].io.sparse_elements_processed,
              streams[i].io.sparse_elements_processed);
  }
}

TEST(ReaderPoolTest, FinalPartialBatchSurvivesParallelReassembly) {
  auto fixture = MakeFixture(/*num_samples=*/1'000);
  ReaderPool pool(fixture.store, fixture.table,
                  MakeLoader(fixture.model, 4));
  std::size_t rows = 0;
  std::size_t partial_batches = 0;
  std::size_t batches = 0;
  while (auto batch = pool.NextBatch()) {
    rows += batch->batch_size;
    ++batches;
    if (batch->batch_size < kBatchSize) ++partial_batches;
  }
  EXPECT_EQ(rows, pool.io().rows_read);
  EXPECT_EQ(batches, (rows + kBatchSize - 1) / kBatchSize);
  EXPECT_LE(partial_batches, 1u);
}

TEST(ReaderPoolTest, EmptyTableEndsImmediately) {
  storage::BlobStore store;
  storage::Table table;
  table.schema.num_dense = 2;
  table.schema.sparse_names = {"f0"};
  DataLoaderConfig loader;
  loader.sparse_features = {"f0"};
  loader.batch_size = 8;
  loader.num_workers = 4;
  ReaderPool pool(store, table, loader);
  EXPECT_FALSE(pool.NextBatch().has_value());
  EXPECT_EQ(pool.io().batches_produced, 0u);
}

TEST(ReaderPoolTest, AbandoningTheStreamShutsDownCleanly) {
  auto fixture = MakeFixture();
  ReaderPool pool(fixture.store, fixture.table,
                  MakeLoader(fixture.model, 4));
  ASSERT_TRUE(pool.NextBatch().has_value());
  // Destructor must unblock and join all workers mid-stream.
}

TEST(ReaderPoolTest, UnknownFeatureThrowsUpFront) {
  auto fixture = MakeFixture(/*num_samples=*/500);
  auto loader = MakeLoader(fixture.model, 2);
  loader.sparse_features.push_back("no_such_feature");
  EXPECT_THROW(ReaderPool(fixture.store, fixture.table, loader),
               std::out_of_range);
}

TEST(ReaderPoolTest, FailedBatchPoisonsTheScan) {
  // kSparseHash with domain 0 throws in Process, so the first batch
  // fails. The scan must end there at every worker count: every later
  // call rethrows. An unlatched scan would move on to the following
  // batches and, past the last one, report a clean end of stream.
  constexpr std::size_t kSamples = 1'000;
  auto fixture = MakeFixture(kSamples);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    auto loader = MakeLoader(fixture.model, workers);
    loader.transforms.push_back({TransformKind::kSparseHash,
                                 loader.sparse_features.front(), 0, 0});
    ReaderPool pool(fixture.store, fixture.table, loader);
    for (std::size_t call = 0; call < kSamples / kBatchSize + 2; ++call) {
      EXPECT_THROW((void)pool.NextBatch(), std::invalid_argument)
          << workers << " workers, call " << call;
    }
    // The pool destructs here with its workers stopped or blocked.
  }
}

TEST(ReaderPoolTest, WallClockIsRecorded) {
  auto fixture = MakeFixture(/*num_samples=*/1'000);
  ReaderPool pool(fixture.store, fixture.table,
                  MakeLoader(fixture.model, 2));
  while (pool.NextBatch().has_value()) {
  }
  EXPECT_GT(pool.times().wall_s, 0.0);
  EXPECT_GT(pool.times().total_s(), 0.0);
}

}  // namespace
}  // namespace recd::reader
