// Tiered embedding store tests (src/embstore/ + its integrations):
// the compressed/checksummed cold tier (round trips, typed rejection of
// corrupt or truncated segments), the LFU hot tier (admission,
// eviction with dirty write-back, stats), and the headline
// tier-placement determinism rule — forward/backward/SGD bitwise
// identical to the dense backend for hot capacities {0, tiny,
// unbounded} x rank counts {1, 2, 4} x baseline/RecD, through
// ReferenceDlrm, the distributed trainer, checkpoint restore, and the
// serve worker pool. The concurrency suite races many readers against
// hot-tier eviction under TSan.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum_file.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "embstore/cold_store.h"
#include "embstore/tiered_store.h"
#include "etl/etl.h"
#include "nn/embedding.h"
#include "reader/reader_pool.h"
#include "serve/server_runner.h"
#include "storage/table.h"
#include "tensor/jagged.h"
#include "train/checkpoint.h"
#include "train/distributed.h"
#include "train/model.h"
#include "train/reference.h"

namespace recd::embstore {
namespace {

using nn::DenseMatrix;
using tensor::JaggedTensor;

// A per-test directory under the gtest temp dir, removed with
// everything in it when the test ends.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag)
      : path_(::testing::TempDir() + "/recd_embstore_" + tag + "_" +
              std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;  // best effort: never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DenseMatrix RandomMatrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  common::Rng rng(seed);
  return DenseMatrix::Xavier(rows, cols, rng);
}

::testing::AssertionResult BitwiseEq(const DenseMatrix& a,
                                     const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (a.byte_size() != 0 &&
      std::memcmp(a.data().data(), b.data().data(), a.byte_size()) != 0) {
    return ::testing::AssertionFailure() << "bytes differ";
  }
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------------------ cold store --

TEST(EmbstoreColdStoreTest, RoundTripsBitwiseInMemoryAndFileBacked) {
  const auto w = RandomMatrix(37, 5, 1);  // short tail segment
  const ScopedTempDir tmp("roundtrip");
  for (const auto& dir : {std::string(), tmp.path()}) {
    ColdStore cold(w, /*rows_per_segment=*/8, compress::CodecKind::kLz77,
                   dir);
    EXPECT_EQ(cold.rows(), 37u);
    EXPECT_EQ(cold.num_segments(), 5u);
    EXPECT_EQ(cold.SegmentRows(4), 5u);  // 37 = 4*8 + 5
    EXPECT_EQ(cold.file_backed(), !dir.empty());
    EXPECT_TRUE(BitwiseEq(cold.Materialize(), w));
    EXPECT_GT(cold.compressed_bytes(), 0u);
  }
}

TEST(EmbstoreColdStoreTest, ReadCountersAccumulateCompressedAndRawBytes) {
  const auto w = RandomMatrix(16, 4, 2);
  ColdStore cold(w, 4, compress::CodecKind::kLz77, "");
  ColdStore::ReadCounters rc;
  for (std::size_t s = 0; s < cold.num_segments(); ++s) {
    (void)cold.ReadSegment(s, &rc);
  }
  EXPECT_EQ(rc.segments, 4u);
  EXPECT_GT(rc.compressed_bytes, 0u);
  EXPECT_EQ(rc.raw_bytes, 16u * 4u * sizeof(float));
}

TEST(EmbstoreColdStoreTest, SingleRowSegmentsRoundTrip) {
  const auto w = RandomMatrix(6, 3, 3);
  ColdStore cold(w, /*rows_per_segment=*/1, compress::CodecKind::kIdentity,
                 "");
  EXPECT_EQ(cold.num_segments(), 6u);
  for (std::size_t s = 0; s < 6; ++s) {
    const auto seg = cold.ReadSegment(s, nullptr);
    ASSERT_EQ(seg.size(), 3u);
    EXPECT_EQ(0, std::memcmp(seg.data(), w.row(s).data(),
                             3 * sizeof(float)));
  }
}

TEST(EmbstoreColdStoreTest, EmptyTableHasNoSegments) {
  ColdStore cold(DenseMatrix(), 8, compress::CodecKind::kLz77, "");
  EXPECT_EQ(cold.rows(), 0u);
  EXPECT_EQ(cold.num_segments(), 0u);
  EXPECT_EQ(cold.compressed_bytes(), 0u);
  EXPECT_TRUE(BitwiseEq(cold.Materialize(), DenseMatrix()));
}

TEST(EmbstoreColdStoreTest, WriteSegmentReplacesRowsExactly) {
  auto w = RandomMatrix(10, 4, 4);
  ColdStore cold(w, 4, compress::CodecKind::kLz77, "");
  std::vector<float> fresh(4 * 4, 2.5f);
  cold.WriteSegment(1, fresh);
  for (std::size_t r = 4; r < 8; ++r) {
    for (std::size_t c = 0; c < 4; ++c) w.at(r, c) = 2.5f;
  }
  EXPECT_TRUE(BitwiseEq(cold.Materialize(), w));
  EXPECT_THROW(cold.WriteSegment(0, std::vector<float>(3)),
               std::invalid_argument);
}

TEST(EmbstoreColdStoreTest, ZeroRowsPerSegmentThrows) {
  EXPECT_THROW(ColdStore(RandomMatrix(4, 2, 5), 0,
                         compress::CodecKind::kLz77, ""),
               std::invalid_argument);
}

TEST(EmbstoreColdStoreTest, CorruptFileSegmentThrowsColdStoreError) {
  const auto w = RandomMatrix(12, 4, 6);
  const ScopedTempDir tmp("corrupt");
  ColdStore cold(w, 4, compress::CodecKind::kLz77, tmp.path());
  common::CorruptChecksummedFile(cold.SegmentPath(1), /*payload_offset=*/3);
  EXPECT_NO_THROW((void)cold.ReadSegment(0, nullptr));
  EXPECT_THROW((void)cold.ReadSegment(1, nullptr), ColdStoreError);
}

TEST(EmbstoreColdStoreTest, TruncatedFileSegmentThrowsColdStoreError) {
  const auto w = RandomMatrix(12, 4, 7);
  const ScopedTempDir tmp("truncate");
  ColdStore cold(w, 4, compress::CodecKind::kLz77, tmp.path());
  const auto path = cold.SegmentPath(2);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW((void)cold.ReadSegment(2, nullptr), ColdStoreError);
  std::filesystem::resize_file(path, 0);
  EXPECT_THROW((void)cold.ReadSegment(2, nullptr), ColdStoreError);
}

TEST(EmbstoreColdStoreTest, MissingFileSegmentThrowsColdStoreError) {
  const auto w = RandomMatrix(8, 2, 8);
  const ScopedTempDir tmp("missing");
  ColdStore cold(w, 4, compress::CodecKind::kLz77, tmp.path());
  std::filesystem::remove(cold.SegmentPath(0));
  EXPECT_THROW((void)cold.ReadSegment(0, nullptr), ColdStoreError);
}

// ---------------------------------------------------------- tiered store --

TierConfig Tier(std::size_t hot_capacity_rows,
                std::size_t rows_per_segment = 4,
                std::string cold_dir = {}) {
  TierConfig c;
  c.enabled = true;
  c.hot_capacity_rows = hot_capacity_rows;
  c.rows_per_segment = rows_per_segment;
  c.cold_dir = std::move(cold_dir);
  return c;
}

TEST(EmbstoreTieredStoreTest, GatherIsBitwiseForEveryCapacity) {
  const auto w = RandomMatrix(20, 6, 10);
  for (const std::size_t cap : {0u, 3u, 1000u}) {
    TieredRowStore store(w, Tier(cap));
    const std::vector<std::size_t> rows = {0, 7, 7, 19, 2, 0, 13};
    std::vector<float> out(rows.size() * 6);
    store.Gather(rows, {}, out.data());
    // Repeat: hits may now come from the hot tier — same bits required.
    std::vector<float> again(rows.size() * 6);
    store.Gather(rows, {}, again.data());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(out.data() + i * 6, w.row(rows[i]).data(),
                               6 * sizeof(float)))
          << "cap " << cap << " row " << rows[i];
    }
    EXPECT_EQ(0, std::memcmp(out.data(), again.data(),
                             out.size() * sizeof(float)));
    EXPECT_TRUE(BitwiseEq(store.Materialize(), w));
  }
}

TEST(EmbstoreTieredStoreTest, CapacityZeroKeepsEverythingCold) {
  const auto w = RandomMatrix(8, 4, 11);
  TieredRowStore store(w, Tier(0));
  const std::vector<std::size_t> rows = {1, 1, 5};
  std::vector<float> out(rows.size() * 4);
  store.Gather(rows, {}, out.data());
  store.Gather(rows, {}, out.data());
  const auto s = store.stats();
  EXPECT_EQ(s.capacity_rows, 0u);
  EXPECT_EQ(s.hot_hits, 0u);
  EXPECT_EQ(s.cold_fetches, 6u);
  EXPECT_EQ(s.resident_rows, 0u);
  EXPECT_EQ(s.admissions, 0u);
  EXPECT_GT(s.bytes_from_cold, 0u);
}

TEST(EmbstoreTieredStoreTest, HotTierAbsorbsRepeatedFetches) {
  const auto w = RandomMatrix(64, 4, 12);
  TieredRowStore store(w, Tier(8, 8));
  const std::vector<std::size_t> hot_rows = {3, 9, 17};
  std::vector<float> out(hot_rows.size() * 4);
  for (int pass = 0; pass < 10; ++pass) {
    store.Gather(hot_rows, {}, out.data());
  }
  const auto s = store.stats();
  EXPECT_EQ(s.row_fetches, 30u);
  EXPECT_EQ(s.cold_fetches, 3u);  // first pass only
  EXPECT_EQ(s.hot_hits, 27u);
  EXPECT_GT(s.hit_rate(), 0.89);
  EXPECT_EQ(s.resident_rows, 3u);
}

TEST(EmbstoreTieredStoreTest, FrequencyAdmissionEvictsColdestAndWritesBack) {
  const auto w = RandomMatrix(16, 4, 13);
  TieredRowStore store(w, Tier(1, 4));
  // Row 2 becomes resident, then dirty.
  std::vector<float> out(4);
  const std::size_t r2 = 2;
  store.Gather(std::span<const std::size_t>(&r2, 1), {}, out.data());
  const std::vector<float> updated = {9.f, 8.f, 7.f, 6.f};
  store.Update(std::span<const std::size_t>(&r2, 1), updated.data());
  // Row 11 out-accumulates row 2's frequency -> displaces it; the dirty
  // row 2 must be recompressed into its cold segment first.
  const std::size_t r11 = 11;
  const std::vector<std::uint64_t> heavy = {100};
  store.Gather(std::span<const std::size_t>(&r11, 1), heavy, out.data());
  const auto s = store.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.writebacks, 1u);
  EXPECT_EQ(s.resident_rows, 1u);
  auto expected = w;
  for (std::size_t c = 0; c < 4; ++c) expected.at(2, c) = updated[c];
  EXPECT_TRUE(BitwiseEq(store.Materialize(), expected));
  // One-hit scan rows never displace the heavy resident (ties lose).
  const std::size_t r5 = 5;
  store.Gather(std::span<const std::size_t>(&r5, 1), {}, out.data());
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(EmbstoreTieredStoreTest, UpdatesLandInBothTiers) {
  const auto w = RandomMatrix(12, 3, 14);
  TieredRowStore store(w, Tier(2, 4));
  std::vector<float> scratch(3);
  const std::size_t hot_row = 1;
  store.Gather(std::span<const std::size_t>(&hot_row, 1), {},
               scratch.data());  // row 1 resident
  const std::vector<std::size_t> rows = {1, 10};  // hot + cold update
  const std::vector<float> src = {1, 2, 3, 4, 5, 6};
  store.Update(rows, src.data());
  auto expected = w;
  for (std::size_t c = 0; c < 3; ++c) {
    expected.at(1, c) = src[c];
    expected.at(10, c) = src[3 + c];
  }
  EXPECT_TRUE(BitwiseEq(store.Materialize(), expected));
  // The fresh values must also come back through Gather, both tiers.
  std::vector<float> out(rows.size() * 3);
  store.Gather(rows, {}, out.data());
  EXPECT_EQ(0, std::memcmp(out.data(), src.data(), src.size() *
                                                       sizeof(float)));
}

TEST(EmbstoreTieredStoreTest, LoadResetsHotTierAndFrequencies) {
  const auto w = RandomMatrix(10, 2, 15);
  TieredRowStore store(w, Tier(4, 4));
  std::vector<float> out(2);
  const std::size_t r = 3;
  store.Gather(std::span<const std::size_t>(&r, 1), {}, out.data());
  ASSERT_EQ(store.resident_rows(), 1u);
  const auto w2 = RandomMatrix(10, 2, 16);
  store.Load(w2);
  EXPECT_EQ(store.resident_rows(), 0u);
  EXPECT_TRUE(BitwiseEq(store.Materialize(), w2));
}

TEST(EmbstoreTieredStoreTest, OutOfRangeRowThrows) {
  TieredRowStore store(RandomMatrix(4, 2, 17), Tier(2));
  const std::size_t bad = 4;
  std::vector<float> out(2);
  EXPECT_THROW(
      store.Gather(std::span<const std::size_t>(&bad, 1), {}, out.data()),
      std::out_of_range);
  EXPECT_THROW(
      store.Update(std::span<const std::size_t>(&bad, 1), out.data()),
      std::out_of_range);
}

// ------------------------------------------------------- embedding table --

// The determinism matrix at the table level: dense vs tiered across
// capacities and kernel backends, forward and backward, memcmp-equal.
TEST(EmbstoreEmbeddingTableTest, ForwardBackwardBitwiseMatchesDense) {
  constexpr std::size_t kRows = 48;
  constexpr std::size_t kDim = 9;  // odd: exercises SIMD tails
  const auto batch = JaggedTensor::FromRows(
      {{1, 2, 3}, {}, {2, 2, 47}, {13}, {1, 40, 41, 42}, {3, 3, 3}});
  const auto unique = JaggedTensor::FromRows({{1, 2}, {2, 47}, {13, 3}});
  const std::vector<std::int64_t> inverse = {0, 1, 1, 2, 0, 2};

  for (const auto backend : {kernels::KernelBackend::kScalar,
                             kernels::KernelBackend::kVectorized}) {
    for (const std::size_t cap : {0u, 4u, 1000u}) {
      common::Rng rng_a(99);
      common::Rng rng_b(99);
      nn::EmbeddingTable dense(kRows, kDim, rng_a);
      nn::EmbeddingTable tiered(kRows, kDim, rng_b);
      dense.set_backend(backend);
      tiered.set_backend(backend);
      tiered.UseTieredStore(Tier(cap, 8));
      ASSERT_TRUE(tiered.tiered());
      ASSERT_FALSE(dense.tiered());

      const auto pd = dense.PooledForward(batch);
      const auto pt = tiered.PooledForward(batch);
      EXPECT_TRUE(BitwiseEq(pd, pt)) << "pooled cap=" << cap;

      const auto fd = dense.FusedPooledForward(unique, inverse);
      const auto ft = tiered.FusedPooledForward(unique, inverse);
      EXPECT_TRUE(BitwiseEq(fd, ft)) << "fused cap=" << cap;

      DenseMatrix grad(batch.num_rows(), kDim);
      for (std::size_t i = 0; i < grad.data().size(); ++i) {
        grad.data()[i] = 0.01f * static_cast<float>(i % 17) - 0.05f;
      }
      for (int step = 0; step < 3; ++step) {
        dense.ApplyPooledGradient(batch, grad, 0.05f);
        tiered.ApplyPooledGradient(batch, grad, 0.05f);
      }
      EXPECT_TRUE(BitwiseEq(dense.weights(), tiered.weights()))
          << "post-SGD cap=" << cap;

      const auto sd = dense.SequenceForward(batch);
      const auto st = tiered.SequenceForward(batch);
      EXPECT_TRUE(BitwiseEq(sd, st)) << "sequence cap=" << cap;

      const auto tier = tiered.tier_stats();
      EXPECT_GT(tier.row_fetches, 0u);
      EXPECT_EQ(dense.tier_stats().row_fetches, 0u);
    }
  }
}

TEST(EmbstoreEmbeddingTableTest, EmptyBatchesAndRowsPoolToZero) {
  common::Rng rng(7);
  nn::EmbeddingTable table(16, 4, rng);
  table.UseTieredStore(Tier(2, 4));
  const auto all_empty = JaggedTensor::FromRows({{}, {}, {}});
  const auto pooled = table.PooledForward(all_empty);
  ASSERT_EQ(pooled.rows(), 3u);
  for (const float v : pooled.data()) EXPECT_EQ(v, 0.0f);
  const auto none = table.PooledForward(JaggedTensor::FromRows({}));
  EXPECT_EQ(none.rows(), 0u);
}

TEST(EmbstoreEmbeddingTableTest, LoadWeightsRebuildsTheColdTier) {
  common::Rng rng(8);
  nn::EmbeddingTable table(12, 4, rng);
  table.UseTieredStore(Tier(3, 4));
  const auto fresh = RandomMatrix(12, 4, 20);
  table.LoadWeights(fresh);
  EXPECT_TRUE(BitwiseEq(table.weights(), fresh));
  EXPECT_THROW(table.LoadWeights(RandomMatrix(11, 4, 21)),
               std::invalid_argument);
}

TEST(EmbstoreEmbeddingTableTest, UseTieredStoreTwiceThrows) {
  common::Rng rng(9);
  nn::EmbeddingTable table(8, 2, rng);
  table.UseTieredStore(Tier(2));
  EXPECT_THROW(table.UseTieredStore(Tier(2)), std::logic_error);
}

// ------------------------------------------------- trainer determinism --

struct Fixture {
  datagen::DatasetSpec spec;
  train::ModelConfig model;
  storage::BlobStore store;
  storage::Table table;
  reader::PreprocessedBatch recd_batch;
  reader::PreprocessedBatch base_batch;
};

Fixture MakeFixture(std::size_t batch_size = 48) {
  Fixture fx;
  fx.spec = datagen::RmDataset(datagen::RmKind::kRm2, /*scale=*/0.02);
  fx.spec.concurrent_sessions = 8;  // heavy in-batch duplication
  fx.model = train::RmModel(datagen::RmKind::kRm2, fx.spec);
  fx.model.emb_hash_size = 600;  // small tables, several segments each
  fx.model.emb_dim = 12;
  fx.model.bottom_mlp_hidden = {16};
  fx.model.top_mlp_hidden = {32, 16};
  datagen::TrafficGenerator gen(fx.spec);
  const auto traffic = gen.Generate(batch_size * 2);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  storage::StorageSchema schema;
  schema.num_dense = fx.spec.num_dense;
  for (const auto& f : fx.spec.sparse) schema.sparse_names.push_back(f.name);
  auto landed =
      storage::LandTable(fx.store, "t", schema, {std::move(samples)});
  fx.table = std::move(landed.table);

  reader::ReaderPool recd(fx.store, fx.table,
                          MakeDataLoaderConfig(fx.model, batch_size, true),
                          reader::ReaderOptions{.use_ikjt = true});
  reader::ReaderPool base(fx.store, fx.table,
                          MakeDataLoaderConfig(fx.model, batch_size, false),
                          reader::ReaderOptions{.use_ikjt = false});
  fx.recd_batch = *recd.NextBatch();
  fx.base_batch = *base.NextBatch();
  return fx;
}

constexpr float kLr = 0.05f;

TEST(EmbstoreTrainerDeterminismTest, ReferenceDlrmBitwiseAcrossCapacities) {
  const auto fx = MakeFixture();
  train::ReferenceDlrm dense_ref(fx.model, /*seed=*/42);
  std::vector<float> dense_losses;
  for (int k = 0; k < 2; ++k) {
    dense_losses.push_back(dense_ref.TrainStep(fx.base_batch, kLr));
  }
  const auto fwd_base = dense_ref.Forward(fx.base_batch, /*recd=*/false);
  const auto fwd_recd = dense_ref.Forward(fx.recd_batch, /*recd=*/true);

  // Hot capacities {0 = always cold, tiny = constant eviction churn,
  // unbounded = everything ends up hot}: same bits in all three worlds.
  for (const std::size_t cap : {0u, 32u, 1u << 20}) {
    auto model = fx.model;
    model.tiering = Tier(cap, 64);
    train::ReferenceDlrm tiered(model, /*seed=*/42);
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(tiered.TrainStep(fx.base_batch, kLr),
                dense_losses[static_cast<std::size_t>(k)])
          << "cap " << cap << " step " << k;
    }
    EXPECT_TRUE(
        BitwiseEq(tiered.Forward(fx.base_batch, false), fwd_base))
        << "cap " << cap;
    EXPECT_TRUE(BitwiseEq(tiered.Forward(fx.recd_batch, true), fwd_recd))
        << "cap " << cap;
    const auto order = ModelTableOrder(fx.model);
    for (const auto& f : order) {
      EXPECT_TRUE(
          BitwiseEq(tiered.table(f).weights(), dense_ref.table(f).weights()))
          << "cap " << cap << " table " << f;
    }
    const auto tier = tiered.TierStats();
    EXPECT_GT(tier.row_fetches, 0u);
    if (cap == 0) {
      EXPECT_EQ(tier.hot_hits, 0u);
    }
  }
}

TEST(EmbstoreTrainerDeterminismTest,
     DistributedBitwiseAcrossCapacitiesRanksAndModes) {
  const auto fx = MakeFixture();
  train::ReferenceDlrm ref(fx.model, /*seed=*/42);
  std::vector<float> ref_losses;
  for (int k = 0; k < 2; ++k) {
    ref_losses.push_back(ref.TrainStep(fx.base_batch, kLr));
  }

  for (const std::size_t cap : {0u, 32u, 1u << 20}) {
    auto model = fx.model;
    model.tiering = Tier(cap, 64);
    for (const std::size_t n : {1u, 2u, 4u}) {
      for (const bool recd : {false, true}) {
        train::DistributedConfig config;
        config.num_ranks = n;
        config.recd = recd;
        config.lr = kLr;
        config.seed = 42;
        train::DistributedTrainer dist(model, config);
        const auto& batch = recd ? fx.recd_batch : fx.base_batch;
        const std::string what = "cap " + std::to_string(cap) + " " +
                                 (recd ? "recd" : "base") + "/" +
                                 std::to_string(n) + " ranks";
        for (int k = 0; k < 2; ++k) {
          EXPECT_EQ(dist.Step(batch),
                    ref_losses[static_cast<std::size_t>(k)])
              << what << ": loss differs at step " << k;
        }
        const auto order = ModelTableOrder(fx.model);
        for (std::size_t t = 0; t < order.size(); ++t) {
          EXPECT_TRUE(BitwiseEq(dist.table(t).weights(),
                                ref.table(order[t]).weights()))
              << what << ": table " << order[t];
        }
        EXPECT_GT(dist.TierStatsTotal().row_fetches, 0u) << what;
      }
    }
  }
}

TEST(EmbstoreTrainerDeterminismTest, CheckpointRoundTripsAcrossBackends) {
  // A checkpoint taken from a tiered trainer restores bitwise into a
  // dense trainer and vice versa — tier placement is invisible to the
  // checkpoint surface.
  const auto fx = MakeFixture();
  auto tiered_model = fx.model;
  tiered_model.tiering = Tier(32, 64);

  train::DistributedConfig config;
  config.num_ranks = 2;
  config.lr = kLr;
  config.seed = 42;
  train::DistributedTrainer tiered(tiered_model, config);
  (void)tiered.Step(fx.base_batch);
  const auto ckpt = train::CaptureCheckpoint(tiered, /*next_step=*/1);

  train::DistributedTrainer dense(fx.model, config);
  train::DistributedTrainer tiered2(tiered_model, config);
  dense.LoadState(ckpt);
  tiered2.LoadState(ckpt);
  const float a = dense.Step(fx.base_batch);
  const float b = tiered2.Step(fx.base_batch);
  const float c = tiered.Step(fx.base_batch);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  for (std::size_t t = 0; t < fx.model.num_tables(); ++t) {
    EXPECT_TRUE(BitwiseEq(dense.table(t).weights(),
                          tiered2.table(t).weights()))
        << "table " << t;
  }
}

TEST(EmbstoreTrainerDeterminismTest, FileBackedColdStoreMatchesInMemory) {
  const auto fx = MakeFixture();
  auto mem_model = fx.model;
  mem_model.tiering = Tier(32, 64);
  auto file_model = fx.model;
  file_model.tiering = Tier(32, 64);
  const ScopedTempDir tmp("trainer");
  file_model.tiering.cold_dir = tmp.path();

  train::ReferenceDlrm mem(mem_model, /*seed=*/42);
  train::ReferenceDlrm file(file_model, /*seed=*/42);
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(file.TrainStep(fx.base_batch, kLr),
              mem.TrainStep(fx.base_batch, kLr));
  }
  for (const auto& f : ModelTableOrder(fx.model)) {
    EXPECT_TRUE(BitwiseEq(file.table(f).weights(), mem.table(f).weights()));
  }
}

// --------------------------------------------------- serve determinism --

TEST(EmbstoreServeDeterminismTest, TieredReplicasScoreBitwiseIdentically) {
  auto spec = datagen::RmDataset(datagen::RmKind::kRm2, 0.02);
  spec.concurrent_sessions = 8;
  spec.mean_session_size = 24;
  auto model = train::RmModel(datagen::RmKind::kRm2, spec);
  model.emb_hash_size = 600;
  model.emb_dim = 12;
  model.bottom_mlp_hidden = {16};
  model.top_mlp_hidden = {32, 16};

  serve::TraceSpec trace_spec;
  trace_spec.dataset = spec;
  trace_spec.query.num_requests = 32;
  trace_spec.query.candidates = 4;
  trace_spec.query.qps = 50'000;

  // Tiering is a ModelSpec concern: same trace, same architecture, one
  // zoo member dense and one serving from the tiered store.
  serve::ModelSpec dense_model;
  dense_model.config = model;
  serve::ServerRunner dense_runner(
      trace_spec, serve::FleetSpec::Single(dense_model, /*num_workers=*/2));
  serve::ModelSpec tiered_spec;
  tiered_spec.config = model;
  tiered_spec.config.tiering = Tier(64, 64);
  serve::ServerRunner tiered_runner(
      trace_spec, serve::FleetSpec::Single(tiered_spec, /*num_workers=*/2));

  for (const bool recd : {false, true}) {
    const serve::RunPolicy policy =
        recd ? serve::RunPolicy::Recd() : serve::RunPolicy::Baseline();
    const auto dense = dense_runner.Run(policy);
    const auto tiered = tiered_runner.Run(policy);
    ASSERT_EQ(dense.requests.size(), tiered.requests.size());
    for (std::size_t i = 0; i < dense.requests.size(); ++i) {
      ASSERT_EQ(dense.requests[i].request_id,
                tiered.requests[i].request_id);
      ASSERT_EQ(dense.requests[i].scores.size(),
                tiered.requests[i].scores.size());
      for (std::size_t k = 0; k < dense.requests[i].scores.size(); ++k) {
        EXPECT_EQ(dense.requests[i].scores[k],
                  tiered.requests[i].scores[k])
            << "recd=" << recd << " request " << i << " candidate " << k;
      }
    }
    EXPECT_EQ(dense.stats.tier.row_fetches, 0u);
    EXPECT_GT(tiered.stats.tier.row_fetches, 0u);
  }
}

// --------------------------------------------------------- concurrency --

TEST(EmbstoreConcurrencyTest, ManyReadersRaceEvictionWithoutTearing) {
  // Tiny hot tier + many threads fetching overlapping skewed row sets:
  // every fetched row must be bit-exact while admission/eviction churns
  // underneath (run under TSan by scripts/check.sh and ci.sh).
  const auto w = RandomMatrix(256, 8, 30);
  TieredRowStore store(w, Tier(/*hot_capacity_rows=*/8,
                               /*rows_per_segment=*/16));
  constexpr int kThreads = 4;
  constexpr int kPasses = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> rows;
      std::vector<std::uint64_t> weights;
      for (int i = 0; i < 24; ++i) {
        // Skewed, overlapping across threads; distinct tails. Weights
        // differ per row so hot rows genuinely displace cold residents
        // (uniform weights would tie and never evict — by design).
        rows.push_back(i % 3 == 0 ? 7 : (t * 31 + i * 11) % 256);
        weights.push_back(1 + (static_cast<std::uint64_t>(i) % 5) * 3);
      }
      std::vector<float> out(rows.size() * 8);
      for (int pass = 0; pass < kPasses; ++pass) {
        store.Gather(rows, weights, out.data());
        for (std::size_t i = 0; i < rows.size(); ++i) {
          if (std::memcmp(out.data() + i * 8, w.row(rows[i]).data(),
                          8 * sizeof(float)) != 0) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto s = store.stats();
  EXPECT_EQ(s.row_fetches,
            static_cast<std::uint64_t>(kThreads) * kPasses * 24);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_TRUE(BitwiseEq(store.Materialize(), w));
}

TEST(EmbstoreConcurrencyTest, ConcurrentUpdatesSettleToLastWriterPerRow) {
  // Disjoint row ranges per thread: readers and writers interleave
  // freely, and each thread's final write must be the surviving bits.
  const auto w = RandomMatrix(64, 4, 31);
  TieredRowStore store(w, Tier(4, 8));
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t lo = static_cast<std::size_t>(t) * 16;
      std::vector<std::size_t> rows(16);
      for (std::size_t i = 0; i < 16; ++i) rows[i] = lo + i;
      std::vector<float> buf(16 * 4);
      for (int pass = 0; pass < 20; ++pass) {
        store.Gather(rows, {}, buf.data());
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf[i] = static_cast<float>(t * 1000 + pass);
        }
        store.Update(rows, buf.data());
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto settled = store.Materialize();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < 16; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(settled.at(static_cast<std::size_t>(t) * 16 + r, c),
                  static_cast<float>(t * 1000 + 19));
      }
    }
  }
}

}  // namespace
}  // namespace recd::embstore
