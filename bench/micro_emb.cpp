// Trainer-op microbenchmarks with real math: embedding pooling and
// attention over KJT (expanded) vs IKJT (deduplicated + expand) inputs —
// the O5/O7 kernels the simulator's counters are calibrated against.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "tensor/ikjt.h"
#include "tensor/jagged_ops.h"
#include "train/reference.h"

namespace {

using namespace recd;
using tensor::Id;

struct DedupBatch {
  tensor::KeyedJaggedTensor kjt;   // expanded
  tensor::InverseKeyedJaggedTensor ikjt;
};

DedupBatch MakeBatch(std::size_t rows, std::size_t len, double dup) {
  common::Rng rng(rows + len);
  tensor::JaggedTensor jt;
  std::vector<Id> current;
  for (std::size_t r = 0; r < rows; ++r) {
    if (r == 0 || !rng.Bernoulli(dup)) {
      current.clear();
      for (std::size_t i = 0; i < len; ++i) {
        current.push_back(rng.Uniform(0, 100'000));
      }
    }
    jt.AppendRow(current);
  }
  DedupBatch b;
  b.kjt.AddFeature("f", std::move(jt));
  const std::vector<std::string> group = {"f"};
  b.ikjt = tensor::DeduplicateGroup(b.kjt, group);
  return b;
}

void BM_SumPoolKjt(benchmark::State& state) {
  const auto batch = MakeBatch(2048, 32, 0.9);
  common::Rng rng(1);
  nn::EmbeddingTable table(100'000, 64, rng);
  for (auto _ : state) {
    auto out = table.PooledForward(batch.kjt.Get("f"));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SumPoolKjt);

void BM_SumPoolIkjtThenExpand(benchmark::State& state) {
  const auto batch = MakeBatch(2048, 32, 0.9);
  common::Rng rng(1);
  nn::EmbeddingTable table(100'000, 64, rng);
  for (auto _ : state) {
    auto pooled = table.PooledForward(batch.ikjt.Unique("f"));
    auto out = train::ExpandRows(pooled, batch.ikjt.inverse_lookup());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SumPoolIkjtThenExpand);

void BM_AttentionPoolKjt(benchmark::State& state) {
  const auto batch = MakeBatch(256, 48, 0.9);
  common::Rng rng(1);
  nn::EmbeddingTable table(100'000, 32, rng);
  nn::SelfAttentionPooling attn(32);
  for (auto _ : state) {
    const auto& jt = batch.kjt.Get("f");
    auto seq = table.SequenceForward(jt);
    auto out = attn.Forward(jt, seq);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AttentionPoolKjt);

void BM_AttentionPoolIkjtThenExpand(benchmark::State& state) {
  const auto batch = MakeBatch(256, 48, 0.9);
  common::Rng rng(1);
  nn::EmbeddingTable table(100'000, 32, rng);
  nn::SelfAttentionPooling attn(32);
  for (auto _ : state) {
    const auto& unique = batch.ikjt.Unique("f");
    auto seq = table.SequenceForward(unique);
    auto pooled = attn.Forward(unique, seq);
    auto out = train::ExpandRows(pooled, batch.ikjt.inverse_lookup());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AttentionPoolIkjtThenExpand);

}  // namespace
