// Figure 10: reader CPU time per sample, broken into Fill / Convert /
// Process, RecD normalized to each RM's baseline. Wall-clock measured on
// the real reader implementation.
//
// Paper: fill time -50%/-33%/-46%; convert +21%/+37%/+11% (tiny in
// absolute terms); process -13%/-11%/+3%; conversion overhead overall
// ~1% and swamped by fill savings.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"

namespace {

struct Breakdown {
  double fill = 0, convert = 0, process = 0;
  [[nodiscard]] double total() const { return fill + convert + process; }
};

Breakdown RunReader(recd::storage::BlobStore& store,
                    const recd::storage::Table& table,
                    const recd::train::ModelConfig& model, bool use_ikjt) {
  using namespace recd;
  auto loader = train::MakeDataLoaderConfig(model, 512, use_ikjt);
  // Representative preprocessing: hash every dedup-able feature group +
  // normalize dense (paper: normalization and hashing transforms).
  for (const auto& g : model.sequence_groups) {
    loader.transforms.push_back({reader::TransformKind::kSparseHash,
                                 g.features.front(), 1'000'003, 0});
  }
  for (const auto& f : model.elementwise_features) {
    loader.transforms.push_back(
        {reader::TransformKind::kSparseHash, f, 1'000'003, 0});
  }
  loader.transforms.push_back(
      {reader::TransformKind::kDenseNormalize, "", 0.0, 1.0});
  reader::ReaderPool rdr(store, table, loader,
                         reader::ReaderOptions{.use_ikjt = use_ikjt});
  while (rdr.NextBatch().has_value()) {
  }
  return {rdr.times().fill_s, rdr.times().convert_s,
          rdr.times().process_s};
}

/// Wall-clock rows/s of one full RecD scan of `table` at `workers`.
double ScanRowsPerSecond(recd::storage::BlobStore& store,
                         const recd::storage::Table& table,
                         const recd::train::ModelConfig& model,
                         std::size_t workers) {
  using namespace recd;
  auto loader = train::MakeDataLoaderConfig(model, 512, true);
  loader.num_workers = workers;
  reader::ReaderPool pool(store, table, loader,
                          reader::ReaderOptions{.use_ikjt = true});
  common::Stopwatch wall;
  wall.Start();
  std::size_t rows = 0;
  while (auto batch = pool.NextBatch()) rows += batch->batch_size;
  wall.Stop();
  return static_cast<double>(rows) / wall.seconds();
}

/// Fixed integer work (a xorshift chain) the compiler cannot elide.
std::uint64_t Spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Usable parallelism: `threads` threads each spin what one thread
/// spins alone; threads * t1 / tN is how many of them truly ran at once.
double SpinProbe(std::size_t threads) {
  const std::uint64_t iters =
      recd::bench::SmokeOr<std::uint64_t>(20'000'000, 1'000'000);
  std::atomic<std::uint64_t> sink{0};
  recd::common::Stopwatch one;
  one.Start();
  sink += Spin(iters);
  one.Stop();
  recd::common::Stopwatch many;
  many.Start();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, iters] { sink += Spin(iters); });
  }
  for (auto& t : pool) t.join();
  many.Stop();
  if (sink.load() == 42) std::fputc(' ', stderr);
  return static_cast<double>(threads) * one.seconds() / many.seconds();
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recd;
  bench::JsonReport report("bench_fig10_reader_breakdown");
  // The breakdown section reads single-threaded; the scaling section
  // sweeps num_workers 1..8 (keys carry the worker count).
  report.SetHostField("num_threads", 1);
  bench::PrintHeader("Figure 10: reader CPU time breakdown per sample");
  std::printf("%-4s %-10s %8s %9s %9s %8s\n", "RM", "config", "fill",
              "convert", "process", "total");
  bench::PrintRule();

  const datagen::RmKind kinds[3] = {datagen::RmKind::kRm1,
                                    datagen::RmKind::kRm2,
                                    datagen::RmKind::kRm3};
  for (int i = 0; i < 3; ++i) {
    auto b = bench::RmBench::Make(kinds[i], 8);
    datagen::TrafficGenerator gen(b.spec);
    const auto traffic = gen.Generate(bench::SmokeOr<std::size_t>(16'000, 1'500));
    auto samples = etl::JoinLogs(traffic.features, traffic.events);

    storage::StorageSchema schema;
    schema.num_dense = b.spec.num_dense;
    for (const auto& f : b.spec.sparse) {
      schema.sparse_names.push_back(f.name);
    }
    // Baseline table: inference order. RecD table: clustered.
    storage::BlobStore store;
    auto base_landed = storage::LandTable(store, "base", schema, {samples});
    auto clustered = samples;
    etl::ClusterBySession(clustered);
    auto recd_landed =
        storage::LandTable(store, "recd", schema, {clustered});

    const auto base = RunReader(store, base_landed.table, b.model, false);
    const auto recd = RunReader(store, recd_landed.table, b.model, true);

    const double norm = base.total();
    auto row = [&](const char* config, const Breakdown& t) {
      std::printf("%-4s %-10s %7.1f%% %8.1f%% %8.1f%% %7.1f%%\n",
                  bench::RmName(kinds[i]), config, 100 * t.fill / norm,
                  100 * t.convert / norm, 100 * t.process / norm,
                  100 * t.total() / norm);
    };
    row("baseline", base);
    row("RecD", recd);
    std::printf(
        "%-4s fill %+.0f%% (paper -50/-33/-46), convert %+.0f%% "
        "(paper +21/+37/+11), process %+.0f%% (paper -13/-11/+3)\n",
        bench::RmName(kinds[i]), 100 * (recd.fill / base.fill - 1),
        100 * (recd.convert / base.convert - 1),
        100 * (recd.process / base.process - 1));
    bench::PrintRule();

    const double paper_fill[3] = {-50, -33, -46};
    const double paper_convert[3] = {21, 37, 11};
    const double paper_process[3] = {-13, -11, 3};
    const std::string rm = "rm" + std::to_string(i + 1);
    report.Add(rm + "_fill_delta", 100 * (recd.fill / base.fill - 1),
               paper_fill[i], "%");
    report.Add(rm + "_convert_delta",
               100 * (recd.convert / base.convert - 1), paper_convert[i],
               "%");
    report.Add(rm + "_process_delta",
               100 * (recd.process / base.process - 1), paper_process[i],
               "%");
  }

  // ---- ReaderPool scaling: DPP-style reader fleet on one host. -------
  // The paper's readers scale out as a tier (§2.1); here N workers scan
  // the RM1 RecD table and wall-clock rows/s is measured per N. The
  // batch stream is byte-identical for every N (ordered reassembly), so
  // this isolates pure parallel speedup. A shared host's neighbour load
  // drifts during the run, so the counts run interleaved for several
  // rounds, each round starting at a different count; speedups pair
  // each scan with the same round's one-worker scan, and a spin probe
  // per round records how much parallelism the host actually gave.
  bench::PrintHeader("ReaderPool scaling (RM1, RecD table, wall clock)");
  {
    auto b = bench::RmBench::Make(datagen::RmKind::kRm1, 8);
    datagen::TrafficGenerator gen(b.spec);
    const auto traffic = gen.Generate(bench::SmokeOr<std::size_t>(16'000, 1'500));
    auto samples = etl::JoinLogs(traffic.features, traffic.events);
    etl::ClusterBySession(samples);
    storage::StorageSchema schema;
    schema.num_dense = b.spec.num_dense;
    for (const auto& f : b.spec.sparse) {
      schema.sparse_names.push_back(f.name);
    }
    storage::BlobStore store;
    const auto landed =
        storage::LandTable(store, "scale", schema, {samples});

    constexpr std::size_t kWorkers[] = {1, 2, 4, 8};
    constexpr std::size_t kCounts = std::size(kWorkers);
    const std::size_t rounds = bench::SmokeOr<std::size_t>(7, 2);
    std::vector<std::vector<double>> rates(kCounts);
    std::vector<double> probes;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t j = 0; j < kCounts; ++j) {
        const std::size_t i = (j + round) % kCounts;
        rates[i].push_back(
            ScanRowsPerSecond(store, landed.table, b.model, kWorkers[i]));
      }
      probes.push_back(SpinProbe(4));
    }
    const double probe = Median(probes);
    std::printf("%zu interleaved rounds; 4-thread spin probe: median "
                "%.2f, min %.2f, max %.2f usable threads\n",
                rounds, probe, *std::min_element(probes.begin(), probes.end()),
                *std::max_element(probes.begin(), probes.end()));
    std::printf("%-8s %14s %10s %18s\n", "workers", "rows/s (med)",
                "speedup", "speedup min-max");
    bench::PrintRule();
    for (std::size_t i = 0; i < kCounts; ++i) {
      std::vector<double> speedups;
      for (std::size_t r = 0; r < rounds; ++r) {
        speedups.push_back(rates[i][r] / rates[0][r]);
      }
      const double lo = *std::min_element(speedups.begin(), speedups.end());
      const double hi = *std::max_element(speedups.begin(), speedups.end());
      const double rate = Median(rates[i]);
      const double speedup = Median(speedups);
      std::printf("%-8zu %14.0f %9.2fx %10.2fx-%.2fx\n", kWorkers[i], rate,
                  speedup, lo, hi);
      const std::string w = "_w" + std::to_string(kWorkers[i]);
      report.Add("reader_pool_rows_per_s" + w, rate, std::nullopt, "rows/s");
      report.Add("reader_pool_speedup" + w, speedup, std::nullopt, "x");
      report.Add("reader_pool_speedup" + w + "_min", lo, std::nullopt, "x");
      report.Add("reader_pool_speedup" + w + "_max", hi, std::nullopt, "x");
    }
    report.Add("reader_pool_rounds", static_cast<double>(rounds),
               std::nullopt, "count");
    report.Add("usable_parallelism_4thread_spin", probe, std::nullopt,
               "threads");
  }
  bench::PrintRule();
  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}
