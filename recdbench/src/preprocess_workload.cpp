// preprocess_rm3_lowdup: RM3 traffic at the production-like 4096
// concurrent sessions, each one impression long, so even the clustered
// table holds one sample per session and dedup finds little. Set-up generates the traffic; the timed region
// repeats cycles of the RecD write path (Scribe, ETL, land) followed by
// full ReaderPool scans of the landed table. No trainer.
#include <algorithm>
#include <optional>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "ingest.h"
#include "reader/reader_pool.h"
#include "train/model.h"

namespace recd::bench {
namespace {

struct PreprocessShape {
  double scale = 0.1;
  std::size_t sessions = 4096;
  std::size_t num_samples = 30'000;
  std::size_t samples_per_partition = 10'000;
  std::size_t batch_size = 512;
  // One pool thread plus the caller: with three, two busy neighbour
  // threads on the 4-vCPU reference host cut the ingest rate by ~13%;
  // with one, by nothing measurable.
  std::size_t ingest_threads = 1;
  std::size_t reader_workers = 2;
  std::size_t scans_per_cycle = 2;
  std::size_t setup_reps = 5;
  std::size_t min_batches = 100;  // p90 needs 10 samples beyond it
};

PreprocessShape ShapeFor(const Options& options) {
  PreprocessShape s;
  if (options.tiny) {
    s.scale = 0.05;
    s.sessions = 512;
    s.num_samples = 4'000;
    s.batch_size = 32;
    s.setup_reps = 2;
  }
  return s;
}

struct ScanResult {
  std::size_t rows = 0;
  std::uint64_t digest = kDigestSeed;
};

struct CycleStats {
  Samples ingest_samples_per_s;
  Samples read_samples_per_s;
  Samples next_batch_ms;
  reader::StageTimes reader_times;
  std::size_t scans = 0;
  std::size_t rows_read = 0;
  std::size_t bytes_read = 0;
};

/// Dedup outcome of a batch stream. It is a function of the stream
/// alone, so it is taken from the untimed reference scan.
struct TensorStats {
  std::size_t batches = 0;
  double values_before = 0;
  double values_after = 0;
  double samples_per_session_sum = 0;
};

/// One full scan; `stats` collects the reader measurements, `tensor`
/// the dedup outcome, and `drop_batch` discards one delivered batch
/// (the self-test's fault).
ScanResult Scan(storage::BlobStore& store, const storage::Table& table,
                const reader::DataLoaderConfig& loader, Spans& spans,
                CycleStats* stats, TensorStats* tensor, bool drop_batch) {
  ScanResult out;
  std::optional<reader::ReaderPool> rdr;
  {
    Spans::Scope span(spans, "reader.open");
    rdr.emplace(store, table, loader, reader::ReaderOptions{.use_ikjt = true});
  }
  for (;;) {
    const double t0 = NowS();
    std::optional<reader::PreprocessedBatch> batch;
    {
      Spans::Scope span(spans, "reader.wait");
      batch = rdr->NextBatch();
    }
    if (!batch) break;
    // The consumer's own work: the digest, and freeing the batch.
    Spans::Scope span(spans, "bench.consume");
    if (drop_batch) {
      drop_batch = false;
    } else {
      if (stats != nullptr) stats->next_batch_ms.Add((NowS() - t0) * 1e3);
      if (tensor != nullptr) {
        ++tensor->batches;
        for (const auto& g : batch->group_stats) {
          tensor->values_before += static_cast<double>(g.values_before);
          tensor->values_after += static_cast<double>(g.values_after);
        }
        tensor->samples_per_session_sum += batch->SamplesPerSession();
      }
      out.rows += batch->batch_size;
      out.digest = DigestBatch(out.digest, *batch);
    }
    batch.reset();
  }
  Spans::Scope span(spans, "reader.close");
  if (stats != nullptr) {
    const auto& times = rdr->times();
    stats->reader_times.fill_s += times.fill_s;
    stats->reader_times.convert_s += times.convert_s;
    stats->reader_times.process_s += times.process_s;
    stats->rows_read += rdr->io().rows_read;
    stats->bytes_read += rdr->io().bytes_read;
    ++stats->scans;
  }
  rdr.reset();
  return out;
}

}  // namespace

void RunPreprocess(const Options& options, Spans& spans, Report& report) {
  const PreprocessShape shape = ShapeFor(options);
  auto dataset = datagen::RmDataset(datagen::RmKind::kRm3, shape.scale,
                                    common::Mix64(options.seed));
  dataset.concurrent_sessions = shape.sessions;
  dataset.mean_session_size = 1.0;
  const auto model = train::RmModel(datagen::RmKind::kRm3, dataset);
  auto loader =
      core::MakePipelineLoader(model, core::RecdConfig::Full(shape.batch_size));
  loader.num_workers = shape.reader_workers;
  report.Info("threads",
              "ingest: ThreadPool(" + std::to_string(shape.ingest_threads) +
                  ") + caller; read: ReaderPool(" +
                  std::to_string(shape.reader_workers) +
                  " fill + " + std::to_string(shape.reader_workers) +
                  " convert workers + assembler) + consumer");
  report.Info("num_samples", static_cast<double>(shape.num_samples));
  report.Info("batch_size", static_cast<double>(shape.batch_size));
  report.Info("item", "a sample through one ingest and one scan");
  report.Info("op", "ReaderPool::NextBatch");

  common::ThreadPool pool(shape.ingest_threads);

  // ---- Set-up: generate the traffic, repeated. -----------------------
  Samples setup_s;
  datagen::TrafficGenerator::Traffic traffic;
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    traffic = {};
    spans.SetActive(rep + 1 == shape.setup_reps);
    const double t0 = NowS();
    Spans::Scope span(spans, "datagen.generate");
    traffic = datagen::TrafficGenerator(dataset).Generate(shape.num_samples);
    setup_s.Add(NowS() - t0);
  }

  // ---- Timed region: ingest + scan cycles until the time is up. -------
  CycleStats untraced;
  CycleStats traced;
  std::vector<ScanResult> scans;
  std::vector<std::size_t> landed_rows;  // per scan
  Ingested last;
  bool drop = options.fault == Fault::kDropBatch;
  const double start = NowS();
  for (std::size_t segment = 0;; ++segment) {
    const bool trace_this = options.trace && segment % 2 == 1;
    CycleStats& stats = trace_this ? traced : untraced;
    const CycleStats& measured = options.trace ? traced : untraced;
    if (TimeUp(start, options.seconds, segment) &&
        measured.next_batch_ms.size() >= shape.min_batches &&
        untraced.scans > 0) {
      break;
    }
    last = Ingested{};  // release the previous cycle's table first
    spans.SetActive(trace_this);
    Spans::Scope root(spans, "timed");
    const double t0 = NowS();
    last = Ingest(traffic, dataset, shape.samples_per_partition, &pool, spans);
    const double ingest_s = NowS() - t0;
    stats.ingest_samples_per_s.Add(
        static_cast<double>(last.landed.rows) / ingest_s);
    for (std::size_t k = 0; k < shape.scans_per_cycle; ++k) {
      const double s0 = NowS();
      scans.push_back(
          Scan(*last.store, last.landed.table, loader, spans, &stats, nullptr,
               drop));
      drop = false;
      stats.read_samples_per_s.Add(static_cast<double>(scans.back().rows) /
                                   (NowS() - s0));
      landed_rows.push_back(last.landed.rows);
    }
  }
  spans.SetActive(false);

  // ---- Correctness (untimed): every joined sample is landed and read,
  // and every scan delivers the batch stream of a single-worker scan,
  // byte for byte.
  const std::size_t expected =
      etl::JoinLogs(traffic.features, traffic.events).size();
  auto single = loader;
  single.num_workers = 1;
  TensorStats tensor;
  const ScanResult reference = Scan(*last.store, last.landed.table, single,
                                    spans, nullptr, &tensor, false);
  if (reference.rows != expected) {
    report.Fail("1-worker scan read " + std::to_string(reference.rows) +
                " of " + std::to_string(expected) + " samples");
  }
  for (std::size_t i = 0; i < scans.size(); ++i) {
    report.Attempt(expected);
    if (scans[i].rows < expected) report.Failed(expected - scans[i].rows);
    if (landed_rows[i] != expected || scans[i].rows != expected) {
      report.Fail("scan " + std::to_string(i) + " read " +
                  std::to_string(scans[i].rows) + " rows of " +
                  std::to_string(landed_rows[i]) + " landed and " +
                  std::to_string(expected) + " joined samples");
    }
    if (scans[i].digest != reference.digest) {
      report.Fail("scan " + std::to_string(i) +
                  " batch stream differs from the 1-worker scan");
    }
  }

  // ---- Metrics. ------------------------------------------------------
  const auto& landed = last.landed;
  if (!options.trace) {
    report.Info("setup_s.reps", setup_s.Join());
    report.Info("ingest_samples_per_s.cycles",
                untraced.ingest_samples_per_s.Join());
    report.Info("read_samples_per_s.scans", untraced.read_samples_per_s.Join());
    const double ingest_rate = TypicalRate(untraced.ingest_samples_per_s);
    const double read_rate = TypicalRate(untraced.read_samples_per_s);
    report.Metric("setup_s", setup_s.Median(), "s");
    report.Metric("items_per_s", 1.0 / (1.0 / ingest_rate + 1.0 / read_rate),
                  "items/s");
    report.Metric("ingest_samples_per_s", ingest_rate, "samples/s");
    report.Metric("read_samples_per_s", read_rate, "samples/s");
    report.Metric("stored_bytes_per_sample",
                  static_cast<double>(landed.stored_bytes) /
                      static_cast<double>(landed.rows),
                  "bytes");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }
  const CycleStats& s = traced;
  const double n_scans = static_cast<double>(s.scans);
  report.Metric("scribe.compression_ratio", last.scribe_compression_ratio, "x");
  report.Metric("etl.samples_per_session", last.samples_per_session, "samples");
  report.Metric("storage.compression_ratio", landed.compression_ratio(), "x");
  report.Metric("storage.stored_bytes", static_cast<double>(landed.stored_bytes),
                "bytes");
  report.Percentile("op_ms.p50", s.next_batch_ms, 0.50, "ms");
  report.Percentile("op_ms.p90", s.next_batch_ms, 0.90, "ms");
  report.Metric("reader.fill_cpu_s", s.reader_times.fill_s / n_scans, "s");
  report.Metric("reader.convert_cpu_s", s.reader_times.convert_s / n_scans,
                "s");
  report.Metric("reader.process_cpu_s", s.reader_times.process_s / n_scans,
                "s");
  report.Metric("reader.rows_read", static_cast<double>(s.rows_read) / n_scans,
                "rows");
  report.Metric("reader.bytes_read",
                static_cast<double>(s.bytes_read) / n_scans, "bytes");
  report.Metric("dedupe_factor",
                tensor.values_before / tensor.values_after, "x");
  report.Metric("tensor.batch_samples_per_session",
                tensor.samples_per_session_sum /
                    static_cast<double>(tensor.batches),
                "samples");
  // Tracing overhead on the two headline rates.
  report.Metric("trace.overhead_frac",
                TracingOverhead(TypicalRate(untraced.read_samples_per_s),
                                TypicalRate(traced.read_samples_per_s), true),
                "frac");
  report.Metric("trace.ingest_overhead_frac",
                TracingOverhead(TypicalRate(untraced.ingest_samples_per_s),
                                TypicalRate(traced.ingest_samples_per_s), true),
                "frac");
  ReportSelfTimes(spans, "timed", report);
}

}  // namespace recd::bench
