// train_rm1_highdup: RM1 at scale 0.1 over few concurrent sessions, so a
// 512-sample batch holds many samples of each session and RecD's
// dedup has rows to share. Set-up generates and ingests one epoch of
// traffic with the full RecD config and builds a 2-rank trainer in RecD
// mode; the timed region trains epoch after epoch, the reader running
// inline (one worker) in front of DistributedTrainer::Step.
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/hash.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "ingest.h"
#include "obs/metrics.h"
#include "reader/reader_pool.h"
#include "train/distributed.h"
#include "train/model.h"
#include "train/reference.h"

namespace recd::bench {
namespace {

struct TrainShape {
  double scale = 0.1;
  std::size_t sessions = 64;
  std::size_t emb_hash_size = 10'000;
  std::size_t batch_size = 512;
  std::size_t epoch_batches = 24;
  std::size_t ranks = 2;
  std::size_t setup_reps = 6;
  std::size_t min_steps = 100;   // p90 needs 10 samples beyond it
  std::size_t checked_steps = 2; // replayed through ReferenceDlrm
};

TrainShape ShapeFor(const Options& options) {
  TrainShape s;
  if (options.tiny) {
    s.scale = 0.05;
    s.sessions = 16;
    s.emb_hash_size = 2'000;
    s.batch_size = 64;
    s.epoch_batches = 8;
    s.setup_reps = 2;
  }
  return s;
}

constexpr float kLr = 0.05f;

/// What one set-up produces: the landed epoch and a fresh trainer.
struct Setup {
  Ingested ingested;
  std::unique_ptr<train::DistributedTrainer> trainer;
};

/// Layer measurements accumulated over the epochs of one kind (traced
/// or untraced).
struct EpochStats {
  Samples epoch_samples_per_s;
  Samples next_batch_us;
  Samples step_ms;
  reader::StageTimes reader_times;
  std::size_t rows_read = 0;
  std::size_t bytes_read = 0;
  std::size_t epochs = 0;
  std::size_t steps = 0;
  double values_before = 0;
  double values_after = 0;
  double samples_per_session_sum = 0;
  double comm_wait_us = 0;
};

double CommWaitUs(const train::DistributedTrainer& trainer) {
  double total = 0;
  for (const auto& e : trainer.comm_metrics().Snapshot().entries) {
    if (e.name == "comm.wait_us") total += static_cast<double>(e.value);
  }
  return total;
}

}  // namespace

void RunTrain(const Options& options, Spans& spans, Report& report) {
  const TrainShape shape = ShapeFor(options);
  auto dataset = datagen::RmDataset(datagen::RmKind::kRm1, shape.scale,
                                    common::Mix64(options.seed));
  dataset.concurrent_sessions = shape.sessions;
  auto model = train::RmModel(datagen::RmKind::kRm1, dataset);
  model.emb_hash_size = shape.emb_hash_size;
  const auto config = core::RecdConfig::Full(shape.batch_size);
  auto loader = core::MakePipelineLoader(model, config);
  loader.num_workers = 1;  // inline reader
  train::DistributedConfig dist;
  dist.num_ranks = shape.ranks;
  dist.recd = true;
  dist.lr = kLr;
  dist.seed = options.seed;
  report.Info("threads", "main thread (inline reader) + " +
                             std::to_string(shape.ranks) + " rank threads");
  report.Info("batch_size", static_cast<double>(shape.batch_size));
  report.Info("item", "a trained sample");
  report.Info("op", "DistributedTrainer::Step");

  const std::size_t epoch_samples = shape.batch_size * shape.epoch_batches;

  // ---- Set-up, repeated; the last one's products are trained on. -----
  Samples setup_s;
  Setup setup;
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    setup = Setup{};  // release the previous repetition first
    spans.SetActive(rep + 1 == shape.setup_reps);
    const double t0 = NowS();
    datagen::TrafficGenerator::Traffic traffic;
    {
      Spans::Scope span(spans, "datagen.generate");
      traffic = datagen::TrafficGenerator(dataset).Generate(epoch_samples);
    }
    setup.ingested = Ingest(traffic, dataset, epoch_samples, nullptr, spans);
    {
      Spans::Scope span(spans, "train.init");
      setup.trainer = std::make_unique<train::DistributedTrainer>(model, dist);
    }
    setup_s.Add(NowS() - t0);
  }
  const auto& table = setup.ingested.landed.table;
  auto& trainer = *setup.trainer;

  // ---- Timed region: whole epochs until the time is up. --------------
  EpochStats untraced;
  EpochStats traced;
  std::vector<reader::PreprocessedBatch> checked_batches;
  std::vector<float> checked_losses;
  bool trainer_failed = false;
  const double start = NowS();
  for (std::size_t segment = 0; !trainer_failed; ++segment) {
    const bool trace_this = options.trace && segment % 2 == 1;
    EpochStats& stats = trace_this ? traced : untraced;
    const EpochStats& measured = options.trace ? traced : untraced;
    if (TimeUp(start, options.seconds, segment) &&
        measured.steps >= shape.min_steps && untraced.epochs > 0) {
      break;
    }
    spans.SetActive(trace_this);
    Spans::Scope root(spans, "timed");
    const double comm_before = CommWaitUs(trainer);
    const double t0 = NowS();
    std::size_t samples = 0;
    std::optional<reader::ReaderPool> rdr;
    {
      Spans::Scope span(spans, "reader.open");
      rdr.emplace(*setup.ingested.store, table, loader,
                  reader::ReaderOptions{.use_ikjt = true});
    }
    for (;;) {
      const double b0 = NowS();
      std::optional<reader::PreprocessedBatch> batch;
      {
        Spans::Scope span(spans, "reader.wait");
        batch = rdr->NextBatch();
      }
      const double b1 = NowS();
      if (!batch) {
        const auto& times = rdr->times();
        stats.reader_times.fill_s += times.fill_s;
        stats.reader_times.convert_s += times.convert_s;
        stats.reader_times.process_s += times.process_s;
        stats.rows_read += rdr->io().rows_read;
        stats.bytes_read += rdr->io().bytes_read;
        break;
      }
      report.Attempt(1);
      float loss = 0;
      try {
        Spans::Scope span(spans, "train.step");
        loss = trainer.Step(*batch);
      } catch (const std::exception& e) {
        report.Failed(1);
        report.Fail(std::string("DistributedTrainer::Step threw: ") + e.what());
        trainer_failed = true;
        break;
      }
      const double b2 = NowS();
      // The consumer's own work, freeing the batch included.
      Spans::Scope span(spans, "bench.consume");
      stats.next_batch_us.Add((b1 - b0) * 1e6);
      stats.step_ms.Add((b2 - b1) * 1e3);
      ++stats.steps;
      samples += batch->batch_size;
      for (const auto& g : batch->group_stats) {
        stats.values_before += static_cast<double>(g.values_before);
        stats.values_after += static_cast<double>(g.values_after);
      }
      stats.samples_per_session_sum += batch->SamplesPerSession();
      if (checked_losses.size() < shape.checked_steps) {
        checked_losses.push_back(loss);
        checked_batches.push_back(std::move(*batch));
      }
      batch.reset();
    }
    {
      Spans::Scope span(spans, "reader.close");
      rdr.reset();
    }
    const double epoch_s = NowS() - t0;
    if (trainer_failed) break;
    stats.epoch_samples_per_s.Add(static_cast<double>(samples) / epoch_s);
    stats.comm_wait_us += CommWaitUs(trainer) - comm_before;
    ++stats.epochs;
  }
  spans.SetActive(false);

  // ---- Correctness (untimed): the first steps' losses must equal a
  // single-rank ReferenceDlrm replay of the same batches, bit for bit.
  if (options.fault == Fault::kBadLoss && !checked_losses.empty()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &checked_losses[0], sizeof(bits));
    bits ^= 1u;
    std::memcpy(&checked_losses[0], &bits, sizeof(bits));
  }
  if (checked_losses.size() < shape.checked_steps && !trainer_failed) {
    report.Fail("fewer steps than the reference check replays");
  }
  train::ReferenceDlrm reference(model, dist.seed);
  for (std::size_t k = 0; k < checked_losses.size(); ++k) {
    const float want = reference.TrainStep(checked_batches[k], kLr);
    if (std::memcmp(&want, &checked_losses[k], sizeof(float)) != 0) {
      report.Fail("step " + std::to_string(k) + " loss " +
                  std::to_string(checked_losses[k]) +
                  " differs from the ReferenceDlrm replay " +
                  std::to_string(want));
    }
  }

  // ---- Metrics. ------------------------------------------------------
  if (trainer_failed) return;  // the failure is the result
  if (!options.trace) {
    report.Info("setup_s.reps", setup_s.Join());
    report.Info("items_per_s.epochs",
                untraced.epoch_samples_per_s.Join());
    report.Metric("setup_s", setup_s.Median(), "s");
    report.Metric("items_per_s", TypicalRate(untraced.epoch_samples_per_s),
                  "items/s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }
  const EpochStats& s = traced;
  const double epochs = static_cast<double>(s.epochs);
  const double steps = static_cast<double>(s.steps);
  const auto& landed = setup.ingested.landed;
  report.Metric("scribe.compression_ratio",
                setup.ingested.scribe_compression_ratio, "x");
  report.Metric("etl.samples_per_session", setup.ingested.samples_per_session,
                "samples");
  report.Metric("storage.compression_ratio", landed.compression_ratio(), "x");
  report.Metric("storage.stored_bytes", static_cast<double>(landed.stored_bytes),
                "bytes");
  report.Percentile("reader.next_batch_us.p50", s.next_batch_us, 0.50, "us");
  report.Percentile("reader.next_batch_us.p90", s.next_batch_us, 0.90, "us");
  report.Metric("reader.fill_cpu_s", s.reader_times.fill_s / epochs, "s");
  report.Metric("reader.convert_cpu_s", s.reader_times.convert_s / epochs, "s");
  report.Metric("reader.process_cpu_s", s.reader_times.process_s / epochs, "s");
  report.Metric("reader.rows_read", static_cast<double>(s.rows_read) / epochs,
                "rows");
  report.Metric("reader.bytes_read", static_cast<double>(s.bytes_read) / epochs,
                "bytes");
  report.Metric("dedupe_factor", s.values_before / s.values_after, "x");
  report.Metric("tensor.batch_samples_per_session",
                s.samples_per_session_sum / steps, "samples");
  report.Percentile("op_ms.p50", s.step_ms, 0.50, "ms");
  report.Percentile("op_ms.p90", s.step_ms, 0.90, "ms");
  const auto counters = trainer.TotalCounters();
  const double all_steps = static_cast<double>(traced.steps + untraced.steps);
  report.Metric("train.sdd_bytes_per_step",
                static_cast<double>(counters.sdd_bytes) / all_steps, "bytes");
  report.Metric("train.emb_bytes_per_step",
                static_cast<double>(counters.emb_bytes) / all_steps, "bytes");
  report.Metric("train.grad_bytes_per_step",
                static_cast<double>(counters.grad_bytes) / all_steps, "bytes");
  report.Metric("train.allreduce_bytes_per_step",
                static_cast<double>(counters.allreduce_bytes) / all_steps,
                "bytes");
  report.Metric("train.exchange_dedupe_factor",
                counters.exchange_dedupe_factor(), "x");
  report.Metric("train.comm_wait_us", s.comm_wait_us / steps, "us/step");
  report.Metric("trace.overhead_frac",
                TracingOverhead(TypicalRate(untraced.epoch_samples_per_s),
                                TypicalRate(traced.epoch_samples_per_s), true),
                "frac");
  ReportSelfTimes(spans, "timed", report);
}

}  // namespace recd::bench
