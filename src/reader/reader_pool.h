// ReaderPool: the reader node (paper Fig 5: Fill → Convert → Process),
// from one inline scan up to a DPP-style parallel fleet (Zhao et al.'s
// distributed preprocessing tier, scaled down to one node).
//
// The constructor opens every table file (footers only) and lists the
// stripes in scan order — the stripe plan. With num_workers <= 1 the
// scan runs inline: each NextBatch fills stripes from the plan on the
// caller's thread until a batch's rows are buffered, then converts and
// processes that batch. No thread or channel is created. With N >= 2
// workers the same steps run as a pipeline:
//
//   fill workers (xN)      assembler (x1)        convert workers (xN)
//   claim stripe tickets → reassemble stripes  → Convert + Process
//   fetch/decrypt/        in scan order, cut     per batch, push into
//   decompress/decode     batch_size row runs    the prefetch queue
//
// Every hand-off is a bounded common::Channel, so a fast stage blocks
// instead of buffering unboundedly (backpressure), and the queue ahead
// of the consumer prefetches `prefetch_batches` batches.
//
// Determinism is the hard invariant: stripes are claimed by globally
// ordered ticket and reassembled in ticket order before batch cutting,
// and batches are re-ordered by sequence number before NextBatch hands
// them out. A run with N workers therefore yields the byte-identical
// batch stream — and identical io() counters — of the inline scan; only
// wall-clock timings differ.
//
// The per-stripe Fill step (FillStripe) and the per-batch Convert →
// Process step (PrepareBatch) are written once, below, and shared by
// the inline scan, the worker threads, and stream::TailingReader.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/channel.h"
#include "common/stopwatch.h"
#include "datagen/sample.h"
#include "obs/metrics.h"
#include "reader/batch.h"
#include "reader/batch_pipeline.h"
#include "reader/dataloader.h"
#include "storage/blob_store.h"
#include "storage/column_file.h"
#include "storage/table.h"

namespace recd::reader {

struct ReaderOptions {
  /// RecD on: dedup groups convert to IKJTs (O3) and transforms run over
  /// deduplicated slices (O4). Off: every feature converts to plain KJT.
  bool use_ikjt = true;
  /// Batches buffered ahead of the consumer in the prefetch queue when
  /// num_workers >= 2. 0 picks 2 x num_workers.
  std::size_t prefetch_batches = 0;
};

struct StageTimes {
  double fill_s = 0;
  double convert_s = 0;
  double process_s = 0;
  /// Wall-clock seconds of the scan as the consumer saw it. With
  /// num_workers <= 1 this stays 0: the scan runs inside NextBatch on
  /// the caller's thread, so total_s() is already wall time. With
  /// workers it is set, since the per-stage sums count CPU seconds
  /// across workers that overlap in real time.
  double wall_s = 0;
  [[nodiscard]] double total_s() const {
    return fill_s + convert_s + process_s;
  }
};

struct ReaderIoStats {
  std::size_t bytes_read = 0;  // compressed bytes fetched from storage
  std::size_t bytes_sent = 0;  // preprocessed batch bytes to trainers
  std::size_t rows_read = 0;
  std::size_t batches_produced = 0;
  std::size_t sparse_elements_processed = 0;  // transform work items (O4)
};

/// The stage seconds and io counters one scan thread accumulates; its
/// owner merges them into the reader's totals.
struct ScanTally {
  StageTimes times;
  ReaderIoStats io;

  /// Sums the stage seconds (wall_s aside) and every io counter.
  ScanTally& operator+=(const ScanTally& other);
};

/// Opens a table file for a scan: reads its footer and tallies those
/// bytes (ColumnFileReader::open_bytes) into bytes_read.
[[nodiscard]] storage::ColumnFileReader OpenForScan(storage::BlobStore& store,
                                                    const std::string& name,
                                                    ScanTally& tally);

/// Fill (paper Fig 5) for one stripe: fetch + decrypt + decompress its
/// projected streams and decode them into rows, under a `reader/fill`
/// span. Tallies fill seconds, rows, and the stripe's bytes —
/// ColumnFileReader::StripeBytes, an analytic count that sums to the
/// store's own measurement in any order and on any thread.
[[nodiscard]] std::vector<datagen::Sample> FillStripe(
    const BatchPipeline& pipeline, const storage::ColumnFileReader& file,
    std::size_t stripe, ScanTally& tally);

/// Moves the first `n` rows of `buffer` out as one batch's rows.
[[nodiscard]] std::vector<datagen::Sample> TakeRows(
    std::deque<datagen::Sample>& buffer, std::size_t n);

/// Convert → Process for one batch, under `reader/convert` and
/// `reader/process` spans. Tallies both stages' seconds, the sparse
/// elements processed, the batch's wire bytes, and the batch itself.
[[nodiscard]] PreprocessedBatch PrepareBatch(const BatchPipeline& pipeline,
                                             std::vector<datagen::Sample> rows,
                                             ScanTally& tally);

class ReaderPool {
 public:
  /// Opens every table file (footers are scanned up front to build the
  /// stripe plan) and, with num_workers >= 2, starts the workers;
  /// prefetching begins immediately. Throws std::out_of_range if the
  /// config names a feature missing from the table schema,
  /// std::invalid_argument on batch_size 0.
  ReaderPool(storage::BlobStore& store, const storage::Table& table,
             DataLoaderConfig config, ReaderOptions options = {});

  /// Joins all workers; safe to call with batches still in flight.
  ~ReaderPool();

  // Not copyable or movable: pipeline_ points into this object's own
  // config_, and the workers capture `this`.
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Next batch in scan order, or nullopt at end of dataset. The final
  /// partial batch (fewer than batch_size rows) is emitted. A failed
  /// batch ends the scan at every worker count: the first exception is
  /// rethrown by this call and by every later one.
  [[nodiscard]] std::optional<PreprocessedBatch> NextBatch();

  [[nodiscard]] std::size_t num_workers() const { return workers_; }

  /// Aggregated stage times. fill/convert/process are CPU seconds
  /// summed across workers; wall_s is real elapsed time of a
  /// multi-worker scan (0 inline). Stable once NextBatch has returned
  /// nullopt.
  [[nodiscard]] const StageTimes& times() const { return times_; }
  /// Io counters, a projection of the pool's metrics() registry (§14:
  /// the registry is the single source of truth). Identical for any
  /// worker count.
  [[nodiscard]] ReaderIoStats io() const;

  /// The pool's metric registry (`reader.*` series).
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

 private:
  struct StripeRef {
    std::size_t file = 0;
    std::size_t stripe = 0;
  };
  struct StripeRows {
    std::size_t seq = 0;
    std::vector<datagen::Sample> rows;
  };
  struct BatchTask {
    std::size_t seq = 0;
    std::vector<datagen::Sample> rows;
  };
  struct BatchOut {
    std::size_t seq = 0;
    PreprocessedBatch batch;
  };

  [[nodiscard]] std::optional<PreprocessedBatch> NextInline();
  void FillWorker();
  void AssemblerLoop();
  void ConvertWorker();
  void Fail(std::exception_ptr error);
  void Merge(const ScanTally& tally);

  DataLoaderConfig config_;
  std::size_t workers_ = 1;
  BatchPipeline pipeline_;
  std::vector<storage::ColumnFileReader> files_;
  std::vector<StripeRef> plan_;  // stripes in scan order

  std::atomic<std::size_t> next_stripe_{0};

  // ---- Inline scan state (num_workers <= 1). ------------------------
  std::deque<datagen::Sample> inline_rows_;  // filled, not yet batched

  // ---- Worker pipeline state (num_workers >= 2). --------------------
  std::atomic<std::size_t> fill_live_{0};
  std::atomic<std::size_t> convert_live_{0};

  std::optional<common::Channel<StripeRows>> stripe_channel_;
  std::optional<common::Channel<BatchTask>> task_channel_;
  std::optional<common::Channel<BatchOut>> batch_channel_;

  // Consumer-side reorder buffer: batches completed out of order wait
  // here until their sequence number comes up.
  std::map<std::size_t, PreprocessedBatch> reorder_;
  std::size_t next_batch_seq_ = 0;
  bool exhausted_ = false;
  common::Stopwatch wall_;

  std::mutex error_mutex_;
  std::exception_ptr error_;

  // ---- Totals, merged from ScanTallies. -----------------------------
  std::mutex stats_mutex_;  // guards times_ merges from workers
  StageTimes times_;

  // Io counters: registry-backed (atomic counters, no stats_mutex_).
  obs::Registry metrics_;
  obs::Counter& bytes_read_ = metrics_.GetCounter("reader.bytes_read");
  obs::Counter& bytes_sent_ = metrics_.GetCounter("reader.bytes_sent");
  obs::Counter& rows_read_ = metrics_.GetCounter("reader.rows_read");
  obs::Counter& batches_produced_ =
      metrics_.GetCounter("reader.batches_produced");
  obs::Counter& sparse_elements_processed_ =
      metrics_.GetCounter("reader.sparse_elements_processed");

  // Last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace recd::reader
