#include "reader/reader_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace recd::reader {

ScanTally& ScanTally::operator+=(const ScanTally& other) {
  times.fill_s += other.times.fill_s;
  times.convert_s += other.times.convert_s;
  times.process_s += other.times.process_s;
  io.bytes_read += other.io.bytes_read;
  io.bytes_sent += other.io.bytes_sent;
  io.rows_read += other.io.rows_read;
  io.batches_produced += other.io.batches_produced;
  io.sparse_elements_processed += other.io.sparse_elements_processed;
  return *this;
}

storage::ColumnFileReader OpenForScan(storage::BlobStore& store,
                                      const std::string& name,
                                      ScanTally& tally) {
  storage::ColumnFileReader file(store, name);
  tally.io.bytes_read += file.open_bytes();
  return file;
}

std::vector<datagen::Sample> FillStripe(const BatchPipeline& pipeline,
                                        const storage::ColumnFileReader& file,
                                        std::size_t stripe,
                                        ScanTally& tally) {
  // Fill (paper §6.3: "fetching data from Tectonic and decrypting,
  // decompressing, and decoding bytes to form rows"); Convert starts
  // when rows become tensors.
  RECD_TRACE_SCOPE("reader/fill");
  common::Stopwatch sw;
  sw.Start();
  const auto& projection = pipeline.projection();
  tally.io.bytes_read += file.StripeBytes(stripe, projection);
  auto raw = file.FetchStripe(stripe, projection);
  tally.io.rows_read += raw.num_rows;
  auto rows = storage::DecodeRawStripe(pipeline.schema(), raw, projection);
  sw.Stop();
  tally.times.fill_s += sw.seconds();
  return rows;
}

std::vector<datagen::Sample> TakeRows(std::deque<datagen::Sample>& buffer,
                                      std::size_t n) {
  std::vector<datagen::Sample> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(std::move(buffer.front()));
    buffer.pop_front();
  }
  return rows;
}

PreprocessedBatch PrepareBatch(const BatchPipeline& pipeline,
                               std::vector<datagen::Sample> rows,
                               ScanTally& tally) {
  common::Stopwatch convert_sw;
  convert_sw.Start();
  PreprocessedBatch batch = [&] {
    RECD_TRACE_SCOPE("reader/convert");
    return pipeline.Convert(std::move(rows));
  }();
  convert_sw.Stop();
  tally.times.convert_s += convert_sw.seconds();

  common::Stopwatch process_sw;
  process_sw.Start();
  {
    RECD_TRACE_SCOPE("reader/process");
    tally.io.sparse_elements_processed += pipeline.Process(batch);
  }
  process_sw.Stop();
  tally.times.process_s += process_sw.seconds();

  tally.io.bytes_sent += batch.WireBytes();
  tally.io.batches_produced += 1;
  return batch;
}

ReaderPool::ReaderPool(storage::BlobStore& store,
                       const storage::Table& table, DataLoaderConfig config,
                       ReaderOptions options)
    : config_(std::move(config)),
      workers_(std::max<std::size_t>(1, config_.num_workers)),
      pipeline_(table.schema, config_, options.use_ikjt) {
  if (config_.batch_size == 0) {
    throw std::invalid_argument("ReaderPool: batch_size must be positive");
  }

  // Scan plan: open every file up front (footers only) and list stripes
  // in scan order. Ticket seq == position in this plan.
  ScanTally opened;
  for (const auto& partition : table.partitions) {
    for (const auto& name : partition.files) {
      files_.push_back(OpenForScan(store, name, opened));
      const std::size_t f = files_.size() - 1;
      for (std::size_t s = 0; s < files_[f].num_stripes(); ++s) {
        plan_.push_back({f, s});
      }
    }
  }
  Merge(opened);
  if (workers_ <= 1) return;  // inline: NextBatch walks the plan itself

  stripe_channel_.emplace(std::max<std::size_t>(2, workers_));
  task_channel_.emplace(2 * workers_);
  batch_channel_.emplace(options.prefetch_batches > 0
                             ? options.prefetch_batches
                             : 2 * workers_);

  fill_live_.store(workers_);
  convert_live_.store(workers_);
  wall_.Start();
  threads_.reserve(2 * workers_ + 1);
  for (std::size_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this] { FillWorker(); });
  }
  threads_.emplace_back([this] { AssemblerLoop(); });
  for (std::size_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this] { ConvertWorker(); });
  }
}

ReaderPool::~ReaderPool() {
  if (threads_.empty()) return;
  // Unblock every stage; workers observe the closed channels and exit.
  stripe_channel_->Close();
  task_channel_->Close();
  batch_channel_->Close();
  for (auto& t : threads_) t.join();
}

void ReaderPool::Merge(const ScanTally& tally) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    times_.fill_s += tally.times.fill_s;
    times_.convert_s += tally.times.convert_s;
    times_.process_s += tally.times.process_s;
  }
  const auto add = [](obs::Counter& c, std::size_t v) {
    c.Add(static_cast<std::int64_t>(v));
  };
  add(bytes_read_, tally.io.bytes_read);
  add(bytes_sent_, tally.io.bytes_sent);
  add(rows_read_, tally.io.rows_read);
  add(batches_produced_, tally.io.batches_produced);
  add(sparse_elements_processed_, tally.io.sparse_elements_processed);
}

void ReaderPool::Fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::move(error);
  }
  stripe_channel_->Close();
  task_channel_->Close();
  batch_channel_->Close();
}

std::optional<PreprocessedBatch> ReaderPool::NextInline() {
  // The pool's stages one at a time on the caller's thread: fill stripes
  // in plan order until a full batch is buffered (or the plan ends),
  // then cut, convert, and process that batch — exactly the batch
  // boundaries the assembler cuts.
  ScanTally tally;
  while (inline_rows_.size() < config_.batch_size &&
         next_stripe_ < plan_.size()) {
    const StripeRef& ref = plan_[next_stripe_++];
    for (auto& row : FillStripe(pipeline_, files_[ref.file], ref.stripe,
                                tally)) {
      inline_rows_.push_back(std::move(row));
    }
  }
  std::optional<PreprocessedBatch> batch;
  if (!inline_rows_.empty()) {
    const std::size_t take =
        std::min(inline_rows_.size(), config_.batch_size);
    batch = PrepareBatch(pipeline_, TakeRows(inline_rows_, take), tally);
  }
  Merge(tally);
  return batch;
}

void ReaderPool::FillWorker() {
  ScanTally tally;
  try {
    for (;;) {
      const std::size_t seq =
          next_stripe_.fetch_add(1, std::memory_order_relaxed);
      if (seq >= plan_.size()) break;
      const auto& ref = plan_[seq];
      StripeRows out;
      out.seq = seq;
      out.rows = FillStripe(pipeline_, files_[ref.file], ref.stripe, tally);
      if (!stripe_channel_->Push(std::move(out))) break;  // shutdown
    }
  } catch (...) {
    Fail(std::current_exception());
  }
  Merge(tally);
  if (fill_live_.fetch_sub(1) == 1) stripe_channel_->Close();
}

void ReaderPool::AssemblerLoop() {
  // Reassemble stripes in ticket order, accumulate rows, and cut
  // batch_size runs — exactly the batch boundaries the inline scan
  // produces. Cheap (moves only), so one thread suffices.
  std::map<std::size_t, std::vector<datagen::Sample>> pending;
  std::size_t next_seq = 0;
  std::deque<datagen::Sample> buffer;
  std::size_t batch_seq = 0;
  bool aborted = false;

  const auto emit = [&](std::size_t take) {
    BatchTask task;
    task.seq = batch_seq++;
    task.rows = TakeRows(buffer, take);
    if (!task_channel_->Push(std::move(task))) aborted = true;
  };

  while (!aborted) {
    auto item = stripe_channel_->Pop();
    if (!item.has_value()) break;
    pending.emplace(item->seq, std::move(item->rows));
    while (!pending.empty() && pending.begin()->first == next_seq) {
      for (auto& row : pending.begin()->second) {
        buffer.push_back(std::move(row));
      }
      pending.erase(pending.begin());
      ++next_seq;
      while (!aborted && buffer.size() >= config_.batch_size) {
        emit(config_.batch_size);
      }
    }
  }
  // Final partial batch (as inline: emitted once the scan ends).
  if (!aborted && !buffer.empty()) emit(buffer.size());
  task_channel_->Close();
}

void ReaderPool::ConvertWorker() {
  ScanTally tally;
  try {
    for (;;) {
      auto task = task_channel_->Pop();
      if (!task.has_value()) break;
      BatchOut out;
      out.seq = task->seq;
      out.batch = PrepareBatch(pipeline_, std::move(task->rows), tally);
      if (!batch_channel_->Push(std::move(out))) break;  // shutdown
    }
  } catch (...) {
    Fail(std::current_exception());
  }
  Merge(tally);
  if (convert_live_.fetch_sub(1) == 1) batch_channel_->Close();
}

std::optional<PreprocessedBatch> ReaderPool::NextBatch() {
  if (workers_ <= 1) {
    // A failed batch's rows have already left inline_rows_, so latch
    // the error: the scan ends here, as it does with worker threads.
    // Inline runs on the caller's thread alone; no lock is needed.
    if (error_) std::rethrow_exception(error_);
    try {
      return NextInline();
    } catch (...) {
      error_ = std::current_exception();
      throw;
    }
  }
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (error_) {
        auto error = error_;
        std::rethrow_exception(error);
      }
    }
    // Hand out the next in-order batch if it already arrived.
    const auto it = reorder_.find(next_batch_seq_);
    if (it != reorder_.end()) {
      PreprocessedBatch batch = std::move(it->second);
      reorder_.erase(it);
      ++next_batch_seq_;
      return batch;
    }
    auto out = batch_channel_->Pop();
    if (!out.has_value()) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (error_) std::rethrow_exception(error_);
      if (!exhausted_) {
        exhausted_ = true;
        wall_.Stop();
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        times_.wall_s = wall_.seconds();
      }
      return std::nullopt;
    }
    reorder_.emplace(out->seq, std::move(out->batch));
  }
}

ReaderIoStats ReaderPool::io() const {
  const auto u = [](const obs::Counter& c) {
    return static_cast<std::size_t>(c.Value());
  };
  ReaderIoStats io;
  io.bytes_read = u(bytes_read_);
  io.bytes_sent = u(bytes_sent_);
  io.rows_read = u(rows_read_);
  io.batches_produced = u(batches_produced_);
  io.sparse_elements_processed = u(sparse_elements_processed_);
  return io;
}

}  // namespace recd::reader
