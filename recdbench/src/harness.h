// Shared machinery of the recd_bench harness: options, exact
// percentiles, the result report, and the benchmark's own spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace recd::bench {

/// A deliberately corrupted output, injected after the workload ran and
/// before its correctness check (the self-test proves the check trips).
enum class Fault { kNone, kFlipScore, kDropBatch, kBadLoss };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs for the self-test; full size otherwise.
  bool tiny = false;
  Fault fault = Fault::kNone;
  /// Where the full result file and the trace are written.
  std::string out_dir = ".";
};

/// Seconds since an arbitrary steady-clock epoch.
[[nodiscard]] double NowS();

/// True once a timed region made of whole segments should stop: after
/// `segments` of them since `start`, one more would end more than half
/// a segment past `seconds`.
[[nodiscard]] bool TimeUp(double start, double seconds, std::size_t segments);

/// Raw timing samples. Percentiles are exact (nearest rank over the
/// sorted samples), never read off a bucketed histogram.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, p in (0, 1). Throws std::runtime_error
  /// unless at least 10 samples lie beyond it: an extreme percentile
  /// of too few samples is not reported.
  [[nodiscard]] double Percentile(double p) const;
  /// Median; needs one sample only (for per-repetition summaries).
  [[nodiscard]] double Median() const { return Quantile(0.5); }
  /// Quantile q in [0, 1] of a few per-repetition summaries, linearly
  /// interpolated between order statistics; needs one sample only.
  [[nodiscard]] double Quantile(double q) const;
  /// The samples in order, comma-separated (for the result file).
  [[nodiscard]] std::string Join() const;

 private:
  std::vector<double> values_;
};

/// How a run summarizes repeated segments of one kind. On a shared host,
/// neighbours only ever slow a segment down and they come and go within
/// a run, so the upper quartile of per-segment rates (and the lower
/// quartile of per-window latencies) tracks the program, where the
/// median still tracks the neighbours too.
[[nodiscard]] inline double TypicalRate(const Samples& rates) {
  return rates.Quantile(0.75);
}
[[nodiscard]] inline double TypicalLatency(const Samples& latencies) {
  return latencies.Quantile(0.25);
}

/// The run's result: correctness, operation counts, metrics with units,
/// and free-form provenance.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A percentile metric; also records its sample count.
  void Percentile(const std::string& name, const Samples& samples, double p,
                  const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  /// Marks the run incorrect, with the reason.
  void Fail(const std::string& why);

  void Attempt(std::size_t n) { attempted_ += n; }
  void Failed(std::size_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return failures_.empty(); }

  /// The one-line result: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string ResultLine() const;
  /// Everything: result, provenance, sample counts, failure reasons.
  [[nodiscard]] std::string FullJson() const;
  /// Human-readable metric table.
  [[nodiscard]] std::string Table() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // pre-rendered
  std::vector<std::pair<std::string, std::size_t>> sample_counts_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// The benchmark's own spans, recorded on the calling thread around
/// each call into a layer. Spans nest; a span's self time is its
/// duration minus its direct children's.
///
/// Recording happens in windows (a set-up, a traced timed segment):
/// while a window is open, obs timing metrics are on and obs::Tracer
/// records the benchmark's spans next to the library's internal ones.
/// Closing a window turns both off again and keeps its trace events, so
/// the untraced segments between windows run exactly as a run with
/// tracing off.
class Spans {
 public:
  /// A disabled recorder never opens a window: every Scope is a no-op.
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Opens (true) or closes (false) a recording window; never inside a
  /// span. No-op when disabled or already in that state.
  void SetActive(bool active);
  [[nodiscard]] bool active() const { return active_; }

  class Scope {
   public:
    /// `name` must be a string literal (the tracer keeps the pointer).
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_;
  };

  struct Self {
    double seconds = 0;
    bool in_root = false;  // some span of this name nests under `root`
  };
  /// Self seconds per span name over every recorded span.
  [[nodiscard]] std::map<std::string, Self> SelfSeconds(
      const std::string& root) const;
  /// Total duration of spans named `name`.
  [[nodiscard]] double TotalSeconds(const std::string& name) const;
  [[nodiscard]] std::size_t Count(const std::string& name) const;

  /// Writes each closed window's events as Chrome trace JSON to
  /// `<stem>.<k>.trace.json`; false on I/O failure.
  bool Write(const std::string& stem) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_us = 0;
    std::int64_t end_us = -1;
    std::int64_t child_us = 0;
    std::size_t parent = kNoParent;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  static constexpr std::size_t kInactive = static_cast<std::size_t>(-2);

  bool enabled_ = false;
  bool active_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;     // stack of open span indices
  std::vector<std::string> windows_;  // trace JSON of closed windows
};

/// Reports each span name's self time as `<name>_s` and checks that the
/// layer spans nested in the `root` spans cover the root wall time to
/// within 10%.
void ReportSelfTimes(const Spans& spans, const char* root, Report& report);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double PeakRssMb();

/// Provenance: CPU model, nproc, measured usable parallelism, commit,
/// build type, seed.
void RecordProvenance(const Options& options, Report& report);

/// Relative change of a traced headline number against the untraced
/// one, positive when tracing made it worse.
[[nodiscard]] double TracingOverhead(double untraced, double traced,
                                     bool higher_is_better);

// The workloads. Each fills `report` with its metrics and checks.
void RunTrain(const Options& options, Spans& spans, Report& report);
void RunPreprocess(const Options& options, Spans& spans, Report& report);
void RunServe(const Options& options, Spans& spans, Report& report);

}  // namespace recd::bench
