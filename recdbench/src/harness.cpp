#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/obs.h"
#include "obs/trace.h"

#ifndef RECD_BENCH_BUILD_TYPE
#define RECD_BENCH_BUILD_TYPE "unknown"
#endif

namespace recd::bench {
namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Spins a fixed amount of integer work; returns a value so the loop is
/// not optimized away.
std::uint64_t Spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Usable parallelism: 4 threads each spinning the same work as one
/// thread alone; 4 * t1 / t4 is how many of them truly ran at once.
double SpinProbe() {
  constexpr std::uint64_t kIters = 40'000'000;
  std::atomic<std::uint64_t> sink{0};
  double t = NowS();
  sink += Spin(kIters);
  const double t1 = NowS() - t;
  t = NowS();
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&sink] { sink += Spin(kIters); });
  }
  for (auto& th : threads) th.join();
  const double t4 = NowS() - t;
  if (sink.load() == 42) std::fputc(' ', stderr);
  return t4 > 0 ? 4.0 * t1 / t4 : 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto name = line.substr(colon + 1);
        name.erase(0, name.find_first_not_of(' '));
        if (!name.empty()) return name;
      }
    }
  }
  throw std::runtime_error("cannot read the CPU model from /proc/cpuinfo");
}

}  // namespace

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool TimeUp(double start, double seconds, std::size_t segments) {
  if (segments == 0) return false;
  const double elapsed = NowS() - start;
  return elapsed + 0.5 * elapsed / static_cast<double>(segments) >= seconds;
}

// ---- Samples -----------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  const double n = static_cast<double>(values_.size());
  if (n * (1.0 - p) < 10.0) {
    throw std::runtime_error("percentile p" + Num(p * 100) + " needs 10 of " +
                             Num(n) + " samples beyond it");
  }
  auto sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

double Samples::Quantile(double q) const {
  if (values_.empty()) throw std::runtime_error("quantile of no samples");
  auto sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

std::string Samples::Join() const {
  std::string out;
  for (const double v : values_) {
    if (!out.empty()) out += ',';
    out += Num(v);
  }
  return out;
}

// ---- Report ------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void Report::Percentile(const std::string& name, const Samples& samples,
                        double p, const std::string& unit) {
  Metric(name, samples.Percentile(p), unit);
  sample_counts_.emplace_back(name, samples.size());
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, Quote(value));
}

void Report::Info(const std::string& key, double value) {
  info_.emplace_back(key, Num(value));
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

std::string Report::ResultLine() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << Quote(metrics_[i].name) << ": {\"value\": "
        << Num(metrics_[i].value) << ", \"unit\": " << Quote(metrics_[i].unit)
        << "}";
  }
  out << "}}";
  return out.str();
}

std::string Report::FullJson() const {
  std::ostringstream out;
  out << "{\"result\": " << ResultLine() << ",\n \"provenance\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    out << (i > 0 ? ", " : "") << Quote(info_[i].first) << ": "
        << info_[i].second;
  }
  out << "},\n \"percentile_samples\": {";
  for (std::size_t i = 0; i < sample_counts_.size(); ++i) {
    out << (i > 0 ? ", " : "") << Quote(sample_counts_[i].first) << ": "
        << sample_counts_[i].second;
  }
  out << "},\n \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i > 0 ? ", " : "") << Quote(failures_[i]);
  }
  out << "]}\n";
  return out.str();
}

std::string Report::Table() const {
  std::ostringstream out;
  for (const auto& [key, value] : info_) {
    out << "  " << key << " = " << value << "\n";
  }
  for (const auto& m : metrics_) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-40s %16s %s\n", m.name.c_str(),
                  Num(m.value).c_str(), m.unit.c_str());
    out << line;
  }
  for (const auto& [name, n] : sample_counts_) {
    out << "  samples(" << name << ") = " << n << "\n";
  }
  for (const auto& f : failures_) out << "  FAILED: " << f << "\n";
  return out.str();
}

// ---- Spans -------------------------------------------------------------

void Spans::SetActive(bool active) {
  if (!enabled_ || active == active_) return;
  if (!open_.empty()) throw std::logic_error("Spans::SetActive inside a span");
  active_ = active;
  obs::ObsOptions obs_options;
  obs_options.enabled = active;
  obs_options.trace = active;
  obs::Configure(obs_options);  // starts (clearing) or stops the tracer
  if (!active) windows_.push_back(obs::Tracer::Global().ToJson());
}

Spans::Scope::Scope(Spans& spans, const char* name)
    : spans_(&spans), index_(kInactive) {
  if (!spans.active()) return;
  Span span;
  span.name = name;
  span.start_us = obs::Tracer::Global().NowUs();
  span.parent = spans.open_.empty() ? kNoParent : spans.open_.back();
  index_ = spans.spans_.size();
  spans.spans_.push_back(span);
  spans.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (index_ == kInactive) return;
  auto& tracer = obs::Tracer::Global();
  Span& span = spans_->spans_[index_];
  span.end_us = std::max(tracer.NowUs(), span.start_us);
  const std::int64_t dur = span.end_us - span.start_us;
  if (span.parent != kNoParent) spans_->spans_[span.parent].child_us += dur;
  spans_->open_.pop_back();
  tracer.RecordComplete(span.name, span.start_us, dur);
}

std::map<std::string, Spans::Self> Spans::SelfSeconds(
    const std::string& root) const {
  std::map<std::string, Self> self;
  for (const auto& s : spans_) {
    if (s.end_us < 0) continue;
    Self& entry = self[s.name];
    entry.seconds +=
        static_cast<double>(s.end_us - s.start_us - s.child_us) / 1e6;
    for (std::size_t p = s.parent; p != kNoParent; p = spans_[p].parent) {
      if (root == spans_[p].name) entry.in_root = true;
    }
  }
  return self;
}

double Spans::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (const auto& s : spans_) {
    if (s.end_us >= 0 && name == s.name) {
      total += static_cast<double>(s.end_us - s.start_us) / 1e6;
    }
  }
  return total;
}

std::size_t Spans::Count(const std::string& name) const {
  std::size_t n = 0;
  for (const auto& s : spans_) n += s.end_us >= 0 && name == s.name;
  return n;
}

bool Spans::Write(const std::string& stem) const {
  for (std::size_t k = 0; k < windows_.size(); ++k) {
    const std::string path = stem + "." + std::to_string(k) + ".trace.json";
    std::ofstream out(path);
    out << windows_[k];
    if (!out) {
      std::fprintf(stderr, "recd_bench: cannot write %s\n", path.c_str());
      return false;
    }
  }
  return true;
}

void ReportSelfTimes(const Spans& spans, const char* root, Report& report) {
  // Layer spans nest under the root spans, so the layers' self times
  // inside them sum to the root duration minus the root's own self time.
  // Self times inside the root spans are reported per root span (one
  // timed segment: an epoch, a cycle, a ladder pass); set-up spans
  // outside them are reported as recorded.
  const double wall = spans.TotalSeconds(root);
  const double segments = static_cast<double>(spans.Count(root));
  double unattributed = 0;
  for (const auto& [name, self] : spans.SelfSeconds(root)) {
    if (name == root) {
      unattributed = self.seconds;
    } else {
      report.Metric(name + "_s",
                    self.in_root ? self.seconds / segments : self.seconds,
                    "s");
    }
  }
  const double coverage = wall > 0 ? 1.0 - unattributed / wall : 0.0;
  report.Metric("trace.segments", segments, "count");
  report.Metric("trace.segment_wall_s", segments > 0 ? wall / segments : 0,
                "s");
  report.Metric("trace.layer_coverage", coverage, "frac");
  report.Metric("trace.dropped_events",
                static_cast<double>(obs::Tracer::Global().dropped_events()),
                "count");
  if (std::fabs(1.0 - coverage) > 0.10) {
    report.Fail("layer self times cover " + Num(coverage * 100) +
                "% of the traced wall time (need 90-110%)");
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RecordProvenance(const Options& options, Report& report) {
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc == 0) throw std::runtime_error("cannot determine nproc");
  report.Info("cpu", CpuModel());
  report.Info("nproc", static_cast<double>(nproc));
  report.Info("usable_parallelism_4thread_spin", SpinProbe());
  const char* commit = std::getenv("RECD_BENCH_COMMIT");
  report.Info("commit", commit != nullptr && *commit != '\0'
                            ? std::string(commit)
                            : std::string("unrecorded"));
  report.Info("build_type", RECD_BENCH_BUILD_TYPE);
  report.Info("workload", options.workload);
  report.Info("seed", static_cast<double>(options.seed));
  report.Info("seconds", options.seconds);
  report.Info("size", options.tiny ? "tiny" : "full");
  report.Info("trace", options.trace ? 1.0 : 0.0);
}

double TracingOverhead(double untraced, double traced,
                       bool higher_is_better) {
  if (untraced <= 0) return 0;
  return higher_is_better ? (untraced - traced) / untraced
                          : (traced - untraced) / untraced;
}

}  // namespace recd::bench
