// bench_serve_qps: baseline vs RecD online serving under open-loop load
// (docs/BENCHMARKS.md).
//
// Sweeps the SLA batching window (DeepRecSys' central serving lever) and
// the candidate-set size K over the same deterministic query trace, in
// paced mode: arrivals are released in real time at the offered QPS and
// request latency is measured end to end. RecD serving converts each
// dynamic batch to IKJTs, deduplicating user rows across the candidates
// of a request and across coalesced requests (O3/O5/O7 at inference) —
// the request dedupe factor and saved embedding lookups below. Writes
// BENCH_serve_qps.json with --json.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "datagen/presets.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/server_runner.h"
#include "train/model.h"

namespace recd::bench {
namespace {

struct ServeBench {
  datagen::DatasetSpec spec;
  train::ModelConfig model;
};

ServeBench MakeServeBench() {
  ServeBench b;
  b.spec = datagen::RmDataset(datagen::RmKind::kRm2, 0.08);
  b.spec.concurrent_sessions = 16;  // few users => cross-request dedupe
  b.spec.mean_session_size = 40;    // long-lived serving sessions
  b.model = train::RmModel(datagen::RmKind::kRm2, b.spec);
  // Serving-scale replica: small enough that the (scalar, single-host)
  // reference DLRM keeps headroom above the offered load on one core.
  b.model.emb_hash_size = 10'000;
  b.model.emb_dim = 16;
  b.model.bottom_mlp_hidden = {32};
  b.model.top_mlp_hidden = {64, 32};
  return b;
}

serve::FleetSpec MakeFleet(const train::ModelConfig& model,
                           std::size_t workers) {
  serve::ModelSpec spec;
  spec.config = model;
  return serve::FleetSpec::Single(std::move(spec), workers);
}

void PrintRow(const std::string& label, const serve::ServeStats& s) {
  std::printf("%-26s %7.0f %8.1f %9.0f %9.0f %9.0f %8.2fx %12.0f\n",
              label.c_str(), s.achieved_qps, s.mean_batch_rows,
              s.latency_p50_us(), s.latency_p95_us(), s.latency_p99_us(),
              s.request_dedupe_factor, s.embedding_lookups);
}

void AddMetrics(JsonReport& report, const std::string& prefix,
                const serve::ServeStats& s) {
  report.Add(prefix + "_achieved_qps", s.achieved_qps, std::nullopt,
             "req/s");
  report.Add(prefix + "_mean_batch_rows", s.mean_batch_rows, std::nullopt,
             "rows");
  report.Add(prefix + "_latency_p50_us", s.latency_p50_us(), std::nullopt,
             "us");
  report.Add(prefix + "_latency_p95_us", s.latency_p95_us(), std::nullopt,
             "us");
  report.Add(prefix + "_latency_p99_us", s.latency_p99_us(), std::nullopt,
             "us");
  report.Add(prefix + "_request_dedupe_factor", s.request_dedupe_factor,
             std::nullopt, "x");
  report.Add(prefix + "_embedding_lookups", s.embedding_lookups,
             std::nullopt, "rows");
  report.Add(prefix + "_flops", s.flops, std::nullopt, "flops");
  // Embedding-tier counters (docs/ARCHITECTURE.md §13): all-zero when
  // the replicas serve from dense tables, populated in the tiered sweep.
  report.Add(prefix + "_tier_hit_rate", s.tier.hit_rate(), std::nullopt,
             "frac");
  report.Add(prefix + "_tier_hot_hits",
             static_cast<double>(s.tier.hot_hits), std::nullopt, "rows");
  report.Add(prefix + "_tier_cold_fetches",
             static_cast<double>(s.tier.cold_fetches), std::nullopt, "rows");
  report.Add(prefix + "_tier_evictions",
             static_cast<double>(s.tier.evictions), std::nullopt, "rows");
  report.Add(prefix + "_tier_bytes_from_cold",
             static_cast<double>(s.tier.bytes_from_cold), std::nullopt,
             "bytes");
}

}  // namespace
}  // namespace recd::bench

int main(int argc, char** argv) {
  using namespace recd;
  using namespace recd::bench;
  // RECD_OBS=1 turns on the `*_us` timing series in obs_metrics;
  // RECD_OBS_TRACE=<path> also traces the run (written at exit).
  obs::ConfigureFromEnv();

  const auto b = MakeServeBench();
  const std::size_t num_requests = SmokeOr<std::size_t>(600, 48);
  const double qps = 120.0;
  const std::size_t workers = 2;

  JsonReport report("bench_serve_qps");
  report.SetHostField("num_workers", static_cast<long>(workers));
  report.SetHostField("offered_qps", static_cast<long>(qps));
  report.SetHostField("num_requests", static_cast<long>(num_requests));

  // `serve.*` registry series summed over every run in all three
  // sweeps, embedded into the JSON report as the `obs_metrics` block.
  obs::MetricsSnapshot obs_snapshot;

  // ---- Sweep 1: SLA batching window at fixed K. ----------------------
  PrintHeader("serving: batching window sweep (K=8, open-loop paced)");
  std::printf("%-26s %7s %8s %9s %9s %9s %8s %12s\n", "config", "qps",
              "b.rows", "p50us", "p95us", "p99us", "dedupe", "lookups");
  PrintRule();
  {
    serve::TraceSpec trace;
    trace.dataset = b.spec;
    trace.query.num_requests = num_requests;
    trace.query.candidates = 8;
    trace.query.qps = qps;
    serve::ServerRunner runner(trace, MakeFleet(b.model, workers));
    for (const long window_us : {0L, 5'000L, 20'000L}) {
      for (const bool recd : {false, true}) {
        auto policy = recd ? serve::RunPolicy::Recd()
                           : serve::RunPolicy::Baseline();
        policy.pace_arrivals = true;
        policy.batcher = serve::BatcherOptions{
            .max_batch_requests = 16, .max_delay_us = window_us};
        const auto result = runner.Run(policy);
        obs_snapshot.Merge(result.obs_metrics);
        const std::string label = std::string(recd ? "recd" : "base") +
                                  "_w" + std::to_string(window_us);
        PrintRow(label, result.stats);
        AddMetrics(report, label, result.stats);
      }
    }
  }

  // ---- Sweep 2: candidate-set size at fixed window. ------------------
  PrintHeader("serving: candidate-set sweep (window=5ms)");
  std::printf("%-26s %7s %8s %9s %9s %9s %8s %12s\n", "config", "qps",
              "b.rows", "p50us", "p95us", "p99us", "dedupe", "lookups");
  PrintRule();
  for (const std::size_t k : {4u, 16u}) {
    serve::TraceSpec trace;
    trace.dataset = b.spec;
    trace.query.num_requests = SmokeOr<std::size_t>(400, 32);
    trace.query.candidates = k;
    trace.query.qps = qps;
    serve::ServerRunner runner(trace, MakeFleet(b.model, workers));
    for (const bool recd : {false, true}) {
      auto policy = recd ? serve::RunPolicy::Recd()
                         : serve::RunPolicy::Baseline();
      policy.pace_arrivals = true;
      policy.batcher = serve::BatcherOptions{
          .max_batch_requests = 16, .max_delay_us = 5'000};
      const auto result = runner.Run(policy);
      obs_snapshot.Merge(result.obs_metrics);
      const std::string label = std::string(recd ? "recd" : "base") +
                                "_k" + std::to_string(k);
      PrintRow(label, result.stats);
      AddMetrics(report, label, result.stats);
    }
  }

  // ---- Sweep 3: tiered embedding store behind the replicas. ----------
  // Each worker replica's tables run the two-tier row store
  // (docs/ARCHITECTURE.md §13) with a hot tier far smaller than the
  // table; scores stay bitwise equal to the dense replicas (the
  // tier-placement determinism rule), so the sweep isolates the latency
  // and hit-rate cost of serving from compressed cold segments.
  PrintHeader("serving: tiered embedding store (window=5ms, K=8)");
  std::printf("%-26s %7s %8s %9s %9s %9s %8s %12s\n", "config", "qps",
              "b.rows", "p50us", "p95us", "p99us", "dedupe", "lookups");
  PrintRule();
  bool tier_ok = true;
  {
    serve::TraceSpec trace;
    trace.dataset = b.spec;
    trace.query.num_requests = SmokeOr<std::size_t>(400, 32);
    trace.query.candidates = 8;
    trace.query.qps = qps;
    for (const long cap : {0L, 512L}) {
      auto model = b.model;
      model.tiering.enabled = true;
      model.tiering.hot_capacity_rows = static_cast<std::size_t>(cap);
      model.tiering.rows_per_segment = 128;
      serve::ServerRunner runner(trace, MakeFleet(model, workers));
      for (const bool recd : {false, true}) {
        auto policy = recd ? serve::RunPolicy::Recd()
                           : serve::RunPolicy::Baseline();
        policy.pace_arrivals = true;
        policy.batcher = serve::BatcherOptions{
            .max_batch_requests = 16, .max_delay_us = 5'000};
        const auto result = runner.Run(policy);
        obs_snapshot.Merge(result.obs_metrics);
        const auto& s = result.stats;
        const std::string label = std::string(recd ? "recd" : "base") +
                                  "_tier_c" + std::to_string(cap);
        PrintRow(label, s);
        std::printf("  tier: %.1f%% hit, %zu cold fetches, %zu evictions, "
                    "%zu cold B\n",
                    s.tier.hit_rate() * 100,
                    static_cast<std::size_t>(s.tier.cold_fetches),
                    static_cast<std::size_t>(s.tier.evictions),
                    static_cast<std::size_t>(s.tier.bytes_from_cold));
        AddMetrics(report, label, s);
        if (s.tier.row_fetches == 0) {
          std::printf("FAIL: tiered replicas reported no row fetches "
                      "(%s)\n", label.c_str());
          tier_ok = false;
        }
        if (cap == 0 && s.tier.hot_hits != 0) {
          std::printf("FAIL: capacity-0 replicas served hot hits (%s)\n",
                      label.c_str());
          tier_ok = false;
        }
      }
    }
  }

  if (!obs::FlushTrace()) return 1;  // RECD_OBS_TRACE=<path>
  report.SetEmbeddedJson("obs_metrics", obs_snapshot.ToJson());
  if (!report.WriteIfRequested(argc, argv)) return 1;
  return tier_ok ? 0 : 1;
}
