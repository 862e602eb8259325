// serve_zoo_open: the 3-model RM1/RM2/RM3 zoo (bench_serve_scale's
// shape) served with RecD, one worker per model lane, under open-loop
// Poisson arrivals paced in real time at a fixed ladder of absolute
// rates. The RM3 lane's tables sit on the tiered embedding store with
// a hot tier smaller than their working set. Set-up generates the
// request trace; the timed region repeats passes over the ladder, each
// rung one ServerRunner::Run of the same requests (a prefix of them
// below the top rung) at that rate.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "datagen/presets.h"
#include "harness.h"
#include "serve/model_zoo.h"
#include "serve/query_gen.h"
#include "serve/scheduler.h"
#include "serve/server_runner.h"

namespace recd::bench {
namespace {

// The rate ladder (requests/s) and the latency SLA on p99, fixed once.
// On the 4-vCPU Xeon reference host the fleet saturated between about
// 10k and 20k req/s, depending on the neighbours' load. The lower rungs
// sit below that band, so their SLA verdict does not flip with the
// neighbours; the top rung offers 32k, far enough above the band that
// the fleet is always overloaded there and its achieved rate is the
// fleet's capacity. kReferenceRung is the rate serve_p50_ms /
// serve_p99_ms report.
constexpr double kLadder[] = {2000, 4000, 6000, 8000, 32000};
constexpr std::size_t kReferenceRung = 2;
constexpr double kSlaP99Ms = 20.0;
constexpr double kBaseQps = 1000.0;  // the trace's own rate before scaling
constexpr std::size_t kTieredModel = 2;  // the RM3 lane

struct ServeShape {
  // Requests per rung: one pass over the ladder is one window, and each
  // window's p99 needs at least 10 requests beyond it. The top rung,
  // which measures capacity, runs the longer trace these are a prefix
  // of (about 1.5 s at capacity), so short stalls do not decide its rate.
  std::size_t num_requests = 1500;
  std::size_t capacity_requests = 15000;
  std::size_t candidates = 8;
  std::size_t hot_rows = 2048;  // RM3 lane hot tier, per table
  // A cold miss decompresses its whole segment. With 64 rows a pass
  // decompressed ~1.6 GB, and the capacity of the same code moved by 25%
  // between two sets of runs an hour apart; 8 rows cut that traffic 8x.
  std::size_t rows_per_segment = 8;
  std::size_t setup_reps = 5;
  std::size_t min_model_samples = 1000;  // pooled per-model p99s (traced)
};

ServeShape ShapeFor(const Options& options) {
  ServeShape s;
  if (options.tiny) {
    s.num_requests = 1100;
    s.capacity_requests = 2200;
    s.candidates = 2;
    s.setup_reps = 2;
  }
  return s;
}

serve::FleetSpec MakeFleet(const datagen::DatasetSpec& dataset,
                           const ServeShape& shape, std::uint64_t seed) {
  serve::FleetSpec fleet;
  for (const auto kind : {datagen::RmKind::kRm1, datagen::RmKind::kRm2,
                          datagen::RmKind::kRm3}) {
    auto member = serve::ZooVariant(kind, dataset, seed);
    member.config.emb_hash_size = 10'000;
    if (fleet.models.size() == kTieredModel) {
      member.config.emb_dim = 32;
      member.config.bottom_mlp_hidden = {64};
      member.config.top_mlp_hidden = {128, 64, 32};
      member.config.tiering.enabled = true;
      member.config.tiering.hot_capacity_rows = shape.hot_rows;
      member.config.tiering.rows_per_segment = shape.rows_per_segment;
    } else {
      member.config.emb_dim = 16;
      member.config.bottom_mlp_hidden = {32};
      member.config.top_mlp_hidden = {64, 32};
    }
    member.batcher.max_batch_requests = 16;
    member.batcher.max_delay_us = 2'000;
    fleet.models.push_back(std::move(member));
  }
  fleet.default_workers = 1;
  return fleet;
}

std::string RateName(double rate) {
  // Appended, not "q" + ...: GCC 12 -Wrestrict false positive (bug 105329).
  std::string name("q");
  name += std::to_string(static_cast<long>(rate));
  return name;
}

/// Measurements of one ladder rung over the passes of one kind; each
/// pass is one window of the rung. On a shared host, neighbours stall
/// whole windows (on the 4-vCPU reference host, 40-80% of windows had a
/// p99 two to six times the others'), so the reported latencies are the
/// TypicalLatency over windows of each window's own percentile, the SLA
/// verdict takes the median window, and the per-rung figures pool every
/// traced request.
struct RungStats {
  Samples latency_ms;
  std::vector<Samples> model_latency_ms;  // per model id
  Samples window_p50_ms;
  Samples window_p99_ms;
  Samples achieved_qps;
  Samples drain_ms;
  Samples mean_batch_rows;
  Samples dedupe;
};

struct PassStats {
  std::vector<RungStats> rungs;
  std::size_t passes = 0;
  double requests = 0;
  double lookups = 0;
  double flops = 0;
  embstore::TierStats tier;  // the tiered lane
};

/// Exactly one scored request per trace request, in request-id order,
/// each bitwise equal to the replay; returns the number left unscored.
std::size_t CheckScores(const std::vector<serve::ScoredRequest>& got,
                        std::span<const serve::ScoredRequest> want,
                        const std::string& what, Report& report) {
  bool mismatch = got.size() != want.size();
  std::size_t matched = 0;
  for (std::size_t i = 0, j = 0; i < got.size() && j < want.size();) {
    if (got[i].request_id < want[j].request_id) {
      mismatch = true;  // unknown or duplicated request
      ++i;
    } else if (got[i].request_id > want[j].request_id) {
      mismatch = true;  // unscored request
      ++j;
    } else {
      const auto& a = got[i].scores;
      const auto& b = want[j].scores;
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
        mismatch = true;
      }
      ++matched;
      ++i;
      ++j;
    }
  }
  if (mismatch) {
    report.Fail(what + ": scored requests differ from the replay-mode run");
  }
  return want.size() - matched;
}

/// Flips one bit of the first score (the self-test's fault); false when
/// no request has a score.
bool FlipFirstScore(std::vector<serve::ScoredRequest>& requests) {
  for (auto& r : requests) {
    if (r.scores.empty()) continue;
    std::uint32_t bits = 0;
    std::memcpy(&bits, &r.scores[0], sizeof(bits));
    bits ^= 1u;
    std::memcpy(&r.scores[0], &bits, sizeof(bits));
    return true;
  }
  return false;
}

}  // namespace

void RunServe(const Options& options, Spans& spans, Report& report) {
  const ServeShape shape = ShapeFor(options);
  auto dataset = datagen::RmDataset(datagen::RmKind::kRm2, 0.08,
                                    common::Mix64(options.seed));
  dataset.concurrent_sessions = 16;  // few users => cross-request dedup
  dataset.mean_session_size = 40;
  const auto fleet = MakeFleet(dataset, shape, options.seed);
  const std::size_t num_models = fleet.num_models();
  constexpr std::size_t kRungs = std::size(kLadder);

  serve::TraceSpec spec;
  spec.dataset = dataset;
  spec.query.num_requests = shape.capacity_requests;
  spec.query.candidates = shape.candidates;
  spec.query.qps = kBaseQps;
  spec.query.arrival = serve::ArrivalShape::kSteady;
  spec.query.poisson_arrivals = true;
  spec.query.num_models = num_models;

  std::string ladder;
  for (const double r : kLadder) {
    if (!ladder.empty()) ladder += ',';
    ladder += RateName(r);
  }
  report.Info("ladder", ladder);
  report.Info("reference_rate", kLadder[kReferenceRung]);
  report.Info("sla_p99_ms", kSlaP99Ms);
  report.Info("threads", "arrival pump + 1 worker per model lane (" +
                             std::to_string(num_models) + " lanes)");
  report.Info("requests_per_window", static_cast<double>(shape.num_requests));
  report.Info("item", "a request scored at the top rung");
  report.Info("op", "a request at the reference rate, arrival to completion");
  report.Info("requests_at_top_rung",
              static_cast<double>(shape.capacity_requests));


  // ---- Set-up: the request trace and its rescaling to every rung. ----
  Samples setup_s;
  std::vector<std::vector<serve::Request>> rung_traces;
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    rung_traces.clear();  // release the previous repetition first
    spans.SetActive(rep + 1 == shape.setup_reps);
    const double t0 = NowS();
    Spans::Scope span(spans, "datagen.generate");
    const auto base = serve::QueryGenerator(spec).Generate();
    for (std::size_t k = 0; k < kRungs; ++k) {
      const std::size_t n = k + 1 == kRungs ? base.size() : shape.num_requests;
      rung_traces.push_back(serve::ScaleTrace(
          {base.begin(), base.begin() + static_cast<std::ptrdiff_t>(n)},
          kLadder[k] / kBaseQps));
    }
    setup_s.Add(NowS() - t0);
  }

  // ---- The reference scores (untimed): a replay-mode Run of the top
  // rung's trace, the whole of the requests. Request ids count up in
  // arrival order, so a rung's trace prefix is the replay's first
  // entries; scores are row-local, so neither the prefix nor the arrival
  // times change a request's scores.
  const auto& full = rung_traces.back();
  const auto replay =
      serve::ServerRunner(spec, fleet, full).Run(serve::RunPolicy::Recd())
          .requests;
  if (replay.size() != full.size()) {
    report.Fail("replay-mode run scored " + std::to_string(replay.size()) +
                " of " + std::to_string(full.size()) + " requests");
  }
  bool flip = options.fault == Fault::kFlipScore;

  // ---- Timed region: passes over the ladder until the time is up. ----
  auto paced = serve::RunPolicy::Recd();
  paced.pace_arrivals = true;
  PassStats untraced;
  PassStats traced;
  for (auto* p : {&untraced, &traced}) {
    p->rungs.resize(kRungs);
    for (auto& r : p->rungs) r.model_latency_ms.resize(num_models);
  }
  const double start = NowS();
  for (std::size_t segment = 0;; ++segment) {
    const bool trace_this = options.trace && segment % 2 == 1;
    const PassStats& measured = options.trace ? traced : untraced;
    std::size_t model_samples = measured.passes > 0 ? SIZE_MAX : 0;
    for (const auto& r : measured.rungs) {
      for (const auto& m : r.model_latency_ms) {
        model_samples = std::min(model_samples, m.size());
      }
    }
    const bool floors_met =
        untraced.passes > 0 &&
        (!options.trace || model_samples >= shape.min_model_samples);
    if (TimeUp(start, options.seconds, segment) && floors_met) break;
    PassStats& stats = trace_this ? traced : untraced;
    spans.SetActive(trace_this);
    Spans::Scope root(spans, "timed");
    for (std::size_t k = 0; k < kRungs; ++k) {
      const auto& trace = rung_traces[k];
      std::optional<serve::ServerRunner> runner;
      {
        Spans::Scope span(spans, "serve.load_trace");
        runner.emplace(spec, fleet, trace);
      }
      serve::ServeResult result;
      {
        Spans::Scope span(spans, "serve.run");
        result = runner->Run(paced);
      }
      {
        Spans::Scope span(spans, "bench.collect");
        RungStats& rung = stats.rungs[k];
        Samples window;
        for (const auto& r : result.requests) {
          const double ms = static_cast<double>(r.latency_us) / 1e3;
          window.Add(ms);
          rung.model_latency_ms.at(r.model_id).Add(ms);
        }
        rung.latency_ms.Append(window);
        rung.window_p50_ms.Add(window.Percentile(0.50));
        rung.window_p99_ms.Add(window.Percentile(0.99));
        const auto& s = result.stats;
        const double last_arrival_s =
            static_cast<double>(trace.back().arrival_us) / 1e6;
        rung.achieved_qps.Add(s.achieved_qps);
        rung.drain_ms.Add((s.wall_s - last_arrival_s) * 1e3);
        rung.mean_batch_rows.Add(s.mean_batch_rows);
        rung.dedupe.Add(s.request_dedupe_factor);
        stats.requests += static_cast<double>(s.requests);
        stats.lookups += s.embedding_lookups;
        stats.flops += s.flops;
        stats.tier += result.model_stats.at(kTieredModel).tier;
      }
      {
        // Every request scored exactly once, with scores bitwise equal
        // to the replay. Checked per rung so the served requests of
        // earlier passes are not kept: memory stays that of one pass.
        Spans::Scope span(spans, "bench.check");
        if (flip) flip = !FlipFirstScore(result.requests);
        const std::size_t n = trace.size();
        report.Attempt(n);
        report.Failed(CheckScores(
            result.requests,
            std::span(replay).first(std::min(n, replay.size())),
            "pass " + std::to_string(stats.passes) + " " +
                RateName(kLadder[k]),
            report));
      }
      Spans::Scope span(spans, "serve.teardown");
      result = {};
      runner.reset();
    }
    ++stats.passes;
  }
  spans.SetActive(false);

  // ---- Metrics. ------------------------------------------------------
  // The open-loop latencies and the SLA verdict swung by more than the
  // largest allowed bound from run to run on the shared reference host
  // (neighbours stall the pacing and worker threads), so they are
  // per-layer metrics. The end-to-end rate is what the fleet sustains
  // when offered more than it can serve: the ladder's top rung.
  if (!options.trace) {
    report.Info("setup_s.reps", setup_s.Join());
    for (std::size_t k = 0; k < kRungs; ++k) {
      const auto& r = untraced.rungs[k];
      report.Info(RateName(kLadder[k]) + ".p50_ms.windows",
                  r.window_p50_ms.Join());
      report.Info(RateName(kLadder[k]) + ".p99_ms.windows",
                  r.window_p99_ms.Join());
      report.Info(RateName(kLadder[k]) + ".drain_ms.windows",
                  r.drain_ms.Join());
      report.Info(RateName(kLadder[k]) + ".achieved_qps.windows",
                  r.achieved_qps.Join());
    }
    report.Metric("setup_s", setup_s.Median(), "s");
    report.Metric("items_per_s",
                  TypicalRate(untraced.rungs.back().achieved_qps), "items/s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }
  // A rung meets the SLA when its median window p99 is within it and
  // its backlog drains within it too (the queue did not grow).
  double max_qps = 0;
  for (std::size_t k = 0; k < kRungs; ++k) {
    const auto& r = traced.rungs[k];
    if (r.window_p99_ms.Median() <= kSlaP99Ms &&
        r.drain_ms.Median() <= kSlaP99Ms) {
      max_qps = kLadder[k];
    }
  }
  const auto& ref = traced.rungs[kReferenceRung];
  report.Metric("serve_p50_ms", TypicalLatency(ref.window_p50_ms), "ms");
  report.Metric("serve_p99_ms", TypicalLatency(ref.window_p99_ms), "ms");
  report.Metric("serve_max_qps", max_qps, "req/s");
  report.Percentile("op_ms.p50", ref.latency_ms, 0.50, "ms");
  report.Percentile("op_ms.p90", ref.latency_ms, 0.90, "ms");
  report.Metric("dedupe_factor", ref.dedupe.Median(), "x");
  for (std::size_t k = 0; k < kRungs; ++k) {
    const auto& r = traced.rungs[k];
    const std::string p = "serve." + RateName(kLadder[k]) + ".";
    report.Metric(p + "achieved_qps", r.achieved_qps.Median(), "req/s");
    report.Percentile(p + "p50_ms", r.latency_ms, 0.50, "ms");
    report.Percentile(p + "p99_ms", r.latency_ms, 0.99, "ms");
    report.Metric(p + "drain_ms", r.drain_ms.Median(), "ms");
    report.Metric(p + "mean_batch_rows", r.mean_batch_rows.Median(), "rows");
    report.Metric(p + "request_dedupe_factor", r.dedupe.Median(), "x");
    for (std::size_t m = 0; m < num_models; ++m) {
      report.Percentile(p + "m" + std::to_string(m) + ".p99_ms",
                        r.model_latency_ms[m], 0.99, "ms");
    }
  }
  report.Metric("serve.embedding_lookups", traced.lookups / traced.requests,
                "rows/req");
  report.Metric("serve.flops", traced.flops / traced.requests, "flop/req");
  const double passes = static_cast<double>(traced.passes);
  report.Metric("embstore.hit_rate", traced.tier.hit_rate(), "frac");
  report.Metric("embstore.cold_fetches",
                static_cast<double>(traced.tier.cold_fetches) / passes,
                "rows/pass");
  report.Metric("embstore.bytes_from_cold",
                static_cast<double>(traced.tier.bytes_from_cold) / passes,
                "bytes/pass");
  report.Metric(
      "trace.overhead_frac",
      TracingOverhead(
          TypicalLatency(untraced.rungs[kReferenceRung].window_p50_ms),
          TypicalLatency(ref.window_p50_ms), false),
      "frac");
  ReportSelfTimes(spans, "timed", report);
}

}  // namespace recd::bench
