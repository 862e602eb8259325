// Micro-benchmarks for the fused/vectorized kernel layer
// (docs/ARCHITECTURE.md §12): scalar oracle vs AVX2 backend on the hot
// kernels — fused dedup-aware pooled lookup, the MLP GEMMs (square and
// at the RM1 layer shapes), the feature interaction, the sparse SGD
// scatter, BCE, and the dense SGD row update.
//
// Every timed pair is also checked bitwise (the layer's contract): the
// bench aborts nonzero if any vectorized output differs from scalar by
// a single bit, so the published speedups are speedups of the *same*
// float-op sequence, not of a relaxed one.
//
// Plain executable (not Google Benchmark), but named micro_* so
// check.sh --smoke passes it --benchmark_min_time; unknown flags are
// ignored (only --json is parsed, via bench::JsonReport).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "kernels/kernels.h"
#include "tensor/jagged.h"

namespace {

using recd::kernels::KernelBackend;

constexpr KernelBackend kS = KernelBackend::kScalar;
constexpr KernelBackend kV = KernelBackend::kVectorized;

/// Best-of-trials seconds per pass — best (not mean) so a stray
/// scheduler hiccup on the single-core CI host does not pollute a ratio.
template <typename Fn>
double SecondsPerPass(int trials, int reps, Fn&& fn) {
  double best = 0;
  for (int t = 0; t < trials; ++t) {
    recd::common::Stopwatch sw;
    sw.Start();
    for (int r = 0; r < reps; ++r) fn();
    sw.Stop();
    const double per_pass = sw.seconds() / reps;
    if (t == 0 || per_pass < best) best = per_pass;
  }
  return best;
}

void RequireBitwise(const std::vector<float>& scalar,
                    const std::vector<float>& vectorized, const char* what) {
  if (scalar.size() != vectorized.size() ||
      (!scalar.empty() &&
       std::memcmp(scalar.data(), vectorized.data(),
                   scalar.size() * sizeof(float)) != 0)) {
    std::fprintf(stderr,
                 "bench_micro_kernels: %s: vectorized output is not "
                 "bitwise-identical to scalar\n",
                 what);
    std::exit(1);
  }
}

std::vector<float> RandVec(std::size_t n, recd::common::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
  }
  return v;
}

struct Row {
  const char* name;
  double scalar_s = 0;
  double vec_s = 0;
  double work = 0;       // elements (or FLOPs) per pass
  double bytes = 0;      // bytes moved per pass (0 = not meaningful)
  const char* unit = "elem";
};

void PrintRow(const Row& r) {
  const double speedup = r.vec_s > 0 ? r.scalar_s / r.vec_s : 1.0;
  std::printf("%-26s %10.1f %10.1f", r.name, r.work / r.scalar_s / 1e6,
              r.vec_s > 0 ? r.work / r.vec_s / 1e6 : 0.0);
  if (r.bytes > 0 && r.vec_s > 0) {
    std::printf(" %8.2f", r.bytes / r.vec_s / 1e9);
  } else {
    std::printf(" %8s", "-");
  }
  std::printf(" %9.2fx\n", speedup);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recd;
  bench::PrintHeader("Micro: fused/vectorized kernels vs scalar oracle");
  const bool have_simd = kernels::VectorizedAvailable();
  if (!have_simd) {
    std::printf(
        "AVX2 unavailable on this host: vectorized == scalar dispatch, "
        "all speedups will be ~1x\n");
  }
  const int trials = bench::SmokeOr(3, 1);
  const int reps = bench::SmokeOr(10, 1);
  common::Rng rng(1234);
  std::vector<Row> rows;
  std::deque<std::string> names;  // owns generated row names

  // ---- Fused dedup-aware pooled lookup -------------------------------
  // Scalar baseline pools the EXPANDED batch (what a dedup-unaware
  // scalar trainer executes); the fused kernel pools each unique row
  // once and scatters through the inverse index — so this headline row
  // compounds dedup x SIMD, the RecD trainer-side win.
  {
    const std::size_t unique_rows = bench::SmokeOr<std::size_t>(2048, 64);
    const std::size_t dup = 4;  // DedupeFactor
    const std::size_t dim = 64;
    const std::size_t hash_size = 100'003;
    const std::size_t batch = unique_rows * dup;

    std::vector<std::vector<tensor::Id>> u0(unique_rows), u1(unique_rows);
    for (std::size_t r = 0; r < unique_rows; ++r) {
      const std::size_t len0 = 1 + r % 15;
      for (std::size_t j = 0; j < len0; ++j) {
        u0[r].push_back(rng.Uniform(0, 1'000'000));
      }
      u1[r].push_back(rng.Uniform(0, 1'000'000));
    }
    std::vector<std::int64_t> inverse(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      inverse[i] =
          static_cast<std::int64_t>((i * 2654435761u) % unique_rows);
    }
    std::vector<std::vector<tensor::Id>> e0(batch), e1(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      e0[i] = u0[static_cast<std::size_t>(inverse[i])];
      e1[i] = u1[static_cast<std::size_t>(inverse[i])];
    }
    const auto ujt0 = tensor::JaggedTensor::FromRows(u0);
    const auto ujt1 = tensor::JaggedTensor::FromRows(u1);
    const auto ejt0 = tensor::JaggedTensor::FromRows(e0);
    const auto ejt1 = tensor::JaggedTensor::FromRows(e1);
    const auto weights = RandVec(hash_size * dim, rng);
    const kernels::GroupFeature ugroup[] = {
        {&ujt0, weights.data(), hash_size},
        {&ujt1, weights.data(), hash_size}};
    const kernels::GroupFeature egroup[] = {
        {&ejt0, weights.data(), hash_size},
        {&ejt1, weights.data(), hash_size}};

    std::vector<float> out_scalar(batch * dim), out_vec(batch * dim);
    kernels::SumPoolGroup(kS, egroup, dim, out_scalar.data());
    kernels::FusedPooledLookup(kV, ugroup, inverse, dim, out_vec.data());
    RequireBitwise(out_scalar, out_vec, "fused pooled lookup");

    Row r{"fused_pooled_lookup"};
    r.work = static_cast<double>(ejt0.total_values() + ejt1.total_values())
             * dim;  // expanded lookups: the logical work both paths do
    r.bytes = r.work * 2 * sizeof(float);
    r.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::SumPoolGroup(kS, egroup, dim, out_scalar.data());
    });
    r.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::FusedPooledLookup(kV, ugroup, inverse, dim,
                                 out_vec.data());
    });
    rows.push_back(r);

    // Same kernel, SIMD only (both sides fused): isolates the
    // vectorization win from the dedup win.
    Row r2{"fused_lookup_simd_only"};
    r2.work = static_cast<double>(ujt0.total_values() +
                                  ujt1.total_values()) * dim;
    r2.bytes = r2.work * 2 * sizeof(float);
    r2.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::FusedPooledLookup(kS, ugroup, inverse, dim,
                                 out_scalar.data());
    });
    r2.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::FusedPooledLookup(kV, ugroup, inverse, dim,
                                 out_vec.data());
    });
    RequireBitwise(out_scalar, out_vec, "fused lookup (simd only)");
    rows.push_back(r2);

    // Sparse SGD scatter over the expanded batch (identical work both
    // backends; dim-axis SIMD only).
    const auto grad = RandVec(batch * dim, rng);
    auto w_scalar = weights;
    auto w_vec = weights;
    kernels::ScatterSgdUpdate(kS, ejt0, grad.data(), kernels::Pool::kSum,
                              0.01f, w_scalar.data(), hash_size, dim);
    kernels::ScatterSgdUpdate(kV, ejt0, grad.data(), kernels::Pool::kSum,
                              0.01f, w_vec.data(), hash_size, dim);
    RequireBitwise(w_scalar, w_vec, "scatter sgd update");
    Row r3{"scatter_sgd_update"};
    r3.work = static_cast<double>(ejt0.total_values()) * dim;
    r3.bytes = r3.work * 3 * sizeof(float);  // read w + grad, write w
    r3.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::ScatterSgdUpdate(kS, ejt0, grad.data(),
                                kernels::Pool::kSum, 0.01f,
                                w_scalar.data(), hash_size, dim);
    });
    r3.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::ScatterSgdUpdate(kV, ejt0, grad.data(),
                                kernels::Pool::kSum, 0.01f, w_vec.data(),
                                hash_size, dim);
    });
    rows.push_back(r3);
  }

  // ---- GEMMs (the MLP forward/backward shapes) -----------------------
  {
    const std::size_t m = bench::SmokeOr<std::size_t>(256, 16);
    const std::size_t k = 256;
    const std::size_t n = 256;
    const auto a = RandVec(m * k, rng);
    const auto b = RandVec(n * k, rng);
    std::vector<float> c_scalar(m * n), c_vec(m * n);

    kernels::MatmulABt(kS, a.data(), m, k, b.data(), n, c_scalar.data());
    kernels::MatmulABt(kV, a.data(), m, k, b.data(), n, c_vec.data());
    RequireBitwise(c_scalar, c_vec, "matmul_abt");
    Row r{"matmul_abt_fwd"};
    r.unit = "flop";
    r.work = 2.0 * m * k * n;
    r.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::MatmulABt(kS, a.data(), m, k, b.data(), n,
                         c_scalar.data());
    });
    r.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::MatmulABt(kV, a.data(), m, k, b.data(), n, c_vec.data());
    });
    rows.push_back(r);

    const auto b2 = RandVec(k * n, rng);
    kernels::MatmulAB(kS, a.data(), m, k, b2.data(), n, c_scalar.data());
    kernels::MatmulAB(kV, a.data(), m, k, b2.data(), n, c_vec.data());
    RequireBitwise(c_scalar, c_vec, "matmul_ab");
    Row r2{"matmul_ab_bwd_dx"};
    r2.unit = "flop";
    r2.work = 2.0 * m * k * n;
    r2.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::MatmulAB(kS, a.data(), m, k, b2.data(), n,
                        c_scalar.data());
    });
    r2.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::MatmulAB(kV, a.data(), m, k, b2.data(), n, c_vec.data());
    });
    rows.push_back(r2);

    // Backward dW: grad_w += g^T x with the g==0 skip.
    const auto g = RandVec(m * n, rng);
    std::vector<float> gw_scalar(n * k), gw_vec(n * k), gb_scalar(n),
        gb_vec(n);
    kernels::AccumulateOuter(kS, g.data(), m, n, a.data(), k,
                             gw_scalar.data(), gb_scalar.data());
    kernels::AccumulateOuter(kV, g.data(), m, n, a.data(), k,
                             gw_vec.data(), gb_vec.data());
    RequireBitwise(gw_scalar, gw_vec, "accumulate_outer grad_w");
    RequireBitwise(gb_scalar, gb_vec, "accumulate_outer grad_b");
    Row r3{"accumulate_outer_dw"};
    r3.unit = "flop";
    r3.work = 2.0 * m * k * n;
    r3.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::AccumulateOuter(kS, g.data(), m, n, a.data(), k,
                               gw_scalar.data(), gb_scalar.data());
    });
    r3.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::AccumulateOuter(kV, g.data(), m, n, a.data(), k,
                               gw_vec.data(), gb_vec.data());
    });
    rows.push_back(r3);
  }

  // ---- RM1 MLP layers and feature interaction -------------------------
  // The dense shapes of one RM1 gradient chunk (128 rows): bottom layer
  // 13 -> 256 and top layers 359 -> 512 -> 256. Backward gradients are
  // half exact zeros, the ReLU mask of a symmetric pre-activation.
  {
    struct Shape {
      const char* name;
      std::size_t m, k, n;  // rows x in_dim -> out_dim
    };
    const std::size_t m = bench::SmokeOr<std::size_t>(128, 8);
    for (const Shape& sh : {Shape{"rm1_128x359x512", m, 359, 512},
                            Shape{"rm1_128x512x256", m, 512, 256},
                            Shape{"rm1_128x13x256", m, 13, 256}}) {
      const auto x = RandVec(sh.m * sh.k, rng);
      const auto w = RandVec(sh.n * sh.k, rng);
      auto g = RandVec(sh.m * sh.n, rng);
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (rng.UniformReal() < 0.5) g[i] = 0.0f;
      }
      const double flops = 2.0 * sh.m * sh.k * sh.n;
      const std::string base = sh.name;

      std::vector<float> y_scalar(sh.m * sh.n), y_vec(sh.m * sh.n);
      const auto fwd = [&](KernelBackend b, std::vector<float>& y) {
        kernels::MatmulABt(b, x.data(), sh.m, sh.k, w.data(), sh.n,
                           y.data());
      };
      fwd(kS, y_scalar);
      fwd(kV, y_vec);
      RequireBitwise(y_scalar, y_vec, "rm1 forward");
      rows.push_back(Row{names.emplace_back(base + "_fwd").c_str(),
                         SecondsPerPass(trials, reps,
                                        [&] { fwd(kS, y_scalar); }),
                         SecondsPerPass(trials, reps,
                                        [&] { fwd(kV, y_vec); }),
                         flops, 0, "flop"});

      std::vector<float> dx_scalar(sh.m * sh.k), dx_vec(sh.m * sh.k);
      const auto dx = [&](KernelBackend b, std::vector<float>& out) {
        kernels::MatmulAB(b, g.data(), sh.m, sh.n, w.data(), sh.k,
                          out.data());
      };
      dx(kS, dx_scalar);
      dx(kV, dx_vec);
      RequireBitwise(dx_scalar, dx_vec, "rm1 backward dX");
      rows.push_back(Row{names.emplace_back(base + "_dx").c_str(),
                         SecondsPerPass(trials, reps,
                                        [&] { dx(kS, dx_scalar); }),
                         SecondsPerPass(trials, reps,
                                        [&] { dx(kV, dx_vec); }),
                         flops, 0, "flop"});

      std::vector<float> gw_scalar(sh.n * sh.k), gw_vec(sh.n * sh.k),
          gb_scalar(sh.n), gb_vec(sh.n);
      const auto dw = [&](KernelBackend b, std::vector<float>& gw,
                          std::vector<float>& gb) {
        kernels::AccumulateOuter(b, g.data(), sh.m, sh.n, x.data(), sh.k,
                                 gw.data(), gb.data());
      };
      dw(kS, gw_scalar, gb_scalar);
      dw(kV, gw_vec, gb_vec);
      RequireBitwise(gw_scalar, gw_vec, "rm1 backward dW");
      RequireBitwise(gb_scalar, gb_vec, "rm1 backward db");
      rows.push_back(
          Row{names.emplace_back(base + "_dw").c_str(),
              SecondsPerPass(trials, reps,
                             [&] { dw(kS, gw_scalar, gb_scalar); }),
              SecondsPerPass(trials, reps, [&] { dw(kV, gw_vec, gb_vec); }),
              flops, 0, "flop"});
    }

    // RM1's interaction: F = 22 inputs (bottom MLP + 21 pooled
    // features) of d = 128.
    const std::size_t f = 22;
    const std::size_t d = 128;
    std::vector<std::vector<float>> xs;
    std::vector<const float*> in;
    for (std::size_t i = 0; i < f; ++i) {
      xs.push_back(RandVec(m * d, rng));
      in.push_back(xs.back().data());
    }
    const std::size_t width = d + f * (f - 1) / 2;
    const double pair_flops = 2.0 * m * d * (f * (f - 1) / 2);
    std::vector<float> o_scalar(m * width), o_vec(m * width);
    kernels::InteractionForward(kS, in, m, d, o_scalar.data());
    kernels::InteractionForward(kV, in, m, d, o_vec.data());
    RequireBitwise(o_scalar, o_vec, "interaction forward");
    rows.push_back(Row{
        "interaction_f22_d128_fwd",
        SecondsPerPass(trials, reps,
                       [&] {
                         kernels::InteractionForward(kS, in, m, d,
                                                     o_scalar.data());
                       }),
        SecondsPerPass(trials, reps,
                       [&] {
                         kernels::InteractionForward(kV, in, m, d,
                                                     o_vec.data());
                       }),
        pair_flops, 0, "flop"});

    const auto grad_out = RandVec(m * width, rng);
    std::vector<std::vector<float>> gs_scalar(f, std::vector<float>(m * d)),
        gs_vec = gs_scalar;
    std::vector<float*> gp_scalar, gp_vec;
    for (std::size_t i = 0; i < f; ++i) {
      gp_scalar.push_back(gs_scalar[i].data());
      gp_vec.push_back(gs_vec[i].data());
    }
    kernels::InteractionBackward(kS, grad_out.data(), in, m, d, gp_scalar);
    kernels::InteractionBackward(kV, grad_out.data(), in, m, d, gp_vec);
    for (std::size_t i = 0; i < f; ++i) {
      RequireBitwise(gs_scalar[i], gs_vec[i], "interaction backward");
    }
    rows.push_back(Row{
        "interaction_f22_d128_bwd",
        SecondsPerPass(trials, reps,
                       [&] {
                         kernels::InteractionBackward(kS, grad_out.data(),
                                                      in, m, d, gp_scalar);
                       }),
        SecondsPerPass(trials, reps,
                       [&] {
                         kernels::InteractionBackward(kV, grad_out.data(),
                                                      in, m, d, gp_vec);
                       }),
        2 * pair_flops, 0, "flop"});
  }

  // ---- Loss + dense SGD ----------------------------------------------
  {
    const std::size_t n = bench::SmokeOr<std::size_t>(1u << 18, 1u << 10);
    std::vector<float> logits(n), labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      logits[i] = static_cast<float>(rng.UniformReal() * 16.0 - 8.0);
      labels[i] = (i % 3 == 0) ? 1.0f : 0.0f;
    }
    const double ls = kernels::BceLossSum(kS, logits.data(),
                                          labels.data(), n);
    const double lv = kernels::BceLossSum(kV, logits.data(),
                                          labels.data(), n);
    if (std::memcmp(&ls, &lv, sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "bench_micro_kernels: bce loss sum not bitwise\n");
      return 1;
    }
    Row r{"bce_loss_sum"};
    r.work = static_cast<double>(n);
    r.scalar_s = SecondsPerPass(trials, reps, [&] {
      (void)kernels::BceLossSum(kS, logits.data(), labels.data(), n);
    });
    r.vec_s = SecondsPerPass(trials, reps, [&] {
      (void)kernels::BceLossSum(kV, logits.data(), labels.data(), n);
    });
    rows.push_back(r);

    std::vector<float> grad_scalar(n), grad_vec(n);
    kernels::BceGrad(kS, logits.data(), labels.data(), n, 1.0f / 256,
                     grad_scalar.data());
    kernels::BceGrad(kV, logits.data(), labels.data(), n, 1.0f / 256,
                     grad_vec.data());
    RequireBitwise(grad_scalar, grad_vec, "bce grad");
    Row r2{"bce_grad"};
    r2.work = static_cast<double>(n);
    r2.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::BceGrad(kS, logits.data(), labels.data(), n, 1.0f / 256,
                       grad_scalar.data());
    });
    r2.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::BceGrad(kV, logits.data(), labels.data(), n, 1.0f / 256,
                       grad_vec.data());
    });
    rows.push_back(r2);

    auto w_scalar = RandVec(n, rng);
    auto w_vec = w_scalar;
    kernels::SgdUpdate(kS, w_scalar.data(), grad_scalar.data(), n, 0.05f);
    kernels::SgdUpdate(kV, w_vec.data(), grad_vec.data(), n, 0.05f);
    RequireBitwise(w_scalar, w_vec, "dense sgd update");
    Row r3{"sgd_update_dense"};
    r3.work = static_cast<double>(n);
    r3.bytes = static_cast<double>(n) * 3 * sizeof(float);
    r3.scalar_s = SecondsPerPass(trials, reps * 4, [&] {
      kernels::SgdUpdate(kS, w_scalar.data(), grad_scalar.data(), n,
                         0.05f);
    });
    r3.vec_s = SecondsPerPass(trials, reps * 4, [&] {
      kernels::SgdUpdate(kV, w_vec.data(), grad_vec.data(), n, 0.05f);
    });
    rows.push_back(r3);
  }

  std::printf("%-26s %10s %10s %8s %10s\n", "kernel", "scalar M/s",
              "vec M/s", "GB/s", "speedup");
  bench::PrintRule();
  for (const auto& r : rows) PrintRow(r);
  bench::PrintRule();
  std::printf("all outputs bitwise-identical across backends\n");

  bench::JsonReport report("bench_micro_kernels");
  report.SetHostField("avx2", have_simd ? 1 : 0);
  for (const auto& r : rows) {
    const double speedup = r.vec_s > 0 ? r.scalar_s / r.vec_s : 1.0;
    report.Add(std::string(r.name) + "_speedup", speedup, std::nullopt,
               "x");
    report.Add(std::string(r.name) + "_vec_rate",
               r.work / (r.vec_s > 0 ? r.vec_s : r.scalar_s) / 1e6,
               std::nullopt,
               std::string("M") + r.unit + "/s");
    if (r.bytes > 0 && r.vec_s > 0) {
      report.Add(std::string(r.name) + "_vec_gbps", r.bytes / r.vec_s / 1e9,
                 std::nullopt, "GB/s");
    }
  }
  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}
