// recd_bench: runs one benchmark workload and prints its result.
//
//   recd_bench --workload <train_rm1_highdup|preprocess_rm3_lowdup|
//                          serve_zoo_open>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--size full|tiny] [--fault none|bad-loss|drop-batch|
//                                  flip-score] [--out-dir <dir>]
//
// The last line of standard output is the result: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// workload's untraced figures, with --trace 1 its traced per-layer ones;
// recdbench/run.py keeps those BENCHMARK.json lists, which every
// workload reports.
// The full result with provenance goes to <out-dir>, next to the trace
// windows recorded with --trace 1. Exits 1 when a correctness check
// fails, 2 on bad usage or an error.
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace {

using recd::bench::Fault;
using recd::bench::Options;

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "tiny" && value != "full") {
        throw std::invalid_argument("--size must be full or tiny");
      }
      o.tiny = value == "tiny";
    } else if (flag == "--fault") {
      if (value == "none") {
        o.fault = Fault::kNone;
      } else if (value == "bad-loss") {
        o.fault = Fault::kBadLoss;
      } else if (value == "drop-batch") {
        o.fault = Fault::kDropBatch;
      } else if (value == "flip-score") {
        o.fault = Fault::kFlipScore;
      } else {
        throw std::invalid_argument("unknown --fault " + value);
      }
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recd::bench;
  Options options;
  try {
    options = Parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "recd_bench: %s\n", e.what());
    return 2;
  }
  Report report;
  Spans spans(options.trace);
  try {
    RecordProvenance(options, report);
    if (options.workload == "train_rm1_highdup") {
      RunTrain(options, spans, report);
    } else if (options.workload == "preprocess_rm3_lowdup") {
      RunPreprocess(options, spans, report);
    } else if (options.workload == "serve_zoo_open") {
      RunServe(options, spans, report);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "recd_bench: %s\n%s", e.what(),
                 report.Table().c_str());
    return 2;
  }

  const std::string stem = options.out_dir + "/" + options.workload + "_seed" +
                           std::to_string(options.seed) + "_trace" +
                           (options.trace ? "1" : "0");
  if (!spans.Write(stem)) return 2;
  std::ofstream(stem + ".json") << report.FullJson();
  std::printf("%s", report.Table().c_str());
  std::printf("%s\n", report.ResultLine().c_str());
  return report.correct() ? 0 : 1;
}
