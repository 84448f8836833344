// The benchmark's three workloads. Each generates its inputs from the
// seed, sets up (repeated, median reported as setup_s), runs its timed
// phase, checks the library's outputs, and fills the Report with every
// end-to-end metric and, in a traced run, every per-layer metric.
#pragma once

#include <cstdint>
#include <string>

#include "fingerprint.hpp"
#include "support.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string commit;
  std::string out_dir = ".bench_out";
};

struct Context {
  Options opt;
  Fingerprint fp;
  int nproc = 1;
  std::string work_dir;  // scratch files of this run, removed at the end
  Report report;
};

/// Runs `ctx.opt.workload`; throws std::invalid_argument on an unknown
/// name.
void run_workload(Context& ctx);

}  // namespace perfbench
