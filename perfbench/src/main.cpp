// Benchmark program for the spmvml library.
//
//   perfbench --workload offline|serve-hot|serve-cold --seed N
//             --seconds S --trace 0|1 [--commit SHA] [--out-dir DIR]
//
// Prints progress and details, then, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The full
// result (fingerprint, both metric sets measured, notes, violations) is
// written to DIR/results/, and a traced run also writes a Chrome trace
// and a per-layer self-time table to DIR/traces/. Exits 1 when an output
// check fails, 2 on a usage or run error (without a result line).
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "fingerprint.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload offline|serve-hot|serve-cold "
               "--seed N --seconds S --trace 0|1 [--commit SHA] "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") ctx.opt.workload = value;
    else if (key == "--seed") ctx.opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") ctx.opt.seconds = std::atof(value.c_str());
    else if (key == "--trace") ctx.opt.trace = value == "1";
    else if (key == "--commit") ctx.opt.commit = value;
    else if (key == "--out-dir") ctx.opt.out_dir = value;
    else return usage();
  }
  if (argc % 2 == 0 || ctx.opt.workload.empty() || ctx.opt.seconds <= 0.0)
    return usage();

  const std::string tag = ctx.opt.workload + "-seed" +
                          std::to_string(ctx.opt.seed) + "-trace" +
                          (ctx.opt.trace ? "1" : "0");
  try {
    namespace fs = std::filesystem;
    ctx.work_dir = ctx.opt.out_dir + "/work-" + std::to_string(getpid());
    fs::create_directories(ctx.work_dir);
    fs::create_directories(ctx.opt.out_dir + "/results");
    fs::create_directories(ctx.opt.out_dir + "/traces");

    ctx.fp = take_fingerprint(ctx.opt.commit);
    ctx.nproc = ctx.fp.nproc;
    std::printf("fingerprint: %s\n", ctx.fp.to_json().c_str());
    std::fflush(stdout);

    run_workload(ctx);
    fs::remove_all(ctx.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(ctx.work_dir);
    return 2;
  }

  Report& rep = ctx.report;
  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);
  rep.e2e("peak_rss_mb", static_cast<double>(usage_self.ru_maxrss) / 1024.0, "MB");
  const std::uint64_t failed = rep.failed + rep.violations();
  const double base_failed =
      rep.base_failed + static_cast<double>(rep.violations());
  rep.e2e("failed_frac", wilson_upper(base_failed, rep.base), "fraction");
  rep.note("failed_frac.base", rep.base);
  rep.note("failed_frac.failed", base_failed);
  const bool correct = rep.violations() == 0;

  for (const auto& v : rep.violation_list())
    std::printf("VIOLATION: %s\n", v.c_str());
  for (const auto& [key, value] : rep.notes())
    std::printf("note %s = %s\n", key.c_str(), value.c_str());
  for (const auto* set : {&rep.e2e_metrics(), &rep.layer_metrics()})
    for (const auto& [name, m] : *set)
      std::printf("metric %-40s %14.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());

  if (ctx.opt.trace) {
    const std::string base = ctx.opt.out_dir + "/traces/" + tag;
    Tracer::get().write_chrome_trace(base + ".trace.json");
    const std::string table = Tracer::get().self_time_table();
    std::ofstream(base + ".selftime.txt") << table;
    std::printf("\n%s", table.c_str());
  }

  {
    std::ofstream out(ctx.opt.out_dir + "/results/" + tag + "-" +
                      std::to_string(getpid()) + ".json");
    out << "{\"workload\": " << quote(ctx.opt.workload)
        << ", \"seed\": " << ctx.opt.seed
        << ", \"seconds\": " << ctx.opt.seconds
        << ", \"trace\": " << (ctx.opt.trace ? 1 : 0)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << rep.attempted << ", \"failed\": " << failed
        << ",\n \"fingerprint\": " << ctx.fp.to_json()
        << ",\n \"end_to_end\": " << metrics_json(rep.e2e_metrics())
        << ",\n \"per_layer\": " << metrics_json(rep.layer_metrics())
        << ",\n \"notes\": {";
    bool first = true;
    for (const auto& [key, value] : rep.notes()) {
      out << (first ? "" : ", ") << quote(key) << ": " << quote(value);
      first = false;
    }
    out << "},\n \"violations\": [";
    first = true;
    for (const auto& v : rep.violation_list()) {
      out << (first ? "" : ", ") << quote(v);
      first = false;
    }
    out << "]}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(ctx.opt.trace ? rep.layer_metrics()
                                         : rep.e2e_metrics())
                  .c_str());
  return correct ? 0 : 1;
}
