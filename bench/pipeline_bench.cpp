// Perf gate for the measurement pipeline: corpus collection on one pool
// worker vs parallel_threads() workers, the blocked feature scan vs a
// straight serial reference scan, and per-sample vs batched MLP forward
// passes. Results land in BENCH_pipeline.json.
//
// Collection runs with transient faults enabled, so cells re-roll in
// place. The speedup is real work spread over cores, so a single-core
// host shows none. The bench asserts the parallel corpus is byte-identical
// to the one-worker corpus (exit 1 otherwise) — threads are a pure speed
// knob.
//
//   ./build/bench/pipeline_bench [out.json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/label_collector.hpp"
#include "features/features.hpp"
#include "ml/mlp.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

using namespace spmvml;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Fault recipe of a flaky measurement backend: a quarter of cells need
// at least one re-roll.
CollectOptions bench_collect_options() {
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.25;
  opts.max_retries = 6;
  return opts;
}

/// Median wall time of `reps` collections at `threads` workers; the CSV
/// of the last run lands in *csv.
double time_collect(const CorpusPlan& plan, int threads, int reps,
                    std::string* csv) {
  CollectOptions opts = bench_collect_options();
  opts.threads = threads;
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    const auto corpus = collect_corpus(plan, opts);
    times.push_back(timer.seconds());
    const std::string path = "pipeline_bench_corpus.tmp.csv";
    save_corpus_csv(path, corpus, plan.size());
    *csv = slurp(path);
    std::remove(path.c_str());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// The pre-blocking extraction loop: one serial pass over every row,
// accumulating the same three structure streams. This is the baseline
// the blocked scan replaced.
double reference_scan_seconds(const Csr<double>& m, int reps) {
  double sink = 0.0;
  WallTimer timer;
  for (int rep = 0; rep < reps; ++rep) {
    StreamingStats row_len, chunks_per_row, chunk_size;
    for (index_t r = 0; r < m.rows(); ++r) {
      const index_t begin = m.row_ptr()[r], end = m.row_ptr()[r + 1];
      std::int64_t row_chunks = 0;
      index_t run = 0;
      for (index_t k = begin; k < end; ++k) {
        if (k == begin || m.col_idx()[k] != m.col_idx()[k - 1] + 1) {
          if (run > 0) chunk_size.add(static_cast<double>(run));
          run = 0;
          ++row_chunks;
        }
        ++run;
      }
      if (run > 0) chunk_size.add(static_cast<double>(run));
      row_len.add(static_cast<double>(end - begin));
      chunks_per_row.add(static_cast<double>(row_chunks));
    }
    sink += row_len.mean() + chunks_per_row.mean() + chunk_size.mean();
  }
  const double s = timer.seconds() / reps;
  if (sink == 12345.6789) std::printf("(unreachable)\n");  // defeat DCE
  return s;
}

int main_impl(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";

  // --- Collection: 1 vs parallel_threads() workers, byte-identical. ---
  std::printf("== collect: 64 matrices, transient faults re-rolled ==\n");
  const auto plan = make_small_plan(64, 2024);
  const int threads = parallel_threads();
  const int collect_reps = 3;
  std::string serial_csv, parallel_csv;
  const double collect_serial_s =
      time_collect(plan, 1, collect_reps, &serial_csv);
  std::printf("  1 thread:   %.3f s (median of %d)\n", collect_serial_s,
              collect_reps);
  const double collect_parallel_s =
      time_collect(plan, threads, collect_reps, &parallel_csv);
  std::printf("  %d threads: %.3f s (median of %d)\n", threads,
              collect_parallel_s, collect_reps);
  const bool identical =
      !serial_csv.empty() && serial_csv == parallel_csv;
  const double collect_speedup = collect_serial_s / collect_parallel_s;
  std::printf("  speedup %.2fx, byte-identical: %s\n", collect_speedup,
              identical ? "yes" : "NO");

  // --- Feature extraction: blocked scan vs the serial reference. ---
  GenSpec spec;
  spec.family = MatrixFamily::kUniformRandom;
  spec.rows = 200000;
  spec.cols = 200000;
  spec.row_mu = 16.0;
  spec.seed = 99;
  const auto m = generate(spec);
  std::printf("== extract: %lld rows, %zu nnz ==\n",
              static_cast<long long>(m.rows()), m.values().size());
  const int reps = 10;
  const double extract_reference_s = reference_scan_seconds(m, reps);
  WallTimer timer;
  double feature_sink = 0.0;
  for (int rep = 0; rep < reps; ++rep)
    feature_sink += extract_features(m)[kNnzbTot];
  const double extract_blocked_s = timer.seconds() / reps;
  std::printf("  reference serial scan: %.4f s/pass\n", extract_reference_s);
  std::printf("  blocked scan:          %.4f s/pass (chunks %.0f)\n",
              extract_blocked_s, feature_sink / reps);

  // --- MLP: per-sample forward vs contiguous batched forward. ---
  const int n = 4096, in_dim = kNumFeatures, out_dim = 6, batch = 64;
  Rng rng(7);
  std::vector<double> xflat(static_cast<std::size_t>(n) * in_dim);
  for (double& v : xflat) v = rng.normal();
  ml::detail::MlpNet net;
  net.init(in_dim, out_dim, ml::MlpParams{});
  std::printf("== mlp forward: %d samples, 96/48/16 hidden ==\n", n);

  timer.reset();
  double per_sample_sink = 0.0;
  std::vector<double> row(static_cast<std::size_t>(in_dim));
  for (int i = 0; i < n; ++i) {
    std::copy(xflat.begin() + static_cast<std::ptrdiff_t>(i) * in_dim,
              xflat.begin() + static_cast<std::ptrdiff_t>(i + 1) * in_dim,
              row.begin());
    per_sample_sink += net.forward(row)[0];  // summed in the same order as
  }                                          // the batched loop below
  const double forward_per_sample_s = timer.seconds();

  timer.reset();
  double batched_sink = 0.0;
  ml::detail::MlpBatchScratch scratch;
  for (int i = 0; i < n; i += batch) {
    const int bsz = std::min(batch, n - i);
    const double* out = net.forward_batch(
        xflat.data() + static_cast<std::ptrdiff_t>(i) * in_dim, bsz, scratch);
    for (int r = 0; r < bsz; ++r)
      batched_sink += out[static_cast<std::ptrdiff_t>(r) * out_dim];
  }
  const double forward_batched_s = timer.seconds();
  const bool forward_matches = per_sample_sink == batched_sink;
  std::printf("  per-sample: %.4f s   batched: %.4f s (%.2fx, bitwise %s)\n",
              forward_per_sample_s, forward_batched_s,
              forward_per_sample_s / forward_batched_s,
              forward_matches ? "equal" : "DIFFERENT");

  // --- End-to-end batched training wall time (classifier fit). ---
  ml::Matrix xm(static_cast<std::size_t>(n));
  std::vector<int> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xm[static_cast<std::size_t>(i)].assign(
        xflat.begin() + static_cast<std::ptrdiff_t>(i) * in_dim,
        xflat.begin() + static_cast<std::ptrdiff_t>(i + 1) * in_dim);
    y[static_cast<std::size_t>(i)] = i % out_dim;
  }
  ml::MlpParams fit_params;
  fit_params.epochs = 10;
  ml::MlpClassifier clf(fit_params);
  timer.reset();
  clf.fit(xm, y);
  const double fit_s = timer.seconds();
  std::printf("== mlp fit: 10 epochs over %d samples: %.3f s ==\n", n, fit_s);

  std::ofstream out(out_path);
  JsonWriter json(out);
  json.begin_object();
  json.key("collect");
  json.begin_object();
  json.kv("matrices", static_cast<std::uint64_t>(plan.size()));
  json.kv("reps", collect_reps);
  json.kv("threads", threads);
  json.kv("threads1_s", collect_serial_s);
  json.kv("parallel_s", collect_parallel_s);
  json.kv("speedup", collect_speedup);
  json.kv("byte_identical", identical);
  json.end_object();
  json.key("extract");
  json.begin_object();
  json.kv("rows", static_cast<std::int64_t>(m.rows()));
  json.kv("nnz", static_cast<std::uint64_t>(m.values().size()));
  json.kv("reference_serial_s", extract_reference_s);
  json.kv("blocked_s", extract_blocked_s);
  json.end_object();
  json.key("train");
  json.begin_object();
  json.kv("samples", n);
  json.kv("forward_per_sample_s", forward_per_sample_s);
  json.kv("forward_batched_s", forward_batched_s);
  json.kv("forward_speedup", forward_per_sample_s / forward_batched_s);
  json.kv("forward_bitwise_equal", forward_matches);
  json.kv("fit_10_epochs_s", fit_s);
  json.end_object();
  json.end_object();
  out << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  return identical && forward_matches ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
