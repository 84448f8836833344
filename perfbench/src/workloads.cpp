#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "core/format_selector.hpp"
#include "core/indirect.hpp"
#include "core/label_collector.hpp"
#include "core/perf_model.hpp"
#include "features/features.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/row_summary.hpp"
#include "ml/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "sparse/arena.hpp"
#include "sparse/mmio.hpp"
#include "sparse/parallel_spmv.hpp"
#include "sparse/spmv.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace perfbench {

namespace {

using namespace spmvml;
using CsrPtr = std::shared_ptr<const Csr<double>>;
using serve::RequestMode;

// The paper's Tables XI-XIII device: P100, double precision.
constexpr int kArch = 1;
constexpr Precision kPrec = Precision::kDouble;

constexpr int kNumKinds = 4;
constexpr ModelKind kKinds[kNumKinds] = {ModelKind::kDecisionTree,
                                         ModelKind::kSvm, ModelKind::kMlp,
                                         ModelKind::kXgboost};
constexpr const char* kFitNames[kNumKinds + 1] = {"tree", "svm", "mlp",
                                                  "xgboost", "perf"};
constexpr int kServedKind = 3;  // XGBoost: the selector scored and served first

// Setup repetitions; setup_s is their median. offline's set-up is short,
// so it runs more often: kOfflineSetupBefore times before the timed phase
// and the rest after it, so that the median spans more of the run than a
// burst of load from other tenants of the host does.
constexpr int kOfflineSetupReps = 5;
constexpr int kOfflineSetupBefore = 3;
constexpr int kServeSetupReps = 3;

/// Metric-name key of a format: its name, lower-cased ("merge-csr").
std::string format_key(Format f) {
  std::string key = format_name(f);
  for (char& c : key)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return key;
}

double seconds_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) * 1e-3;
}

/// Host bytes a CSR pins (64-bit indices), as the ingest cache meters it.
double host_bytes(const Csr<double>& m) {
  return static_cast<double>((m.rows() + 1 + m.nnz()) * 8 + m.nnz() * 8);
}

// ---------------------------------------------------------------------------
// Training: gpusim label collection plus the four classifiers and the MLP
// perf model, scored on a held-out split.

struct TrainSize {
  int train = 0;
  int test = 0;
};

struct Models {
  std::array<std::shared_ptr<const FormatSelector>, kNumKinds> selectors;
  std::shared_ptr<const PerfModel> perf;
  std::vector<FeatureVector> test_features;
  double train_s = 0.0;    // collection + the five fits
  double collect_s = 0.0;
  std::array<double, kNumKinds + 1> fit_s{};
  CollectStats stats;
  double accuracy = 0.0;   // XGBoost selector vs the gpusim best format
  double slowdown = 0.0;   // geomean t(selected) / t(best)
  double rme = 0.0;        // MLP perf model, all formats
};

Models train_models(std::uint64_t seed, TrainSize size, int threads) {
  Models m;
  Span phase("bench.train");
  const auto t0 = Clock::now();
  CollectOptions options;
  options.threads = threads;
  LabeledCorpus corpus;
  {
    Span span("core.collect", {}, size.train + size.test);
    corpus = collect_corpus(make_small_plan(size.train + size.test, seed),
                            options);
  }
  m.collect_s = seconds_since(t0);
  m.stats = corpus.stats;

  // make_small_plan deals buckets round-robin, so a prefix split keeps
  // the bucket mix of both halves.
  const auto ntrain = std::min<std::size_t>(
      static_cast<std::size_t>(size.train), corpus.size());
  LabeledCorpus train, test;
  train.records.assign(corpus.records.begin(),
                       corpus.records.begin() + static_cast<long>(ntrain));
  test.records.assign(corpus.records.begin() + static_cast<long>(ntrain),
                      corpus.records.end());

  for (int k = 0; k < kNumKinds; ++k) {
    const auto t = Clock::now();
    auto selector =
        std::make_shared<FormatSelector>(kKinds[k], FeatureSet::kSet123,
                                         kAllFormats);
    {
      Span span(std::string("ml.fit.") + kFitNames[k]);
      selector->fit(train, kArch, kPrec);
    }
    m.fit_s[k] = seconds_since(t);
    m.selectors[k] = std::move(selector);
  }
  {
    const auto t = Clock::now();
    auto perf = std::make_shared<PerfModel>(RegressorKind::kMlp,
                                            FeatureSet::kSet123, kAllFormats);
    {
      Span span(std::string("ml.fit.") + kFitNames[kNumKinds]);
      perf->fit(train, kArch, kPrec);
    }
    m.fit_s[kNumKinds] = seconds_since(t);
    m.perf = std::move(perf);
  }
  m.train_s = seconds_since(t0);

  // Held-out scoring (outside train_s).
  const FormatSelector& selector = *m.selectors[kServedKind];
  std::vector<int> chosen;
  std::vector<std::vector<double>> times;
  std::vector<double> measured, predicted;
  int correct = 0;
  for (const MatrixRecord& r : test.records) {
    const Format pick = selector.select(r.features);
    const int best = r.best_among(kArch, kPrec, kAllFormats);
    if (best >= 0 && kAllFormats[static_cast<std::size_t>(best)] == pick)
      ++correct;
    chosen.push_back(static_cast<int>(pick));  // kAllFormats is enum order
    std::vector<double> row;
    for (Format f : kAllFormats) row.push_back(r.time(kArch, kPrec, f));
    const std::vector<double> pred = m.perf->predict_all(r.features);
    for (std::size_t k = 0; k < row.size(); ++k) {
      measured.push_back(row[k]);
      predicted.push_back(pred[k]);
    }
    times.push_back(std::move(row));
    m.test_features.push_back(r.features);
  }
  const double n = std::max<double>(1.0, static_cast<double>(test.size()));
  m.accuracy = correct / n;
  m.slowdown = geomean(selection_slowdowns(chosen, times));
  m.rme = ml::relative_mean_error(measured, predicted);
  return m;
}

// ---------------------------------------------------------------------------
// Ingest: the paper's pipeline on one Matrix Market file.

struct Ingested {
  std::string name;
  CsrPtr csr;
};

Ingested ingest(const std::string& path, const std::string& name,
                const Models& models) {
  Span span("bench.pipeline", name);
  Ingested in;
  in.name = name;
  {
    Span parse("sparse.ingest.parse", name);
    in.csr = std::make_shared<const Csr<double>>(read_matrix_market(path));
    parse.set_work(static_cast<double>(in.csr->nnz()));
  }
  FeatureVector features;
  {
    Span extract("features.extract", name,
                 static_cast<double>(in.csr->nnz()));
    features = extract_features(*in.csr);
  }
  {
    Span select("core.select", name);
    models.selectors[kServedKind]->select(features);
  }
  {
    Span predict("core.predict_all", name);
    models.perf->predict_all(features);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Sweep: every format of a matrix, converted in a ConversionArena and
// timed at one thread and at nproc threads, with output checks.

struct SweepStats {
  std::array<std::vector<double>, kNumFormats> gflops, gflops_1t, bw_frac,
      convert_ms;
  std::vector<double> all_par, all_1t;
  double speedup_min = std::numeric_limits<double>::infinity();
  std::uint64_t cells = 0;
  std::uint64_t infeasible = 0;
};

// A (matrix, format) cell is infeasible when the format's device image
// exceeds this multiple of the CSR image (ELL on a power-law matrix needs
// 50-1000x, up to gigabytes), as the paper excluded formats that did not
// fit device memory.
constexpr double kMaxBlowup = 8.0;

// Service memory budget: the feasibility gate keeps a materialize request
// from building a format image larger than this.
constexpr double kServeMemBudgetGb = 1.0;

/// nproc-thread SpMV: spmv_parallel where the format has one, else the
/// serial kernel (COO and CSR5 have no parallel path).
void spmv_nproc(const AnyMatrix<double>& a, std::span<const double> x,
                std::span<double> y) {
  switch (a.format()) {
    case Format::kCsr: spmv_parallel(a.get<Csr<double>>(), x, y); return;
    case Format::kEll: spmv_parallel(a.get<Ell<double>>(), x, y); return;
    case Format::kHyb: spmv_parallel(a.get<Hyb<double>>(), x, y); return;
    case Format::kMergeCsr:
      spmv_parallel(a.get<MergeCsr<double>>(), x, y);
      return;
    case Format::kSell: spmv_parallel(a.get<Sell<double>>(), x, y); return;
    case Format::kCoo:
    case Format::kCsr5: a.spmv(x, y); return;
  }
}

struct SweepMatrix {
  std::string name;
  const Csr<double>* csr = nullptr;
};

/// State of one matrix in a sweep: its vectors and its arena.
struct MatrixState {
  SweepMatrix m;
  std::vector<double> x, yref, ys, yp;
  ConversionArena<double> arena;
  std::vector<double> gflops;  // per format, for the per-matrix note
};

/// One (matrix, format) cell and its samples.
struct Cell {
  MatrixState* ms = nullptr;
  Format f = Format::kCsr;
  const AnyMatrix<double>* a = nullptr;
  int calls = 1;  // SpMV calls per timed sample
  std::vector<double> convert_ms, t1, tp;
};

// Target length of one timed sample: short, so a run takes many samples
// of every cell across its whole sweep.
constexpr double kSampleS = 0.5e-3;

// A cell's time per call is this quantile of its samples. Interference
// from other tenants of a shared host only ever slows a sample, so the
// fast tail follows the kernel and not the neighbours; the 10th
// percentile rather than the minimum, so no single sample sets it.
constexpr double kFastQuantile = 0.1;

/// Cold conversion, the reference check, and the calls-per-sample
/// calibration (about kSampleS per sample).
void prepare(Cell& c, Context& ctx) {
  MatrixState& ms = *c.ms;
  const std::string& name = ms.m.name;
  const double nnz = static_cast<double>(ms.m.csr->nnz());
  {
    Span convert("sparse.convert", name, nnz);
    c.a = &ms.arena.convert(c.f, *ms.m.csr);
  }
  const auto t0 = Clock::now();
  {
    Span call("sparse.spmv", name, nnz);
    c.a->spmv(ms.x, ms.ys);
  }
  const double one_s = std::max(seconds_since(t0), 1e-7);
  c.calls = std::clamp(static_cast<int>(std::ceil(kSampleS / one_s)), 1, 256);
  for (std::size_t r = 0; r < ms.ys.size(); ++r)
    if (std::abs(ms.ys[r] - ms.yref[r]) > 1e-9 * std::abs(ms.yref[r])) {
      ctx.report.violation(name + " " + format_key(c.f) +
                           ": y differs from spmv_reference at row " +
                           std::to_string(r));
      break;
    }
}

/// One timed warm conversion (the arena slot already holds the format).
void time_convert(Cell& c) {
  MatrixState& ms = *c.ms;
  const auto t0 = Clock::now();
  {
    Span convert("sparse.convert", ms.m.name,
                 static_cast<double>(ms.m.csr->nnz()));
    c.a = &ms.arena.convert(c.f, *ms.m.csr);
  }
  c.convert_ms.push_back(ms_between(t0, Clock::now()));
}

/// One timed sample: `calls` serial SpMVs, `calls` nproc-thread SpMVs,
/// and the bitwise serial == parallel check.
void sample(Cell& c, Context& ctx) {
  MatrixState& ms = *c.ms;
  const std::string& name = ms.m.name;
  const double nnz = static_cast<double>(ms.m.csr->nnz());
  auto t0 = Clock::now();
  for (int k = 0; k < c.calls; ++k) {
    Span call("sparse.spmv", name, nnz);
    c.a->spmv(ms.x, ms.ys);
  }
  c.t1.push_back(seconds_since(t0) / c.calls);
  t0 = Clock::now();
  for (int k = 0; k < c.calls; ++k) {
    Span call("sparse.spmv_parallel", name, nnz);
    spmv_nproc(*c.a, ms.x, ms.yp);
  }
  c.tp.push_back(seconds_since(t0) / c.calls);
  if (std::memcmp(ms.ys.data(), ms.yp.data(), ms.ys.size() * sizeof(double)) != 0)
    ctx.report.violation(name + " " + format_key(c.f) +
                         ": serial and parallel y differ bitwise");
}

void finish(const Cell& c, const Fingerprint& fp, SweepStats& out) {
  const Csr<double>& csr = *c.ms->m.csr;
  const double nnz = static_cast<double>(csr.nnz());
  const double m1 = quantile(c.t1, kFastQuantile);
  const double mp = quantile(c.tp, kFastQuantile);
  // Computed bytes: the format's bytes() plus one pass over x and y.
  const double bytes = static_cast<double>(c.a->bytes()) +
                       8.0 * static_cast<double>(csr.rows() + csr.cols());
  const auto i = static_cast<std::size_t>(c.f);
  out.gflops[i].push_back(2.0 * nnz / mp / 1e9);
  out.gflops_1t[i].push_back(2.0 * nnz / m1 / 1e9);
  out.bw_frac[i].push_back(bytes / mp / 1e9 / fp.triad_gbs);
  if (!c.convert_ms.empty())
    out.convert_ms[i].push_back(median(c.convert_ms));
  out.all_par.push_back(2.0 * nnz / mp / 1e9);
  out.all_1t.push_back(2.0 * nnz / m1 / 1e9);
  out.speedup_min = std::min(out.speedup_min, m1 / mp);
  c.ms->gflops.push_back(2.0 * nnz / mp / 1e9);
  ++out.cells;
}

/// A sweep whose cells stay converted: prepared once, measured in rounds
/// (every cell once per round, so each cell's median spans every window
/// the rounds ran in), then finished into SweepStats.
struct SweepRun {
  std::vector<std::unique_ptr<MatrixState>> states;
  std::vector<Cell> cells;
  int rounds = 0;
};

// Rounds of a sweep: at least kMinReps, and the first kConvertReps also
// time a warm conversion of every cell.
constexpr int kMinReps = 3;
constexpr int kConvertReps = 3;

std::unique_ptr<MatrixState> matrix_state(const SweepMatrix& m,
                                          std::uint64_t seed) {
  auto ms = std::make_unique<MatrixState>();
  ms->m = m;
  const auto rows = static_cast<std::size_t>(m.csr->rows());
  ms->x.resize(static_cast<std::size_t>(m.csr->cols()));
  ms->yref.resize(rows);
  ms->ys.resize(rows);
  ms->yp.resize(rows);
  Rng rng(hash_combine(seed, m.csr->nnz()));
  for (double& v : ms->x) v = 0.5 + rng.uniform();
  spmv_reference(*m.csr, ms->x, ms->yref);
  return ms;
}

/// The formats of `m` whose device image fits kMaxBlowup x CSR.
std::vector<Format> feasible_formats(const Csr<double>& m, SweepStats& out) {
  const RowSummary summary = summarize(m);
  const double csr_bytes = format_device_bytes(summary, Format::kCsr, kPrec);
  std::vector<Format> formats;
  for (const Format f : kAllFormats) {
    if (format_device_bytes(summary, f, kPrec) > kMaxBlowup * csr_bytes)
      ++out.infeasible;
    else
      formats.push_back(f);
  }
  return formats;
}

SweepRun prepare_sweep(const std::vector<SweepMatrix>& matrices,
                       std::uint64_t seed, Context& ctx, SweepStats& out) {
  SweepRun run;
  for (const SweepMatrix& m : matrices) {
    run.states.push_back(matrix_state(m, seed));
    for (const Format f : feasible_formats(*m.csr, out)) {
      Cell c;
      c.ms = run.states.back().get();
      c.f = f;
      prepare(c, ctx);
      run.cells.push_back(std::move(c));
    }
  }
  return run;
}

/// Rounds until `budget_s` has passed and the sweep has at least
/// kMinReps rounds in all.
void sweep_rounds(SweepRun& run, double budget_s, Context& ctx) {
  Span span("bench.sweep");
  const auto start = Clock::now();
  for (;; ++run.rounds) {
    if (run.rounds >= kMinReps && seconds_since(start) >= budget_s) break;
    for (Cell& c : run.cells) {
      if (run.rounds < kConvertReps) time_convert(c);
      sample(c, ctx);
    }
  }
}

void finish_sweep(SweepRun& run, Context& ctx, SweepStats& out) {
  for (const Cell& c : run.cells) finish(c, ctx.fp, out);
  ctx.report.note("sweep.rounds", static_cast<double>(run.rounds));
  for (const auto& ms : run.states)
    ctx.report.note("matrix." + ms->m.name + ".sweep_gflops",
                    geomean(ms->gflops));
}

/// A matrix larger than the LLC: one format at a time, kMinReps samples
/// each (no warm conversion: rebuilding a 28.7M-nonzero image takes up to
/// a second), freed before the next so only one format image is resident.
void sweep_one_at_a_time(const SweepMatrix& m, std::uint64_t seed,
                         Context& ctx, SweepStats& out) {
  Span span("bench.sweep", m.name);
  auto ms = matrix_state(m, seed);
  for (const Format f : feasible_formats(*m.csr, out)) {
    Cell c;
    c.ms = ms.get();
    c.f = f;
    prepare(c, ctx);
    for (int rep = 0; rep < kMinReps; ++rep) sample(c, ctx);
    finish(c, ctx.fp, out);
    ms->arena.clear();
  }
  ctx.report.note("matrix." + m.name + ".sweep_gflops", geomean(ms->gflops));
}

/// The nproc-thread SpMV of every kept cell timed once more (after the
/// serving phase), over its time in the sweep; geometric mean.
/// Above 1 the parallel runtime got slower while the service ran.
double parallel_drift(SweepRun& run) {
  std::vector<double> ratios;
  for (Cell& c : run.cells) {
    const auto t0 = Clock::now();
    for (int k = 0; k < c.calls; ++k) spmv_nproc(*c.a, c.ms->x, c.ms->yp);
    ratios.push_back(seconds_since(t0) / c.calls /
                     quantile(c.tp, kFastQuantile));
  }
  return geomean(ratios);
}

// ---------------------------------------------------------------------------
// Serving: request streams, the closed and open loops, output checks and
// the layer-call replay.

struct Bundle {
  std::shared_ptr<const FormatSelector> selector;
  std::shared_ptr<const PerfModel> perf;
};

struct ServeInputs {
  std::vector<std::string> paths;
  std::vector<FeatureVector> inline_features;
};

/// One request of the stream, what came back, and how long it took.
struct Exchange {
  serve::Request req;
  int file = -1;  // index into ServeInputs::paths; -1 = inline features
  serve::Response rsp;
  double latency_ms = 0.0;
  std::int64_t submit_ns = 0;
  std::atomic<int> callbacks{0};
};

struct ServeRun {
  std::vector<std::unique_ptr<Exchange>> log;  // submission order
  std::vector<double> lateness_ms;  // scheduled events: sends or swaps
  std::vector<double> install_ms;   // every ModelRegistry::install
  std::map<std::uint64_t, Bundle> bundles;  // by model version
  double wall_s = 0.0;
  bool versions_monotonic = true;
};

std::unique_ptr<Exchange> make_exchange(const std::string& id,
                                        RequestMode mode, int file,
                                        const ServeInputs& in,
                                        const FeatureVector* features,
                                        bool materialize) {
  auto x = std::make_unique<Exchange>();
  x->req.id = id;
  x->req.mode = mode;
  x->file = file;
  if (file >= 0) {
    x->req.matrix_path = in.paths[static_cast<std::size_t>(file)];
    x->req.materialize = materialize && mode != RequestMode::kPredict;
  } else {
    x->req.features.assign(features->values.begin(), features->values.end());
  }
  return x;
}

/// Mixed traffic: half inline-feature requests, half file requests,
/// modes cycling select / indirect / predict, a `materialize_share` of the
/// file requests materializing their selected format.
std::unique_ptr<Exchange> mixed_request(const std::string& id, std::uint64_t k,
                                        Rng& rng, const ServeInputs& in,
                                        double materialize_share = 0.125) {
  const RequestMode mode = static_cast<RequestMode>(k % 3);
  if (rng.uniform() < 0.5) {
    const auto& fv =
        in.inline_features[rng() % in.inline_features.size()];
    return make_exchange(id, mode, -1, in, &fv, false);
  }
  const int file = static_cast<int>(rng() % in.paths.size());
  return make_exchange(id, mode, file, in, nullptr,
                       rng.uniform() < materialize_share);
}

void record_request_span(const Exchange& x, std::uint64_t parent,
                         std::int64_t end_ns) {
  SpanRecord rec;
  rec.name = "serve.request";
  rec.req = x.req.id;
  rec.start_ns = x.submit_ns;
  rec.end_ns = end_ns;
  rec.parent = parent;
  Tracer::get().record(std::move(rec));
}

void timed_install(serve::ModelRegistry& registry, const Bundle& b,
                   ServeRun& run) {
  const auto t0 = Clock::now();
  const std::uint64_t version = registry.install(b.selector, b.perf);
  run.install_ms.push_back(ms_between(t0, Clock::now()));
  run.bundles[version] = b;
}

/// One materializing request per file, so the ingest and feature caches
/// and the workers' conversion arenas are filled before timing.
void warm(serve::Service& service, const std::vector<std::string>& paths) {
  for (const auto& path : paths) {
    serve::Request req;
    req.id = "warm";
    req.matrix_path = path;
    req.materialize = true;
    service.call(req);
  }
}

/// Closed loop: `clients` threads, each sending its next request only
/// after the previous one returned, for `seconds`; `swaps` hot swaps
/// through the four selectors run on a fixed schedule meanwhile.
void run_closed_loop(serve::Service& service, serve::ModelRegistry& registry,
                     const Models& models, const ServeInputs& in,
                     std::uint64_t seed, int clients, double seconds,
                     int swaps, ServeRun& run) {
  Span phase("bench.serve.closed");
  const std::uint64_t parent = phase.id();
  const bool tracing = Tracer::get().enabled();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::vector<std::unique_ptr<Exchange>>> per_client(
      static_cast<std::size_t>(clients));
  std::vector<char> monotonic(static_cast<std::size_t>(clients), 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(hash_combine(seed, 0xC11E47 + static_cast<std::uint64_t>(c)));
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      std::uint64_t last_version = 0;
      auto& mine = per_client[static_cast<std::size_t>(c)];
      for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
        auto x = mixed_request(
            "h" + std::to_string(c) + "-" + std::to_string(k), k, rng, in);
        Exchange* xp = x.get();
        done = false;
        const auto t0 = Clock::now();
        xp->submit_ns = Tracer::now_ns();
        service.submit(xp->req, [&, xp](const serve::Response& r) {
          std::lock_guard<std::mutex> lock(mu);
          xp->rsp = r;
          xp->callbacks.fetch_add(1);
          done = true;
          cv.notify_one();
        });
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done; });
        }
        xp->latency_ms = ms_between(t0, Clock::now());
        if (tracing) record_request_span(*xp, parent, Tracer::now_ns());
        if (xp->rsp.ok) {
          if (xp->rsp.model_version < last_version)
            monotonic[static_cast<std::size_t>(c)] = 0;
          last_version = xp->rsp.model_version;
        }
        mine.push_back(std::move(x));
      }
    });
  }
  std::thread swapper([&] {
    for (int s = 0; s < swaps; ++s) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds * (s + 1) /
                                                    (swaps + 1)));
      std::this_thread::sleep_until(due);
      run.lateness_ms.push_back(ms_between(due, Clock::now()));
      Span span("serve.swap");
      timed_install(registry,
                    {models.selectors[static_cast<std::size_t>(s % kNumKinds)],
                     models.perf},
                    run);
    }
  });
  for (auto& t : threads) t.join();
  swapper.join();
  run.wall_s = seconds_since(start);
  // Interleave the clients' streams so a prefix samples every client.
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (auto& mine : per_client)
      if (k < mine.size()) {
        run.log.push_back(std::move(mine[k]));
        any = true;
      }
    if (!any) break;
  }
  for (char ok : monotonic) run.versions_monotonic = run.versions_monotonic && ok;
}

/// Open loop: request i is due at start + i / rate whatever the service
/// is doing; latency counts from the due time, and the generator's own
/// lateness is kept. Returns after every callback has run.
void run_open_loop(serve::Service& service,
                   std::vector<std::unique_ptr<Exchange>> stream, double rate,
                   ServeRun& run) {
  Span phase("bench.serve.open");
  const std::uint64_t parent = phase.id();
  const bool tracing = Tracer::get().enabled();
  run.log = std::move(stream);
  const std::size_t n = run.log.size();
  std::vector<Clock::time_point> due(n);
  std::vector<Clock::time_point> done(n);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::atomic<std::size_t> completed{0};
  std::mutex mu;
  std::condition_variable all_done;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due[i]);
    run.lateness_ms.push_back(ms_between(due[i], Clock::now()));
    Exchange* xp = run.log[i].get();
    xp->submit_ns = Tracer::now_ns();
    service.submit(xp->req, [&, xp, i](const serve::Response& r) {
      xp->rsp = r;
      done[i] = Clock::now();
      if (tracing) record_request_span(*xp, parent, Tracer::now_ns());
      xp->callbacks.fetch_add(1);
      if (completed.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        all_done.notify_one();
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait_for(lock, std::chrono::seconds(60),
                      [&] { return completed.load() == n; });
  }
  service.shutdown();  // drains anything still in flight
  Clock::time_point last = start;
  for (std::size_t i = 0; i < n; ++i) {
    run.log[i]->latency_ms = ms_between(due[i], done[i]);
    last = std::max(last, done[i]);
  }
  run.wall_s = ms_between(start, last) * 1e-3;
}

FeatureVector to_features(const std::vector<double>& values) {
  FeatureVector fv;
  std::copy(values.begin(), values.end(), fv.values.begin());
  return fv;
}

/// Output checks: exactly one callback per request, every ok format a
/// candidate, a seeded sample equal to direct select / predict_all calls
/// on the bundle that served it, and monotonic model versions.
void check_serving(const ServeRun& run, const ServeInputs& in,
                   const serve::ModelRegistry& registry, std::uint64_t seed,
                   Context& ctx) {
  std::map<int, FeatureVector> file_features;
  std::uint64_t sampled = 0;
  for (std::size_t i = 0; i < run.log.size(); ++i) {
    const Exchange& x = *run.log[i];
    const serve::Response& r = x.rsp;
    if (x.callbacks.load() != 1) {
      ctx.report.violation(x.req.id + ": " + std::to_string(x.callbacks.load()) +
                           " callbacks");
      continue;
    }
    if (!r.ok) continue;  // counted as failed, not as a check violation
    const auto it = run.bundles.find(r.model_version);
    if (it == run.bundles.end()) {
      ctx.report.violation(x.req.id + ": served by unknown model version " +
                           std::to_string(r.model_version));
      continue;
    }
    const Bundle& b = it->second;
    const auto candidates = b.selector->candidates();
    if (std::find(candidates.begin(), candidates.end(), r.format) ==
        candidates.end())
      ctx.report.violation(x.req.id + ": format outside the candidate set");
    if (hash_combine(seed, i) % 16 != 0 || r.degraded || r.fallback) continue;
    ++sampled;
    FeatureVector fv;
    if (x.file >= 0) {
      auto fit = file_features.find(x.file);
      if (fit == file_features.end())
        fit = file_features
                  .emplace(x.file, extract_features(read_matrix_market(
                                       in.paths[static_cast<std::size_t>(x.file)])))
                  .first;
      fv = fit->second;
    } else {
      fv = to_features(x.req.features);
    }
    // select and predict report the classifier's pick; indirect reports
    // the argmin of the predicted times as both pick and format.
    const Format direct = b.selector->select(fv);
    bool same = x.req.mode == RequestMode::kIndirect || r.predicted == direct;
    if (x.req.mode == RequestMode::kSelect) same = same && r.format == direct;
    if (x.req.mode != RequestMode::kSelect) {
      const std::vector<double> times = b.perf->predict_all(fv);
      const auto formats = b.perf->formats();
      same = same && r.predicted_us.size() == times.size();
      std::size_t best = 0;
      for (std::size_t k = 0; same && k < times.size(); ++k) {
        same = r.predicted_us[k].first == formats[k] &&
               r.predicted_us[k].second == times[k] * 1e6;
        if (times[k] < times[best]) best = k;
      }
      if (x.req.mode == RequestMode::kIndirect)
        same = same && r.format == formats[best] &&
               r.predicted == formats[best];
    }
    if (!same)
      ctx.report.violation(
          x.req.id + " (" + serve::request_mode_name(x.req.mode) +
          (x.file >= 0 ? ", file" : ", inline") + ", served " +
          format_name(r.format) + "/" + format_name(r.predicted) +
          ", direct " + format_name(direct) +
          "): response differs from direct select/predict_all");
  }
  ctx.report.note("serve.checked_sample", static_cast<double>(sampled));
  if (!run.versions_monotonic)
    ctx.report.violation("a client saw the model version move backwards");
  std::uint64_t expect = 1;
  for (const auto& ev : registry.history()) {
    if (ev.action != "install" || ev.version != expect)
      ctx.report.violation("swap journal: " + ev.action + " v" +
                           std::to_string(ev.version) + ", expected install v" +
                           std::to_string(expect));
    ++expect;
  }
}

/// Replays a prefix of the request stream through the public layer calls
/// the service makes (parse, extract, select, predict_all, convert, spmv).
/// With `count` == 0 it runs until `budget_s` and returns how many it did.
std::size_t replay(const ServeRun& run, const ServeInputs& in,
                   std::size_t count, double budget_s) {
  const auto t0 = Clock::now();
  ConversionArena<double> arena;
  std::map<int, std::pair<CsrPtr, FeatureVector>> seen;
  std::vector<double> x, y;
  std::size_t i = 0;
  for (; i < run.log.size(); ++i) {
    if (count > 0 ? i >= count : seconds_since(t0) >= budget_s) break;
    const Exchange& ex = *run.log[i];
    if (!ex.rsp.ok) continue;
    const Bundle& b = run.bundles.at(ex.rsp.model_version);
    Span span("bench.replay", ex.req.id);
    CsrPtr csr;
    FeatureVector fv;
    if (ex.file >= 0) {
      auto it = seen.find(ex.file);
      // The service parsed and extracted on a feature-cache miss only.
      if (it == seen.end() || !ex.rsp.cache_hit) {
        CsrPtr parsed;
        {
          Span parse("sparse.ingest.parse", ex.req.id);
          parsed = std::make_shared<const Csr<double>>(read_matrix_market(
              in.paths[static_cast<std::size_t>(ex.file)]));
          parse.set_work(static_cast<double>(parsed->nnz()));
        }
        Span extract("features.extract", ex.req.id,
                     static_cast<double>(parsed->nnz()));
        it = seen.insert_or_assign(ex.file,
                                   std::make_pair(parsed, extract_features(*parsed)))
                 .first;
      }
      csr = it->second.first;
      fv = it->second.second;
    } else {
      fv = to_features(ex.req.features);
    }
    {
      Span select("core.select", ex.req.id);
      b.selector->select(fv);
    }
    if (ex.req.mode != RequestMode::kSelect) {
      Span predict("core.predict_all", ex.req.id);
      b.perf->predict_all(fv);
    }
    if (ex.req.materialize && csr && ex.rsp.materialized) {
      const double nnz = static_cast<double>(csr->nnz());
      const AnyMatrix<double>* a = nullptr;
      {
        Span convert("sparse.convert", ex.req.id, nnz);
        a = &arena.convert(ex.rsp.format, *csr);
      }
      x.assign(static_cast<std::size_t>(csr->cols()), 1.0);
      y.assign(static_cast<std::size_t>(csr->rows()), 0.0);
      Span call("sparse.spmv", ex.req.id, nnz);
      a->spmv(x, y);
    }
  }
  return i;
}

// ---------------------------------------------------------------------------
// Metrics.

/// `train_s` holds one time per training of the same corpus in the run;
/// the metric is the fastest. Other tenants of a shared host, and through
/// them the spinning OpenMP barriers of ROADMAP item 1, only ever slow a
/// training (one MLP perf-model fit took 24 s instead of 3.5); the slowest
/// is noted, so the defect stays visible. Per-layer times are `m`'s.
void report_train(const Models& m, const std::vector<double>& train_s,
                  Report& rep) {
  const auto [lo, hi] = std::minmax_element(train_s.begin(), train_s.end());
  rep.e2e("train_s", *lo, "s");
  rep.note("train_s.max", *hi);
  rep.note("train_s.trainings", static_cast<double>(train_s.size()));
  rep.e2e("select_accuracy", m.accuracy, "fraction");
  rep.e2e("select_slowdown", m.slowdown, "ratio");
  rep.e2e("predict_rme", m.rme, "fraction");
  rep.layer("core.collect_s", m.collect_s, "s");
  rep.layer("core.collect.cells",
            static_cast<double>(m.stats.attempted) * kNumArchs *
                kNumPrecisions * kNumFormats,
            "count");
  rep.layer("core.collect.failed_cells",
            static_cast<double>(m.stats.failed_cells), "count");
  rep.layer("core.collect.retries",
            static_cast<double>(m.stats.transient_retries), "count");
  for (int k = 0; k <= kNumKinds; ++k)
    rep.layer(std::string("ml.fit_s.") + kFitNames[k],
              m.fit_s[static_cast<std::size_t>(k)], "s");
  rep.note("train.test_samples", static_cast<double>(m.test_features.size()));
  rep.count_fixed(m.stats.attempted * kNumArchs * kNumPrecisions * kNumFormats,
                  m.stats.failed_cells);
}

void report_sweep(const SweepStats& s, Report& rep) {
  rep.e2e("sweep_gflops", geomean(s.all_par), "GFLOPS");
  rep.e2e("sweep_gflops_1t", geomean(s.all_1t), "GFLOPS");
  for (const Format f : kAllFormats) {
    const auto i = static_cast<std::size_t>(f);
    const std::string p = std::string("sparse.spmv.") + format_key(f);
    rep.layer(p + ".gflops", geomean(s.gflops[i]), "GFLOPS");
    rep.layer(p + ".gflops_1t", geomean(s.gflops_1t[i]), "GFLOPS");
    rep.layer(p + ".bw_frac", geomean(s.bw_frac[i]), "fraction");
    rep.layer(std::string("sparse.convert.") + format_key(f) + ".ms",
              geomean(s.convert_ms[i]), "ms");
  }
  rep.layer("sparse.spmv.par_speedup_min", s.speedup_min, "ratio");
  rep.note("sweep.cells", static_cast<double>(s.cells));
  rep.note("sweep.infeasible_cells", static_cast<double>(s.infeasible));
  rep.count_fixed(s.cells, 0);
}

/// serve_p99_ms: the median, over consecutive windows of 1000 requests in
/// submission order, of each window's p99 (ten samples beyond it). A
/// burst of interference from outside the process then moves one window,
/// not the result; the whole-run p99 is noted beside it.
double windowed_p99(const std::vector<double>& latency) {
  constexpr std::size_t kWindow = 1000;
  if (latency.size() < 2 * kWindow) return tail_percentile(latency).value;
  std::vector<double> p99s;
  for (std::size_t lo = 0; lo + kWindow <= latency.size(); lo += kWindow)
    p99s.push_back(quantile({latency.begin() + static_cast<long>(lo),
                             latency.begin() + static_cast<long>(lo + kWindow)},
                            0.99));
  return median(p99s);
}

/// `closed_base`: for a closed loop, the fixed request count its failures
/// are scaled to for failed_frac (its own count moves with throughput);
/// 0 for an open loop, whose request count is fixed by its schedule.
void report_serving(const ServeRun& run, const serve::Service& service,
                    Report& rep, double closed_base = 0.0) {
  std::vector<double> latency, queue, batch, feat, cls, reg, fin, conv, spmv;
  std::uint64_t ok = 0;
  for (const auto& x : run.log) {
    latency.push_back(x->latency_ms);
    const serve::Response& r = x->rsp;
    if (!r.ok) continue;
    ++ok;
    queue.push_back(r.queue_ms);
    batch.push_back(static_cast<double>(r.batch));
    if (r.has_stage_ms) {
      feat.push_back(r.stage_features_ms);
      cls.push_back(r.stage_classify_ms);
      reg.push_back(r.stage_regress_ms);
      fin.push_back(r.stage_finalize_ms);
    }
    if (r.materialized) {
      conv.push_back(r.convert_ms);
      spmv.push_back(r.spmv_ms);
    }
  }
  const std::uint64_t sent = run.log.size(), failed = sent - ok;
  if (closed_base > 0.0) {
    rep.attempted += sent;
    rep.failed += failed;
    rep.base += closed_base;
    rep.base_failed += static_cast<double>(failed) * closed_base /
                       std::max(1.0, static_cast<double>(sent));
  } else {
    rep.count_fixed(sent, failed);
  }
  const Tail whole = tail_percentile(latency);
  rep.e2e("serve_rps", static_cast<double>(ok) / run.wall_s, "1/s");
  rep.e2e("serve_p50_ms", median(latency), "ms");
  // Per-layer: its run-to-run spread (up to 56% over ten seeds on
  // serve-hot, where the closed loop keeps every CPU busy) is wider than
  // any end-to-end bound allows.
  rep.layer("serve_p99_ms", windowed_p99(latency), "ms");
  rep.note("serve.requests", static_cast<double>(run.log.size()));
  rep.note("serve.whole_run_tail_percentile", whole.pct);
  rep.note("serve.whole_run_tail_ms", whole.value);

  const Tail q99 = tail_percentile(queue);
  rep.layer("serve.queue_ms.p50", median(queue), "ms");
  rep.layer("serve.queue_ms.p99", q99.value, "ms");
  rep.layer("serve.batch.mean", mean(batch), "requests");
  rep.layer("serve.stage.features_ms.p50", median(feat), "ms");
  rep.layer("serve.stage.classify_ms.p50", median(cls), "ms");
  rep.layer("serve.stage.regress_ms.p50", median(reg), "ms");
  rep.layer("serve.stage.finalize_ms.p50", median(fin), "ms");
  rep.layer("serve.materialize.convert_ms.p50", median(conv), "ms");
  rep.layer("serve.materialize.spmv_ms.p50", median(spmv), "ms");
  rep.note("serve.materialized", static_cast<double>(conv.size()));

  const auto ingest = service.ingest().stats();
  const auto features = service.cache().stats();
  const double ingest_lookups = static_cast<double>(ingest.hits + ingest.misses);
  const double feature_lookups =
      static_cast<double>(features.hits + features.misses);
  rep.layer("serve.ingest.hit_ratio",
            static_cast<double>(ingest.hits) / std::max(1.0, ingest_lookups),
            "fraction");
  rep.layer("serve.ingest.lookups", ingest_lookups, "count");
  rep.layer("serve.features.hit_ratio",
            static_cast<double>(features.hits) / std::max(1.0, feature_lookups),
            "fraction");
  rep.layer("serve.features.lookups", feature_lookups, "count");
  const auto c = service.counters();
  rep.layer("serve.rejected", static_cast<double>(c.rejected), "count");
  rep.layer("serve.shed", static_cast<double>(c.shed), "count");
  rep.layer("serve.degraded", static_cast<double>(c.degraded), "count");
  rep.layer("serve.retries", static_cast<double>(c.retries), "count");
  rep.layer("serve.steals", static_cast<double>(c.steals), "count");
  rep.layer("serve.swap.install_ms", median(run.install_ms), "ms");
  rep.layer("serve.swaps",
            static_cast<double>(run.install_ms.size()) - 1.0, "count");
  rep.layer("serve.open.lateness_ms.p99",
            tail_percentile(run.lateness_ms).value, "ms");
}

/// Per-layer figures taken from the spans, plus the tracing overhead from
/// untraced and traced replays of the same requests (U T U T).
void report_traced(const ServeRun& run, const ServeInputs& in, double seconds,
                   Report& rep) {
  Tracer& tracer = Tracer::get();
  tracer.set_enabled(false);
  // An untimed pass fixes the request count and warms the page cache.
  const std::size_t count = replay(run, in, 0, 0.02 * seconds);
  double untraced = 0.0, traced = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    tracer.set_enabled(pass % 2 == 1);
    const auto t0 = Clock::now();
    replay(run, in, count, 0.0);
    (pass % 2 == 1 ? traced : untraced) += seconds_since(t0);
  }
  tracer.set_enabled(false);
  rep.note("trace.replayed_requests", static_cast<double>(count));
  rep.layer("trace.overhead_frac", traced / untraced - 1.0, "fraction");

  const double parse_mnnz = tracer.total_work("sparse.ingest.parse") / 1e6;
  rep.layer("sparse.ingest.parse_ms_per_mnnz",
            tracer.total_ms("sparse.ingest.parse") / parse_mnnz, "ms/Mnnz");
  rep.layer("features.extract_ns_per_nnz",
            tracer.total_ms("features.extract") * 1e6 /
                tracer.total_work("features.extract"),
            "ns/nnz");
  rep.layer("core.select_us", median(tracer.durations_ms("core.select")) * 1e3,
            "us");
  rep.layer("core.predict_all_us",
            median(tracer.durations_ms("core.predict_all")) * 1e3, "us");
}

// ---------------------------------------------------------------------------
// Inputs.

std::string write_matrix(Context& ctx, const std::string& name,
                         const Csr<double>& m) {
  const std::string path = ctx.work_dir + "/" + name + ".mtx";
  write_matrix_market(path, m);
  return path;
}

GenSpec spec_of(MatrixFamily family, index_t rows, double mu,
                std::uint64_t seed) {
  GenSpec g;
  g.family = family;
  g.rows = rows;
  g.cols = rows;
  g.row_mu = mu;
  g.row_cv = 0.5;
  g.band_frac = 0.01;
  g.seed = seed;
  return g;
}

/// A matrix of about `nnz` nonzeros from `family`. The shape is fixed;
/// the seed changes only the sparsity pattern and the values, so seeds
/// vary the inputs without changing their size.
GenSpec sized_spec(MatrixFamily family, double nnz, std::uint64_t seed) {
  const double mu = family == MatrixFamily::kStencil    ? 9.0
                    : family == MatrixFamily::kPowerLaw ? 8.0
                                                        : 16.0;
  return spec_of(family, static_cast<index_t>(nnz / mu), mu, seed);
}

void report_setup(Context& ctx, const std::vector<double>& setup_s) {
  ctx.report.e2e("setup_s", median(setup_s), "s");
  const auto [lo, hi] = std::minmax_element(setup_s.begin(), setup_s.end());
  ctx.report.note("setup_s.min", *lo);
  ctx.report.note("setup_s.max", *hi);
}

/// Peak RSS so far, noted per phase so peak_rss_mb can be attributed.
void note_peak_rss(Context& ctx, const std::string& phase) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ctx.report.note("peak_rss_mb.after_" + phase,
                  static_cast<double>(usage.ru_maxrss) / 1024.0);
}

void emit_sizes(Context& ctx, const std::string& name, const Csr<double>& m) {
  const double ws = host_bytes(m) + 8.0 * static_cast<double>(m.rows() + m.cols());
  ctx.report.note("matrix." + name + ".nnz", static_cast<double>(m.nnz()));
  ctx.report.note("matrix." + name + ".working_set_mib", ws / (1 << 20));
  ctx.report.note("matrix." + name + ".working_set_over_llc",
                  ws / static_cast<double>(std::max<std::int64_t>(1, ctx.fp.llc_bytes)));
}

/// Sweep for the serve workloads: the first `matrices` served files (one
/// per family first), read through the same ingest path.
/// Sweep for the serve workloads: the first `matrices` served files, read
/// through the same ingest path. `read` keeps them alive for the sweep.
SweepRun prepare_serve_sweep(Context& ctx, const Models& models,
                             const ServeInputs& in, std::size_t matrices,
                             std::vector<Ingested>& read, SweepStats& out) {
  for (std::size_t i = 0; i < std::min(matrices, in.paths.size()); ++i)
    read.push_back(ingest(in.paths[i], "f" + std::to_string(i), models));
  std::vector<SweepMatrix> suite;
  for (const Ingested& m : read) suite.push_back({m.name, m.csr.get()});
  return prepare_sweep(suite, ctx.opt.seed, ctx, out);
}

// ---------------------------------------------------------------------------
// Workloads.

void run_offline(Context& ctx) {
  const std::uint64_t seed = ctx.opt.seed;
  const double seconds = ctx.opt.seconds;
  // Sweep suite: five families at about 0.6M nonzeros (in the LLC), read
  // from Matrix Market files, plus one 17-point stencil whose working set
  // exceeds the LLC, generated in memory.
  const MatrixFamily families[] = {MatrixFamily::kStencil, MatrixFamily::kBanded,
                                   MatrixFamily::kUniformRandom,
                                   MatrixFamily::kPowerLaw,
                                   MatrixFamily::kBlockRandom};
  std::vector<std::string> paths, names;
  CsrPtr big;
  std::vector<double> setup_s;
  // Every repetition writes the same files and builds the same stencil.
  auto set_up = [&] {
    const auto t0 = Clock::now();
    paths.clear();
    names.clear();
    for (const MatrixFamily fam : families) {
      const std::string name = family_name(fam);
      names.push_back(name);
      const Csr<double> m = generate(sized_spec(
          fam, 6e5, hash_combine(seed, static_cast<std::uint64_t>(fam))));
      paths.push_back(write_matrix(ctx, name, m));
    }
    big.reset();
    big = std::make_shared<const Csr<double>>(generate(spec_of(
        MatrixFamily::kStencil, 1300 * 1300, 17.0, hash_combine(seed, 0xB16))));
    setup_s.push_back(seconds_since(t0));
  };
  for (int rep = 0; rep < kOfflineSetupBefore; ++rep) set_up();
  note_peak_rss(ctx, "setup");
  emit_sizes(ctx, "stencil-big", *big);

  Span phase("bench.offline");
  const auto start = Clock::now();
  const TrainSize train_size{800, 800};
  const Models models =
      train_models(hash_combine(seed, 1), train_size, ctx.nproc);
  std::vector<double> train_s{models.train_s};
  note_peak_rss(ctx, "train");

  std::vector<Ingested> suite;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    suite.push_back(ingest(paths[i], names[i], models));
    emit_sizes(ctx, names[i], *suite.back().csr);
  }

  // The suite's rounds run in two windows, before and after the big
  // stencil, so each cell's samples span more of the run.
  SweepStats sweep;
  const double serve_s = 0.1 * seconds;
  std::vector<SweepMatrix> small;
  for (const Ingested& m : suite) small.push_back({m.name, m.csr.get()});
  SweepRun kept = prepare_sweep(small, seed, ctx, sweep);
  sweep_rounds(kept, 0.1 * seconds, ctx);
  // Free the suite's formats while the big stencil's are resident.
  for (auto& ms : kept.states) ms->arena.clear();
  const auto big_t0 = Clock::now();
  sweep_one_at_a_time({"stencil-big", big.get()}, seed, ctx, sweep);
  ctx.report.note("phase.sweep_big_s", seconds_since(big_t0));
  big.reset();
  note_peak_rss(ctx, "sweep_big");
  for (Cell& c : kept.cells) c.a = &c.ms->arena.convert(c.f, *c.ms->m.csr);
  sweep_rounds(kept, seconds - serve_s - seconds_since(start), ctx);
  finish_sweep(kept, ctx, sweep);
  report_sweep(sweep, ctx.report);
  note_peak_rss(ctx, "sweep");

  // Deployment smoke: the trained bundle served at a fixed rate over the
  // suite files and the held-out feature vectors.
  ServeInputs in{paths, models.test_features};
  serve::ServiceConfig cfg;
  cfg.threads = ctx.nproc;
  cfg.mem_budget_gb = kServeMemBudgetGb;
  serve::ModelRegistry registry;
  ServeRun run;
  timed_install(registry, {models.selectors[kServedKind], models.perf}, run);
  serve::Service service(cfg, registry);
  warm(service, in.paths);
  const double rate = 1000.0;
  std::vector<std::unique_ptr<Exchange>> stream;
  Rng rng(hash_combine(seed, 0x0FF5));
  const auto n = static_cast<std::uint64_t>(rate * serve_s);
  // Materializing a 0.6M-nonzero suite matrix takes 3-8 ms; at one file
  // request in 128 (about 0.4% of requests) those stay above the p99.
  for (std::uint64_t i = 0; i < n; ++i)
    stream.push_back(
        mixed_request("o" + std::to_string(i), i, rng, in, 1.0 / 128));
  run_open_loop(service, std::move(stream), rate, run);
  report_serving(run, service, ctx.report);
  check_serving(run, in, registry, seed, ctx);
  ctx.report.layer("sparse.spmv.par_after_serve_ratio", parallel_drift(kept),
                   "ratio");
  for (int rep = kOfflineSetupBefore; rep < kOfflineSetupReps; ++rep) set_up();
  big.reset();
  report_setup(ctx, setup_s);
  // The same training once more, after the timed phase (see report_train).
  train_s.push_back(
      train_models(hash_combine(seed, 1), train_size, ctx.nproc).train_s);
  report_train(models, train_s, ctx.report);
  if (ctx.opt.trace) report_traced(run, in, seconds, ctx.report);
}

// serve-hot's failed_frac base: 500 requests per second of the run, about
// a sixth of what its closed loop completes on a 4-vCPU host.
constexpr double kClosedLoopBasePerS = 500.0;

/// State of a serve workload after set-up: files on disk, trained models,
/// a started Service holding the first bundle.
struct ServeSetup {
  ServeInputs in;
  Models models;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Service> service;
  ServeRun run;

  void reset() {
    service.reset();  // before the registry it references
    registry.reset();
    run = ServeRun{};
  }
};

void run_serve(Context& ctx, bool hot) {
  const std::uint64_t seed = ctx.opt.seed;
  const double seconds = ctx.opt.seconds;
  // serve-hot: eight small files, every lookup hits after warm-up.
  // serve-cold: 64 larger files; both caches are sized to a quarter of
  // that working set, so most requests parse and extract.
  const int files = hot ? 8 : 64;
  ServeSetup s;
  // The sweep of the first 8 served files runs in one window after each
  // set-up's training, before its Service starts: spread over the
  // set-ups, each cell's median spans more of the run, and no service
  // worker has opened OpenMP regions of its own yet (after that, small
  // parallel SpMVs slow down by up to 10x; see
  // sparse.spmv.par_after_serve_ratio, measured after serving).
  SweepStats sweep;
  std::vector<Ingested> swept;
  SweepRun kept;
  std::vector<double> setup_s, train_s;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    const auto t0 = Clock::now();
    s.reset();
    s.in.paths.clear();
    double total_bytes = 0.0;
    for (int i = 0; i < files; ++i) {
      // Family i mod 6; hot files 10k-20k nonzeros, cold 30k-60k.
      const double nnz = (hot ? 1e4 : 3e4) *
                         std::pow(2.0, static_cast<double>(i) / files);
      const GenSpec spec = sized_spec(
          static_cast<MatrixFamily>(i % kNumFamilies), nnz,
          hash_combine(seed, static_cast<std::uint64_t>(i) + 0xF11E5));
      const Csr<double> m = generate(spec);
      total_bytes += host_bytes(m);
      s.in.paths.push_back(write_matrix(ctx, "m" + std::to_string(i), m));
    }
    s.models = train_models(hash_combine(seed, 1), {300, 800}, ctx.nproc);
    train_s.push_back(s.models.train_s);
    s.in.inline_features = s.models.test_features;

    const auto sweep_t0 = Clock::now();
    if (rep == 0)
      kept = prepare_serve_sweep(ctx, s.models, s.in, 8, swept, sweep);
    sweep_rounds(kept, 0.2 * seconds / kServeSetupReps, ctx);
    const double sweep_s = seconds_since(sweep_t0);

    serve::ServiceConfig cfg;
    cfg.threads = ctx.nproc;
    cfg.mem_budget_gb = kServeMemBudgetGb;
    if (!hot) {
      cfg.cache_capacity = static_cast<std::size_t>(files / 4);
      cfg.ingest_cache_bytes = static_cast<std::size_t>(total_bytes / 4.0);
    }
    s.registry = std::make_unique<serve::ModelRegistry>();
    timed_install(*s.registry,
                  {s.models.selectors[kServedKind], s.models.perf}, s.run);
    s.service = std::make_unique<serve::Service>(cfg, *s.registry);
    if (hot) warm(*s.service, s.in.paths);
    setup_s.push_back(seconds_since(t0) - sweep_s);
    ctx.report.note("serve.working_set_mib", total_bytes / (1 << 20));
  }
  report_setup(ctx, setup_s);
  report_train(s.models, train_s, ctx.report);
  finish_sweep(kept, ctx, sweep);
  report_sweep(sweep, ctx.report);

  if (hot) {
    run_closed_loop(*s.service, *s.registry, s.models, s.in, seed, ctx.nproc,
                    seconds, 40, s.run);
    s.service->shutdown();
  } else {
    // Offered rate well below the 4-worker capacity (about 4x headroom
    // on a 4-vCPU Xeon VM), so queueing stays bounded.
    const double rate = 150.0;
    Rng rng(hash_combine(seed, 0xC01D));
    std::vector<std::unique_ptr<Exchange>> stream;
    const auto n = static_cast<std::uint64_t>(rate * seconds);
    for (std::uint64_t i = 0; i < n; ++i) {
      const int file = static_cast<int>(rng() % s.in.paths.size());
      stream.push_back(make_exchange(
          "c" + std::to_string(i),
          i % 2 == 0 ? RequestMode::kSelect : RequestMode::kIndirect, file,
          s.in, nullptr, true));
    }
    run_open_loop(*s.service, std::move(stream), rate, s.run);
  }
  report_serving(s.run, *s.service, ctx.report,
                 hot ? kClosedLoopBasePerS * seconds : 0.0);
  check_serving(s.run, s.in, *s.registry, seed, ctx);
  ctx.report.layer("sparse.spmv.par_after_serve_ratio", parallel_drift(kept),
                   "ratio");
  if (ctx.opt.trace) report_traced(s.run, s.in, seconds, ctx.report);
  s.reset();
}

}  // namespace

void run_workload(Context& ctx) {
  Tracer::get().set_enabled(ctx.opt.trace);
  if (ctx.opt.workload == "offline")
    run_offline(ctx);
  else if (ctx.opt.workload == "serve-hot")
    run_serve(ctx, true);
  else if (ctx.opt.workload == "serve-cold")
    run_serve(ctx, false);
  else
    throw std::invalid_argument("unknown workload: " + ctx.opt.workload);
}

}  // namespace perfbench
