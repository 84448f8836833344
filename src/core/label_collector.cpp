#include "core/label_collector.hpp"

#include <charconv>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <string_view>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "gpusim/row_summary.hpp"

namespace spmvml {

namespace {

// Collection-level accounting, one registry series per CollectStats
// field (the oracle separately counts every measure() call by status;
// these count *final* cell outcomes after retries).
struct CollectMetrics {
  obs::Counter cells_measured;
  obs::Counter cells_failed_oom;
  obs::Counter cells_failed_timeout;
  obs::Counter cells_failed_transient;
  obs::Counter retries;
  obs::Counter matrices_kept;
  obs::Counter matrices_dropped_prefilter;
  obs::Counter matrices_dropped_all_failed;
  obs::Counter cache_hits;
  obs::Counter resumed_records;
  obs::Counter checkpoints;
};

CollectMetrics& collect_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static CollectMetrics m{
      reg.counter("collect.cells.measured"),
      reg.counter("collect.cells.failed.oom"),
      reg.counter("collect.cells.failed.timeout"),
      reg.counter("collect.cells.failed.transient"),
      reg.counter("collect.retries"),
      reg.counter("collect.matrices.kept"),
      reg.counter("collect.matrices.dropped_prefilter"),
      reg.counter("collect.matrices.dropped_all_failed"),
      reg.counter("collect.cache.hits"),
      reg.counter("collect.resume.records"),
      reg.counter("collect.checkpoints"),
  };
  return m;
}

}  // namespace

int MatrixRecord::best_among(int arch, Precision prec,
                             std::span<const Format> candidates) const {
  SPMVML_ENSURE(!candidates.empty(), "no candidate formats");
  int best = -1;
  double best_t = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!valid(arch, prec, candidates[i])) continue;
    const double t = time(arch, prec, candidates[i]);
    if (t < best_t) {
      best_t = t;
      best = static_cast<int>(i);
    }
  }
  return best;
}

int MatrixRecord::num_valid(int arch, Precision prec) const {
  int n = 0;
  for (Format f : kAllFormats)
    if (valid(arch, prec, f)) ++n;
  return n;
}

bool MatrixRecord::fully_valid() const {
  for (int a = 0; a < kNumArchs; ++a)
    for (int p = 0; p < kNumPrecisions; ++p)
      if (num_valid(a, static_cast<Precision>(p)) != kNumFormats) return false;
  return true;
}

namespace {

constexpr std::size_t kCellsPerMatrix = static_cast<std::size_t>(kNumArchs) *
                                        kNumPrecisions * kNumFormats;

/// Per-plan-entry accounting, merged into CollectStats in plan order so
/// totals are the same at every thread count.
struct EntryStats {
  bool attempted = false;
  bool dropped_prefilter = false;
  bool dropped_all_failed = false;
  std::size_t failed_cells = 0;
  std::size_t oom_cells = 0;
  std::size_t timeout_cells = 0;
  std::size_t transient_cells = 0;
  std::size_t transient_retries = 0;

  void merge_into(CollectStats& s) const {
    s.attempted += attempted ? 1 : 0;
    s.dropped_prefilter += dropped_prefilter ? 1 : 0;
    s.dropped_all_failed += dropped_all_failed ? 1 : 0;
    s.failed_cells += failed_cells;
    s.oom_cells += oom_cells;
    s.timeout_cells += timeout_cells;
    s.transient_cells += transient_cells;
    s.transient_retries += transient_retries;

    // merge_into runs exactly once per plan entry, in plan order, so it
    // doubles as the registry sink. A run that dies on an exception merges
    // nothing — same as CollectStats.
    CollectMetrics& m = collect_metrics();
    if (attempted && !dropped_prefilter) m.cells_measured.add(kCellsPerMatrix);
    if (oom_cells > 0) m.cells_failed_oom.add(oom_cells);
    if (timeout_cells > 0) m.cells_failed_timeout.add(timeout_cells);
    if (transient_cells > 0) m.cells_failed_transient.add(transient_cells);
    if (transient_retries > 0) m.retries.add(transient_retries);
    if (dropped_prefilter) m.matrices_dropped_prefilter.inc();
    if (dropped_all_failed) m.matrices_dropped_all_failed.inc();
    if (attempted && !dropped_prefilter && !dropped_all_failed)
      m.matrices_kept.inc();
  }
};

void count_failed_cell(MeasurementStatus status, EntryStats& stats) {
  ++stats.failed_cells;
  switch (status) {
    case MeasurementStatus::kOom: ++stats.oom_cells; break;
    case MeasurementStatus::kTimeout: ++stats.timeout_cells; break;
    case MeasurementStatus::kTransient: ++stats.transient_cells; break;
    case MeasurementStatus::kOk: break;
  }
}

/// §IV-C as a wholesale filter, kept for the fault-free configuration
/// (the ELL image is by far the largest; 12 bytes per padded slot).
/// With faults enabled, infeasible formats fail per-cell instead.
bool prefilter_drops(const RowSummary& summary, const CollectOptions& options) {
  if (options.faults.enabled || options.format_memory_limit <= 0) return false;
  const double ell_bytes = static_cast<double>(summary.rows) *
                           static_cast<double>(summary.row_max) * 12.0;
  return ell_bytes > static_cast<double>(options.format_memory_limit);
}

std::vector<MeasurementOracle> make_oracle_set(const CollectOptions& options) {
  const auto archs = paper_testbeds();
  SPMVML_ENSURE(archs.size() == kNumArchs, "expected two testbeds");
  MeasurementConfig measurement = options.measurement;
  measurement.faults = options.faults;
  std::vector<MeasurementOracle> oracles;
  for (const auto& arch : archs)
    for (int p = 0; p < kNumPrecisions; ++p)
      oracles.emplace_back(arch, static_cast<Precision>(p), measurement,
                           options.cost);
  return oracles;
}

/// Try to restore a checkpoint matching this plan. Returns the number of
/// plan entries already processed (0 = start from scratch).
std::size_t try_resume(const CorpusPlan& plan, const CollectOptions& options,
                       LabeledCorpus& corpus) {
  if (options.checkpoint_path.empty() ||
      !std::filesystem::exists(options.checkpoint_path))
    return 0;
  try {
    std::size_t cached_plan = 0, cached_done = 0;
    std::uint64_t cached_hash = 0;
    LabeledCorpus cached = load_corpus_csv(options.checkpoint_path,
                                           &cached_plan, &cached_hash,
                                           &cached_done);
    if (cached_plan == plan.size() && cached_hash == plan_fingerprint(plan) &&
        cached_done <= plan.size() && cached.size() <= cached_done) {
      corpus.records = std::move(cached.records);
      corpus.stats.resumed_records = corpus.records.size();
      collect_metrics().resumed_records.add(corpus.records.size());
      obs::log_info("collect.resume")
          .kv("checkpoint", options.checkpoint_path)
          .kv("records", corpus.records.size())
          .kv("done", cached_done);
      return cached_done;
    }
  } catch (const Error&) {
    // Corrupt or stale checkpoint: re-collect from scratch.
  }
  return 0;
}

/// Fill the spec-derived part of a record (everything except timings).
/// Returns false when the §IV-C prefilter drops the matrix.
bool prepare_record(const GenSpec& spec, int bucket,
                    const CollectOptions& options, MatrixRecord& rec,
                    RowSummary& summary, EntryStats& stats) {
  const Csr<double> matrix = generate(spec);
  summary = summarize(matrix);
  stats.attempted = true;
  if (prefilter_drops(summary, options)) {
    stats.dropped_prefilter = true;
    return false;
  }
  rec.seed = spec.seed;
  rec.bucket = bucket;
  rec.family = static_cast<int>(spec.family);
  rec.rows = static_cast<double>(matrix.rows());
  rec.cols = static_cast<double>(matrix.cols());
  rec.nnz = static_cast<double>(matrix.nnz());
  rec.features = extract_features(matrix);
  return true;
}

// ---------------------------------------------------------------------------
// Collection.
//
// Each plan entry is one pool task: generate → summarize →
// extract_features → measure every cell, re-rolling transient failures in
// place. Finished entries land in a plan-indexed slot array, so the
// assembled corpus is bitwise identical for every thread count.
// Checkpoints cover the longest fully-complete prefix in plan order.

struct EntrySlot {
  MatrixRecord rec;
  bool kept = false;
  EntryStats stats;
};

struct CollectContext {
  const CorpusPlan& plan;
  const CollectOptions& options;
  // One oracle per (arch, precision), shared by every worker:
  // MeasurementOracle::measure is const and stateless.
  const std::vector<MeasurementOracle> oracles;
  std::uint64_t fingerprint = 0;
  std::size_t start = 0;
  const std::vector<MatrixRecord>* resumed_records = nullptr;

  std::mutex mu;
  std::vector<EntrySlot> slots;
  std::vector<char> entry_done;
  std::size_t prefix = 0;           // first plan index not yet complete
  std::size_t last_checkpoint = 0;  // prefix at the last checkpoint write
  std::size_t completed = 0;        // finished entries (progress reporting)
  std::exception_ptr error;
  bool cancelled = false;

  CollectContext(const CorpusPlan& p, const CollectOptions& o)
      : plan(p), options(o), oracles(make_oracle_set(o)) {}
};

/// Snapshot the longest complete prefix into a checkpoint file. Caller
/// holds ctx.mu.
void write_prefix_checkpoint(CollectContext& ctx, std::size_t done) {
  LabeledCorpus snapshot;
  snapshot.records.reserve(ctx.resumed_records->size() + done - ctx.start);
  snapshot.records = *ctx.resumed_records;
  for (std::size_t i = ctx.start; i < done; ++i)
    if (ctx.slots[i].kept) snapshot.records.push_back(ctx.slots[i].rec);
  save_corpus_csv(ctx.options.checkpoint_path, snapshot, ctx.plan.size(),
                  ctx.fingerprint, done);
  collect_metrics().checkpoints.inc();
  obs::trace_instant("collect.checkpoint");
  obs::log_debug("collect.checkpoint")
      .kv("done", done)
      .kv("records", snapshot.records.size());
}

void finish_entry(CollectContext& ctx, std::size_t index, EntrySlot slot) {
  std::lock_guard<std::mutex> lock(ctx.mu);
  ctx.slots[index] = std::move(slot);
  ctx.entry_done[index] = 1;
  ++ctx.completed;

  while (ctx.prefix < ctx.plan.size() && ctx.entry_done[ctx.prefix])
    ++ctx.prefix;
  if (ctx.cancelled) return;  // draining after a failure: stay quiet
  const CollectOptions& opt = ctx.options;
  try {
    if (!opt.checkpoint_path.empty() && opt.checkpoint_every > 0 &&
        ctx.prefix < ctx.plan.size() && ctx.prefix > ctx.last_checkpoint &&
        (ctx.prefix - ctx.start) / opt.checkpoint_every >
            (ctx.last_checkpoint - ctx.start) / opt.checkpoint_every) {
      ctx.last_checkpoint = ctx.prefix;
      write_prefix_checkpoint(ctx, ctx.prefix);
    }
    // Serialized under the lock, so `done` is monotonic.
    if (opt.progress) opt.progress(ctx.start + ctx.completed, ctx.plan.size());
  } catch (...) {
    ctx.cancelled = true;  // before the lock drops: no later progress call
    throw;
  }
}

void run_entry(CollectContext& ctx, std::size_t index) {
  try {
    {
      // After a failure, entries that have not started drain as no-ops;
      // running ones finish, so the longest-prefix checkpoint is maximal.
      std::lock_guard<std::mutex> lock(ctx.mu);
      if (ctx.cancelled) return;
    }
    obs::TraceSpan mspan("collect.matrix");
    mspan.arg("index", static_cast<std::uint64_t>(index))
        .arg("seed", ctx.plan.specs[index].seed);
    EntrySlot slot;
    RowSummary summary;
    if (prepare_record(ctx.plan.specs[index], ctx.plan.bucket_of[index],
                       ctx.options, slot.rec, summary, slot.stats)) {
      std::size_t valid_cells = 0;
      for (std::size_t machine = 0; machine < ctx.oracles.size(); ++machine) {
        for (int f = 0; f < kNumFormats; ++f) {
          obs::TraceSpan cspan("collect.cell");
          cspan.arg("format", f);
          Measurement cell;
          int attempt = 0;
          for (;; ++attempt) {
            cell = ctx.oracles[machine].measure(
                summary, static_cast<Format>(f), slot.rec.seed, attempt);
            if (!is_retryable(cell.status) ||
                attempt >= ctx.options.max_retries)
              break;
            ++slot.stats.transient_retries;
          }
          cspan.arg("attempts", attempt + 1)
              .arg("ok", static_cast<int>(cell.ok()));
          slot.rec.seconds[machine / kNumPrecisions][machine % kNumPrecisions]
                          [static_cast<std::size_t>(f)] = cell.seconds;
          if (cell.ok())
            ++valid_cells;
          else
            count_failed_cell(cell.status, slot.stats);
        }
      }
      // A matrix is only dropped wholesale when *every* cell failed —
      // there is nothing to learn from it.
      slot.kept = valid_cells > 0;
      slot.stats.dropped_all_failed = !slot.kept;
    }
    finish_entry(ctx, index, std::move(slot));
  } catch (...) {
    std::lock_guard<std::mutex> lock(ctx.mu);
    if (!ctx.error) ctx.error = std::current_exception();
    ctx.cancelled = true;
  }
}

LabeledCorpus run_collection(const CorpusPlan& plan,
                             const CollectOptions& options, int threads) {
  LabeledCorpus corpus;
  corpus.records.reserve(plan.size());

  CollectContext ctx(plan, options);
  ctx.fingerprint = plan_fingerprint(plan);
  ctx.start = try_resume(plan, options, corpus);
  ctx.resumed_records = &corpus.records;
  ctx.slots.resize(plan.size());
  ctx.entry_done.assign(plan.size(), 0);
  // Entries restored from the checkpoint count as complete.
  for (std::size_t i = 0; i < ctx.start; ++i) ctx.entry_done[i] = 1;
  ctx.prefix = ctx.start;
  ctx.last_checkpoint = ctx.start;

  {
    ThreadPool pool(threads);
    for (std::size_t m = ctx.start; m < plan.size(); ++m)
      pool.submit([&ctx, m] { run_entry(ctx, m); });
    pool.wait_idle();
  }
  if (ctx.error) {
    // A "killed" run still leaves the longest fully-complete prefix on
    // disk, so the next invocation resumes instead of starting over.
    // In-flight entries kept finishing after the failure (only queued work
    // is drained), so ctx.prefix reflects everything completed.
    if (!options.checkpoint_path.empty() && ctx.prefix > ctx.start)
      write_prefix_checkpoint(ctx, ctx.prefix);
    std::rethrow_exception(ctx.error);
  }

  // Deterministic assembly: records and stats merge in plan order, never
  // in completion order.
  CollectStats& stats = corpus.stats;
  for (std::size_t i = ctx.start; i < plan.size(); ++i) {
    const EntrySlot& slot = ctx.slots[i];
    slot.stats.merge_into(stats);
    if (slot.kept) corpus.records.push_back(slot.rec);
  }
  stats.kept = corpus.records.size();
  if (!options.checkpoint_path.empty())
    save_corpus_csv(options.checkpoint_path, corpus, plan.size(),
                    ctx.fingerprint, plan.size());
  return corpus;
}

}  // namespace

LabeledCorpus collect_corpus(const CorpusPlan& plan,
                             const CollectOptions& options) {
  const int threads = options.threads > 0 ? options.threads : thread_count();
  obs::TraceSpan span("collect.corpus");
  span.arg("matrices", static_cast<std::uint64_t>(plan.size()))
      .arg("threads", threads);
  obs::log_info("collect.start")
      .kv("matrices", plan.size())
      .kv("threads", threads)
      .kv("faults", options.faults.enabled);
  WallTimer timer;
  LabeledCorpus corpus = run_collection(plan, options, threads);
  obs::log_info("collect.done")
      .kv("wall_s", timer.seconds())
      .kv("kept", corpus.stats.kept)
      .kv("failed_cells", corpus.stats.failed_cells)
      .kv("retries", corpus.stats.transient_retries)
      .kv("resumed", corpus.stats.resumed_records);
  return corpus;
}

void save_corpus_csv(const std::string& path, const LabeledCorpus& corpus,
                     std::size_t plan_size, std::uint64_t plan_hash,
                     std::size_t done) {
  // Write to a temp file and rename so a kill mid-write never leaves a
  // truncated checkpoint behind (rename within a directory is atomic).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo,
                      "cannot open " + tmp + " for writing");
    out << "# spmvml oracle v" << kOracleVersion << " plan " << plan_size
        << " hash " << plan_hash << " done " << done << '\n';
    out << "seed,bucket,family,rows,cols,nnz";
    for (int f = 0; f < kNumFeatures; ++f) out << ',' << feature_name(f);
    for (int a = 0; a < kNumArchs; ++a)
      for (int p = 0; p < kNumPrecisions; ++p)
        for (int f = 0; f < kNumFormats; ++f)
          out << ",t_a" << a << "p" << p << "f" << f;
    out << '\n';
    out.precision(17);
    for (const auto& r : corpus.records) {
      out << r.seed << ',' << r.bucket << ',' << r.family << ',' << r.rows
          << ',' << r.cols << ',' << r.nnz;
      for (int f = 0; f < kNumFeatures; ++f) out << ',' << r.features[f];
      for (int a = 0; a < kNumArchs; ++a)
        for (int p = 0; p < kNumPrecisions; ++p)
          for (int f = 0; f < kNumFormats; ++f) {
            const double t = r.seconds[static_cast<std::size_t>(a)]
                                      [static_cast<std::size_t>(p)]
                                      [static_cast<std::size_t>(f)];
            // Failed cells round-trip as the literal "nan".
            if (std::isfinite(t))
              out << ',' << t;
            else
              out << ",nan";
          }
      out << '\n';
    }
    SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo,
                      "write failed for " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

void save_corpus_csv(const std::string& path, const LabeledCorpus& corpus,
                     std::size_t plan_size) {
  save_corpus_csv(path, corpus, plan_size, 0, plan_size);
}

namespace {

/// Zero-allocation cursor over one CSV line: std::from_chars directly on
/// the raw character range. Checkpoints re-read the whole cache on every
/// resume, so row parsing is a measurable startup cost; from_chars is
/// several times faster than istringstream + std::stod and still
/// round-trips precision-17 doubles, "nan" cells and integer seeds
/// exactly.
class CsvCursor {
 public:
  explicit CsvCursor(const std::string& line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  double next_double() { return next<double>(); }
  std::uint64_t next_u64() { return next<std::uint64_t>(); }

 private:
  template <typename T>
  T next() {
    if (!first_) {
      SPMVML_ENSURE_CAT(p_ < end_ && *p_ == ',', ErrorCategory::kParse,
                        "truncated CSV row");
      ++p_;
    }
    first_ = false;
    T value{};
    const auto [ptr, ec] = std::from_chars(p_, end_, value);
    SPMVML_ENSURE_CAT(ec == std::errc{}, ErrorCategory::kParse,
                      "bad CSV cell");
    p_ = ptr;
    return value;
  }

  const char* p_;
  const char* end_;
  bool first_ = true;
};

}  // namespace

LabeledCorpus load_corpus_csv(const std::string& path,
                              std::size_t* cached_plan_size,
                              std::uint64_t* cached_plan_hash,
                              std::size_t* cached_done) {
  std::ifstream in(path);
  SPMVML_ENSURE_CAT(in.good(), ErrorCategory::kIo, "cannot open " + path);
  std::string line;
  SPMVML_ENSURE_CAT(static_cast<bool>(std::getline(in, line)),
                    ErrorCategory::kParse, "empty CSV");
  const std::string prefix =
      "# spmvml oracle v" + std::to_string(kOracleVersion) + " plan ";
  SPMVML_ENSURE_CAT(line.rfind(prefix, 0) == 0, ErrorCategory::kParse,
                    "corpus cache written by a different oracle version — "
                    "delete " + path);
  {
    const char* p = line.data() + prefix.size();
    const char* end = line.data() + line.size();
    std::size_t plan_size = 0, done = 0;
    std::uint64_t hash = 0;
    auto field = [&](const char* keyword, auto& value) -> bool {
      if (keyword != nullptr) {
        while (p < end && *p == ' ') ++p;
        const std::size_t klen = std::strlen(keyword);
        if (end - p < static_cast<std::ptrdiff_t>(klen) ||
            std::string_view(p, klen) != keyword)
          return false;
        p += klen;
        while (p < end && *p == ' ') ++p;
      }
      const auto [ptr, ec] = std::from_chars(p, end, value);
      p = ptr;
      return ec == std::errc{};
    };
    SPMVML_ENSURE_CAT(field(nullptr, plan_size) && field("hash", hash) &&
                          field("done", done),
                      ErrorCategory::kParse,
                      "corpus cache header malformed — delete " + path);
    if (cached_plan_size != nullptr) *cached_plan_size = plan_size;
    if (cached_plan_hash != nullptr) *cached_plan_hash = hash;
    if (cached_done != nullptr) *cached_done = done;
  }
  SPMVML_ENSURE_CAT(static_cast<bool>(std::getline(in, line)),
                    ErrorCategory::kParse, "missing CSV header");

  LabeledCorpus corpus;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    CsvCursor row(line);
    MatrixRecord r;
    // Seed must round-trip exactly — parse as integer, not double.
    r.seed = row.next_u64();
    r.bucket = static_cast<int>(row.next_double());
    r.family = static_cast<int>(row.next_double());
    r.rows = row.next_double();
    r.cols = row.next_double();
    r.nnz = row.next_double();
    for (int f = 0; f < kNumFeatures; ++f)
      r.features.values[static_cast<std::size_t>(f)] = row.next_double();
    for (int a = 0; a < kNumArchs; ++a)
      for (int p = 0; p < kNumPrecisions; ++p)
        for (int f = 0; f < kNumFormats; ++f)
          r.seconds[static_cast<std::size_t>(a)][static_cast<std::size_t>(p)]
                   [static_cast<std::size_t>(f)] = row.next_double();
    corpus.records.push_back(r);
  }
  return corpus;
}

LabeledCorpus load_or_collect(const std::string& cache_path,
                              const CorpusPlan& plan,
                              const CollectOptions& options) {
  if (std::filesystem::exists(cache_path)) {
    try {
      std::size_t cached_plan = 0, cached_done = 0;
      std::uint64_t cached_hash = 0;
      LabeledCorpus cached = load_corpus_csv(cache_path, &cached_plan,
                                             &cached_hash, &cached_done);
      if (cached_plan == plan.size() &&
          cached_hash == plan_fingerprint(plan) &&
          cached_done == plan.size()) {
        collect_metrics().cache_hits.inc();
        obs::log_info("collect.cache_hit")
            .kv("path", cache_path)
            .kv("records", cached.size());
        return cached;
      }
      // Plan changed (different SPMVML_CORPUS_SCALE / seed / contents) or
      // the cache is a partial checkpoint: fall through to collection,
      // which resumes matching checkpoints by itself.
    } catch (const Error&) {
      // Stale or corrupt cache (e.g. oracle version bump): re-collect.
    }
  }
  CollectOptions opts = options;
  if (opts.checkpoint_path.empty()) opts.checkpoint_path = cache_path;
  return collect_corpus(plan, opts);
}

}  // namespace spmvml
