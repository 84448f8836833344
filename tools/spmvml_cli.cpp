// spmvml — command-line front end for the library's train/select/predict
// workflow.
//
//   spmvml train   --out sel.model [--arch P100] [--precision double]
//                  [--model xgboost|svm|mlp|tree] [--features set1|set12|
//                  set123|imp] [--scale 0.25] [--threads N]
//   spmvml train-perf --out perf.model [--arch P100] [--scale 0.25]
//                  [--threads N]
//   spmvml select  --model sel.model [--mem-budget GB] <matrix.mtx>
//   spmvml predict --model perf.model <matrix.mtx>
//   spmvml inspect <matrix.mtx>
//   spmvml stats-export <report.json>   # metrics snapshot -> Prometheus text
//
// Global flags (any command): --verbose | --quiet adjust the log level
// (default info; the SPMVML_LOG env var overrides the default),
// --trace <file> records a Chrome trace-event JSON of the run, and
// --report <file> dumps the merged metrics registry plus run metadata.
//
// Matrix arguments are Matrix Market files; synthetic matrices can be
// produced with the format_explorer example instead.
//
// Exit codes: 0 success, 1 generic error, 2 usage, then one per
// ErrorCategory — 3 parse, 4 io, 5 model-format, 6 infeasible-format,
// 7 measurement (see common/error.hpp).
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "common/chaos/chaos.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/prom.hpp"
#include "common/obs/report.hpp"
#include "common/obs/trace.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/format_selector.hpp"
#include "core/perf_model.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/row_summary.hpp"
#include "serve/drain.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "sparse/csr_binary.hpp"
#include "sparse/mmio.hpp"
#include "sparse/reorder.hpp"
#include "synth/generators.hpp"

using namespace spmvml;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  spmvml train      --out <file> [--arch K80c|P100] "
               "[--precision single|double]\n"
               "                    [--model xgboost|svm|mlp|tree] "
               "[--features set1|set12|set123|imp] [--scale S] "
               "[--threads N]\n"
               "  spmvml train-perf --out <file> [--arch ...] "
               "[--precision ...] [--scale S] [--threads N]\n"
               "  spmvml select     --model <file> [--mem-budget GB] "
               "[--precision single|double] <matrix.mtx>\n"
               "  spmvml predict    --model <file> <matrix.mtx>\n"
               "  spmvml inspect    <matrix.mtx>\n"
               "  spmvml sidecar    <matrix.mtx> [--out <file>] | "
               "--self-test\n"
               "                    convert to the binary CSR sidecar "
               "(<matrix.mtx>.spmvml-csr)\n"
               "                    that serving bulk-loads instead of "
               "re-parsing the text;\n"
               "                    --self-test round-trips a synthetic "
               "matrix and verifies\n"
               "                    bitwise identity with the text parse\n"
               "  spmvml serve      --model <file> [--perf-model <file>] "
               "[--threads N]\n"
               "                    [--max-batch N] [--max-delay-ms F] "
               "[--queue-cap N]\n"
               "                    [--cache-cap N] [--mem-budget GB] "
               "[--precision ...]\n"
               "                    [--ingest-cache-mb N] [--shards N]\n"
               "                    [--admission-target-ms F] "
               "[--watchdog-ms F]\n"
               "                    [--trace-sample N] [--stats-every-s F] "
               "[--stats-file <file>]\n"
               "                    [--learn] [--replay-cap N] "
               "[--drift-rme F] [--retrain-every-s F]\n"
               "                    JSONL requests on stdin, responses on "
               "stdout; a\n"
               "                    {\"cmd\":\"swap\",\"model\":...} line "
               "hot-swaps models, a\n"
               "                    {\"cmd\":\"stats\"} line returns a live "
               "metrics snapshot, a\n"
               "                    {\"cmd\":\"learn\"} line the learning-"
               "loop state;\n"
               "                    --learn (SPMVML_LEARN=1) retrains "
               "models in the background\n"
               "                    from measured traffic and hot-swaps "
               "improvements in\n"
               "                    (replay cap SPMVML_LEARN_REPLAY_CAP, "
               "drift threshold\n"
               "                    SPMVML_LEARN_DRIFT_RME, periodic "
               "retrain SPMVML_LEARN_RETRAIN_EVERY_S);\n"
               "                    --trace-sample N tags every Nth request "
               "with id'd trace\n"
               "                    spans (SPMVML_TRACE_SAMPLE), "
               "--stats-every-s rewrites the\n"
               "                    --stats-file snapshot periodically "
               "(SPMVML_STATS_EVERY_S);\n"
               "                    SIGTERM drains (finish in-flight, then "
               "exit 0);\n"
               "                    SPMVML_CHAOS=<scenario> injects faults\n"
               "  spmvml stats-export <report.json>\n"
               "                    translate a --report / --stats-file "
               "snapshot to the\n"
               "                    Prometheus text format on stdout\n"
               "global flags:\n"
               "  --verbose | --quiet     debug / error-only logging "
               "(default info; SPMVML_LOG overrides)\n"
               "  --trace <file>          write a Chrome trace-event JSON "
               "of the run\n"
               "  --report <file>         write an end-of-run metrics "
               "summary JSON\n"
               "  --threads N             worker threads (collection and "
               "serving). Precedence:\n"
               "                          --threads > SPMVML_THREADS > "
               "default 1; --threads 0\n"
               "                          (or omitting it) defers to "
               "SPMVML_THREADS\n");
  std::exit(2);
}

/// Flags that take no value; everything else consumes the next token.
bool is_flag_option(const std::string& name) {
  return name == "verbose" || name == "quiet" || name == "self-test" ||
         name == "learn";
}

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
};

Args parse(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string name = a.substr(2);
      if (is_flag_option(name)) {
        args.options[name] = "1";
        continue;
      }
      if (i + 1 >= argc) usage();
      args.options[name] = argv[++i];
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

std::string opt(const Args& a, const char* name, const char* fallback) {
  const auto it = a.options.find(name);
  return it == a.options.end() ? fallback : it->second;
}

/// Validated numeric option: the whole token must parse as a finite
/// double in [lo, hi]. Bad values are usage errors, not uncaught
/// std::invalid_argument crashes.
double numeric_opt(const Args& a, const char* name, double fallback,
                   double lo, double hi) {
  const auto it = a.options.find(name);
  if (it == a.options.end()) return fallback;
  const std::string& text = it->second;
  double value = 0.0;
  std::size_t consumed = 0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (text.empty() || consumed != text.size() || !std::isfinite(value) ||
      value < lo || value > hi) {
    std::fprintf(stderr, "spmvml: bad value for --%s: '%s'\n", name,
                 text.c_str());
    usage();
  }
  return value;
}

int arch_of(const Args& a) {
  const auto name = opt(a, "arch", "P100");
  if (name == "K80c" || name == "K40c") return 0;
  if (name == "P100") return 1;
  usage();
}

Precision precision_of(const Args& a) {
  const auto name = opt(a, "precision", "double");
  if (name == "single") return Precision::kSingle;
  if (name == "double") return Precision::kDouble;
  usage();
}

FeatureSet features_of(const Args& a) {
  const auto name = opt(a, "features", "set12");
  if (name == "set1") return FeatureSet::kSet1;
  if (name == "set12") return FeatureSet::kSet12;
  if (name == "set123") return FeatureSet::kSet123;
  if (name == "imp") return FeatureSet::kImportant;
  usage();
}

ModelKind model_of(const Args& a) {
  const auto name = opt(a, "model", "xgboost");
  if (name == "xgboost") return ModelKind::kXgboost;
  if (name == "svm") return ModelKind::kSvm;
  if (name == "mlp") return ModelKind::kMlp;
  if (name == "tree") return ModelKind::kDecisionTree;
  usage();
}

LabeledCorpus corpus_of(const Args& a) {
  const double scale = numeric_opt(a, "scale", 0.25, 1e-4, 100.0);
  // 0 defers to SPMVML_THREADS (default 1). Collection produces
  // byte-identical corpora at every thread count, so this is purely a
  // speed knob.
  const int threads =
      static_cast<int>(numeric_opt(a, "threads", 0.0, 0.0, 256.0));
  obs::log_info("cli.collect").kv("scale", scale).kv("threads", threads);
  CollectOptions options;
  options.threads = threads;
  // Progress lines go through the logger (info level), so --quiet
  // silences them and concurrent workers never interleave output.
  // `done` counts finished plan cells; rate and ETA come from the wall
  // clock since collection started.
  options.progress = [timer = WallTimer()](std::size_t done,
                                           std::size_t total) {
    if (done % 500 != 0 && done != total) return;
    const double elapsed = timer.seconds();
    const double rate =
        elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
    const double eta_s =
        rate > 0.0 ? static_cast<double>(total - done) / rate : 0.0;
    obs::log_info("collect.progress")
        .kv("done", static_cast<std::uint64_t>(done))
        .kv("total", static_cast<std::uint64_t>(total))
        .kv("cells_per_s", rate)
        .kv("eta_s", eta_s);
  };
  return collect_corpus(make_corpus_plan(scale, 2018), options);
}

int cmd_train(const Args& a) {
  const auto out_path = opt(a, "out", "");
  if (out_path.empty()) usage();
  const auto corpus = corpus_of(a);
  FormatSelector selector(model_of(a), features_of(a), kAllFormats);
  selector.fit(corpus, arch_of(a), precision_of(a));
  std::ofstream out(out_path);
  SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo,
                    "cannot open " + out_path + " for writing");
  selector.save(out);
  obs::log_info("cli.model_written").kv("path", out_path);
  return 0;
}

int cmd_train_perf(const Args& a) {
  const auto out_path = opt(a, "out", "");
  if (out_path.empty()) usage();
  const auto corpus = corpus_of(a);
  PerfModel model(RegressorKind::kXgboost, features_of(a), kAllFormats);
  model.fit(corpus, arch_of(a), precision_of(a));
  std::ofstream out(out_path);
  SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo,
                    "cannot open " + out_path + " for writing");
  model.save(out);
  obs::log_info("cli.model_written").kv("path", out_path);
  return 0;
}

int cmd_select(const Args& a) {
  if (a.positional.empty()) usage();
  const auto model_path = opt(a, "model", "spmvml_selector.model");
  std::ifstream in(model_path);
  SPMVML_ENSURE_CAT(in.good(), ErrorCategory::kIo,
                    "cannot open model file " + model_path);
  const auto selector = FormatSelector::load_selector(in);
  const auto matrix = read_matrix_market(a.positional.front());

  // --mem-budget <GB>: constrain the selection to formats whose simulated
  // device image fits the budget; report when a fallback happened.
  const double budget_gb = numeric_opt(a, "mem-budget", 0.0, 0.0, 1e6);
  if (budget_gb > 0.0) {
    const auto summary = summarize(matrix);
    const auto budget_bytes = static_cast<std::int64_t>(budget_gb * 1e9);
    const auto feasible =
        make_memory_feasibility(summary, precision_of(a), budget_bytes);
    const Selection sel = selector.select_feasible(matrix, feasible);
    if (sel.fallback)
      std::fprintf(stderr,
                   "note: predicted format %s exceeds --mem-budget %.3g GB "
                   "(needs %.3g GB); fell back to %s\n",
                   format_name(sel.predicted), budget_gb,
                   format_device_bytes(summary, sel.predicted,
                                       precision_of(a)) / 1e9,
                   format_name(sel.format));
    std::printf("%s\n", format_name(sel.format));
    return 0;
  }
  std::printf("%s\n", format_name(selector.select(matrix)));
  return 0;
}

int cmd_predict(const Args& a) {
  if (a.positional.empty()) usage();
  const auto model_path = opt(a, "model", "spmvml_perf.model");
  std::ifstream in(model_path);
  SPMVML_ENSURE_CAT(in.good(), ErrorCategory::kIo,
                    "cannot open model file " + model_path);
  const auto model = PerfModel::load_model(in);
  const auto matrix = read_matrix_market(a.positional.front());
  const auto features = extract_features(matrix);
  TablePrinter table({"format", "predicted time (us)", "predicted GFLOPS"});
  for (Format f : model.formats()) {
    const double t = model.predict_seconds(features, f);
    table.add_row({format_name(f), TablePrinter::fmt(t * 1e6, 1),
                   TablePrinter::fmt(2.0 * static_cast<double>(matrix.nnz()) /
                                         t / 1e9,
                                     1)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

/// Effective worker-thread count with the documented precedence:
/// --threads > SPMVML_THREADS > 1 (a flag value of 0 defers to the env).
int threads_of(const Args& a) {
  const int flag = static_cast<int>(numeric_opt(a, "threads", 0.0, 0.0, 256.0));
  return flag > 0 ? flag : thread_count();
}

/// Drain-aware line reader over stdin: poll(2) with a 100ms tick so a
/// SIGTERM between lines is noticed promptly, manual buffering so bytes
/// read before the signal are not lost, EINTR-aware because the drain
/// handler is installed without SA_RESTART. Returns false at EOF or
/// once a drain has been requested (a partial unterminated line during
/// drain is dropped — it is not a complete request).
bool next_stdin_line(std::string& pending, bool& eof, std::string& out) {
  for (;;) {
    const auto nl = pending.find('\n');
    if (nl != std::string::npos) {
      out = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      return true;
    }
    if (serve::drain_requested()) return false;
    if (eof) {
      if (pending.empty()) return false;
      out = std::move(pending);  // final unterminated line
      pending.clear();
      return true;
    }
    struct pollfd pfd;
    pfd.fd = STDIN_FILENO;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;  // signal: the loop re-checks drain
      eof = true;
      continue;
    }
    if (pr == 0) continue;  // tick: re-check drain
    char buf[4096];
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      eof = true;
      continue;
    }
    if (n == 0) {
      eof = true;
      continue;
    }
    pending.append(buf, static_cast<std::size_t>(n));
  }
}

int cmd_serve(const Args& a) {
  const auto model_path = opt(a, "model", "spmvml_selector.model");
  const auto perf_path = opt(a, "perf-model", "");

  // SPMVML_CHAOS names a chaos scenario file; without it every site is
  // a no-op (one relaxed atomic load per decision).
  chaos::install_from_env();
  serve::install_drain_handler();

  serve::ModelRegistry registry;
  registry.install_files(model_path, perf_path);

  serve::ServiceConfig cfg;
  cfg.threads = threads_of(a);
  cfg.max_batch =
      static_cast<std::size_t>(numeric_opt(a, "max-batch", 16.0, 1.0, 4096.0));
  cfg.max_delay_ms = numeric_opt(a, "max-delay-ms", 1.0, 0.0, 10000.0);
  cfg.queue_capacity =
      static_cast<std::size_t>(numeric_opt(a, "queue-cap", 256.0, 1.0, 1e6));
  cfg.cache_capacity =
      static_cast<std::size_t>(numeric_opt(a, "cache-cap", 512.0, 0.0, 1e7));
  // Ingest cache and dispatch shards: flag > env > default. The env
  // knobs let deployment scripts tune serving without touching the
  // command line (SPMVML_INGEST_CACHE_MB, SPMVML_SHARDS).
  cfg.ingest_cache_bytes =
      static_cast<std::size_t>(numeric_opt(
          a, "ingest-cache-mb",
          static_cast<double>(env_int("SPMVML_INGEST_CACHE_MB", 256)), 0.0,
          1e6))
      << 20;
  cfg.dispatch_shards = static_cast<int>(numeric_opt(
      a, "shards", static_cast<double>(env_int("SPMVML_SHARDS", 1)), 1.0,
      64.0));
  cfg.precision = precision_of(a);
  cfg.mem_budget_gb = numeric_opt(a, "mem-budget", 0.0, 0.0, 1e6);
  cfg.admission_target_ms =
      numeric_opt(a, "admission-target-ms", 0.0, 0.0, 1e6);
  cfg.watchdog_ms = numeric_opt(a, "watchdog-ms", 0.0, 0.0, 1e6);

  // Online learning loop (DESIGN.md §5k): flag > env > default, like
  // every other serving knob. --learn (SPMVML_LEARN=1) turns on shadow
  // probes + replay + drift-triggered background retraining; the other
  // knobs tune it. Off by default: serving is then byte-identical to a
  // build without the subsystem.
  cfg.learn.enabled =
      a.options.count("learn") != 0 || env_int("SPMVML_LEARN", 0) != 0;
  cfg.learn.replay_capacity = static_cast<std::size_t>(numeric_opt(
      a, "replay-cap",
      static_cast<double>(env_int("SPMVML_LEARN_REPLAY_CAP", 4096)), 1.0,
      1e7));
  cfg.learn.drift.rme_threshold = numeric_opt(
      a, "drift-rme", env_double("SPMVML_LEARN_DRIFT_RME", 0.5), 0.0, 1e6);
  cfg.learn.retrain_every_s = numeric_opt(
      a, "retrain-every-s", env_double("SPMVML_LEARN_RETRAIN_EVERY_S", 0.0),
      0.0, 1e9);
  cfg.learn.seed = root_seed();

  // Per-request trace sampling: flag > SPMVML_TRACE_SAMPLE > off. The
  // sentinel -1 means "flag absent", so an explicit --trace-sample 0
  // still turns env-configured sampling off.
  const int trace_sample =
      static_cast<int>(numeric_opt(a, "trace-sample", -1.0, -1.0, 1e9));
  if (trace_sample >= 0) serve::set_trace_sample(trace_sample);

  // Live stats plane: --stats-every-s (or SPMVML_STATS_EVERY_S) starts a
  // background writer that atomically rewrites --stats-file with a fresh
  // metrics snapshot, so a scraper can follow a long-lived server
  // without restarts or admin lines.
  const double stats_every_s = numeric_opt(
      a, "stats-every-s", env_double("SPMVML_STATS_EVERY_S", 0.0), 0.0, 1e6);
  std::unique_ptr<obs::PeriodicReporter> stats_writer;
  if (stats_every_s > 0.0) {
    obs::ReportMeta stats_meta;
    stats_meta.tool = "spmvml serve";
    stats_meta.threads = cfg.threads;
    stats_writer = std::make_unique<obs::PeriodicReporter>(
        opt(a, "stats-file", "spmvml_stats.json"), stats_every_s, stats_meta);
  }

  serve::Service service(cfg, registry);

  // Responses complete on worker threads; one mutex keeps stdout lines
  // whole. Admin (swap) lines are handled inline so a swap is visible to
  // every request submitted after its response line.
  std::mutex out_mu;
  const auto emit = [&out_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(out_mu);
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };

  std::string pending_in, line;
  bool eof = false;
  while (next_stdin_line(pending_in, eof, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // server_ms = parse -> response emitted, stamped at this transport
    // boundary so it includes everything the server did for the line.
    WallTimer line_timer;
    serve::ParsedLine parsed;
    try {
      parsed = serve::parse_request_line(line);
    } catch (const Error& e) {
      serve::Response bad;
      bad.error = std::string(error_category_name(e.category())) + ": " +
                  e.what();
      bad.server_ms = line_timer.millis();
      emit(serve::to_json(bad));
      continue;
    }
    if (parsed.is_admin) {
      if (parsed.admin.cmd == "learn") {
        // Learning-loop stats plane: replay buffer, drift detector and
        // trainer outcomes as one JSON line (DESIGN.md §5k).
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.begin_object();
        if (!parsed.admin.id.empty())
          w.kv("id", std::string_view(parsed.admin.id));
        w.kv("ok", true);
        w.kv("server_ms", line_timer.millis());
        w.key("learn");
        w.begin_object();
        const auto* learner = service.learner();
        w.kv("enabled", learner != nullptr);
        if (learner != nullptr) {
          const auto ls = learner->stats();
          w.kv("polls", ls.polls);
          w.kv("drained", ls.drained);
          w.kv("dropped", ls.dropped);
          w.kv("retrains", ls.retrains);
          w.kv("swaps", ls.swaps);
          w.kv("discards", ls.discards);
          w.kv("aborted", ls.aborted);
          w.kv("last_published_version", ls.last_published_version);
          w.kv("last_candidate_regret", ls.last_candidate_regret);
          w.kv("last_live_regret", ls.last_live_regret);
          w.kv("last_candidate_rme", ls.last_candidate_rme);
          w.kv("last_live_rme", ls.last_live_rme);
          w.key("replay");
          w.begin_object();
          w.kv("size", static_cast<std::uint64_t>(ls.replay.size));
          w.kv("observations", ls.replay.observations);
          w.kv("inserted", ls.replay.inserted);
          w.kv("evictions", ls.replay.evictions);
          w.kv("skipped", ls.replay.skipped);
          w.end_object();
          w.key("drift");
          w.begin_object();
          w.kv("windows", ls.drift.windows);
          w.kv("drifted_windows", ls.drift.drifted_windows);
          w.kv("trips", ls.drift.trips);
          w.kv("tripped", ls.drift.tripped);
          w.kv("last_accuracy", ls.drift.last_accuracy);
          w.kv("last_rme", ls.drift.last_rme);
          w.end_object();
        }
        w.end_object();
        w.end_object();
        emit(os.str());
        continue;
      }
      if (parsed.admin.cmd == "stats") {
        // Live stats plane: one compact JSON line with the server's
        // counters, scorecard summary, ingest stats and the full metrics
        // snapshot — the same schema a --report file carries.
        const auto counters = service.counters();
        const auto score = service.scorecard().summary();
        const auto ingest = service.ingest().stats();
        const auto snap = obs::MetricsRegistry::global().snapshot();
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.begin_object();
        if (!parsed.admin.id.empty())
          w.kv("id", std::string_view(parsed.admin.id));
        w.kv("ok", true);
        w.kv("server_ms", line_timer.millis());
        w.key("counters");
        w.begin_object();
        w.kv("served", counters.served);
        w.kv("rejected", counters.rejected);
        w.kv("degraded", counters.degraded);
        w.kv("failed", counters.failed);
        w.kv("shed", counters.shed);
        w.kv("watchdog_killed", counters.watchdog_killed);
        w.kv("breaker_trips", counters.breaker_trips);
        w.kv("steals", counters.steals);
        w.end_object();
        w.key("scorecard");
        w.begin_object();
        w.kv("records", score.total);
        w.kv("window", static_cast<std::uint64_t>(score.window));
        w.kv("accuracy", score.accuracy);
        w.kv("mean_regret", score.mean_regret);
        w.kv("rme", score.rme);
        w.end_object();
        w.key("ingest");
        w.begin_object();
        w.kv("hits", ingest.hits);
        w.kv("misses", ingest.misses);
        w.kv("parses", ingest.parses);
        w.kv("sidecar_loads", ingest.sidecar_loads);
        w.kv("coalesced", ingest.coalesced);
        w.kv("evictions", ingest.evictions);
        w.kv("bytes", static_cast<std::uint64_t>(ingest.bytes));
        w.end_object();
        w.key("metrics");
        obs::write_metrics_object(w, snap);
        w.end_object();
        emit(os.str());
        continue;
      }
      serve::Response rsp;
      rsp.id = parsed.admin.id;
      try {
        const auto version = registry.install_files(
            parsed.admin.model_path, parsed.admin.perf_model_path);
        rsp.ok = true;
        rsp.model_version = version;
        emit("{\"id\": \"" + JsonWriter::escape(rsp.id) +
             "\", \"ok\": true, \"version\": " + std::to_string(version) +
             "}");
      } catch (const Error& e) {
        rsp.error = std::string(error_category_name(e.category())) + ": " +
                    e.what();
        rsp.server_ms = line_timer.millis();
        emit(serve::to_json(rsp));
      }
      continue;
    }
    service.submit(std::move(parsed.request),
                   [&emit, line_timer](const serve::Response& r) {
                     serve::Response stamped = r;
                     stamped.server_ms = line_timer.millis();
                     emit(serve::to_json(stamped));
                   });
  }
  if (serve::drain_requested())
    obs::log_info("serve.drain")
        .kv("reason", "SIGTERM")
        .kv("note", "stopped accepting; flushing in-flight requests");
  service.shutdown();
  const auto counters = service.counters();
  obs::log_info("serve.summary")
      .kv("served", counters.served)
      .kv("rejected", counters.rejected)
      .kv("degraded", counters.degraded)
      .kv("failed", counters.failed)
      .kv("shed", counters.shed)
      .kv("watchdog_killed", counters.watchdog_killed)
      .kv("breaker_trips", counters.breaker_trips)
      .kv("steals", counters.steals);
  const auto ingest = service.ingest().stats();
  obs::log_info("serve.ingest.summary")
      .kv("hits", ingest.hits)
      .kv("misses", ingest.misses)
      .kv("parses", ingest.parses)
      .kv("sidecar_loads", ingest.sidecar_loads)
      .kv("coalesced", ingest.coalesced)
      .kv("evictions", ingest.evictions)
      .kv("bytes", static_cast<std::uint64_t>(ingest.bytes));
  return 0;
}

int cmd_inspect(const Args& a) {
  if (a.positional.empty()) usage();
  const auto matrix = read_matrix_market(a.positional.front());
  const auto features = extract_features(matrix);
  std::printf("%s: %lld x %lld, %lld nonzeros\n",
              a.positional.front().c_str(),
              static_cast<long long>(matrix.rows()),
              static_cast<long long>(matrix.cols()),
              static_cast<long long>(matrix.nnz()));
  for (int id = 0; id < kNumFeatures; ++id)
    std::printf("  %-11s = %.6g\n", feature_name(id), features[id]);
  if (matrix.rows() == matrix.cols())
    std::printf("  %-11s = %lld\n", "bandwidth",
                static_cast<long long>(bandwidth(matrix)));
  const auto summary = summarize(matrix);
  std::printf("  %-11s = %.3f\n", "ell_padding", summary.ell_padding_ratio());
  std::printf("  %-11s = %.3f\n", "band_frac", summary.band_fraction);
  return 0;
}

/// Strict bitwise CSR comparison (memcmp over the raw arrays): the
/// sidecar contract is byte identity with the text parse, stronger than
/// operator== (which would conflate -0.0 with 0.0).
bool csr_bitwise_equal(const Csr<double>& a, const Csr<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.nnz() == b.nnz() &&
         std::memcmp(a.row_ptr().data(), b.row_ptr().data(),
                     a.row_ptr().size_bytes()) == 0 &&
         std::memcmp(a.col_idx().data(), b.col_idx().data(),
                     a.col_idx().size_bytes()) == 0 &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size_bytes()) == 0;
}

int cmd_sidecar(const Args& a) {
  if (a.options.count("self-test")) {
    // Round-trip a few synthetic matrices through text -> sidecar ->
    // reload and demand bitwise identity with the text parse. Wired into
    // tools/check.sh so a converter regression fails the tier-1 gate.
    const std::string dir = "spmvml_sidecar_selftest.tmp";
    for (const MatrixFamily family :
         {MatrixFamily::kBanded, MatrixFamily::kPowerLaw,
          MatrixFamily::kUniformRandom}) {
      GenSpec spec;
      spec.family = family;
      spec.rows = spec.cols = 500;
      spec.seed = 7 + static_cast<std::uint64_t>(family);
      const Csr<double> synth = generate(spec);
      const std::string mtx = dir + "." + family_name(family) + ".mtx";
      write_matrix_market(mtx, synth);
      const Csr<double> text = read_matrix_market(mtx);
      write_csr_binary(csr_sidecar_path(mtx), text);
      const Csr<double> binary = read_csr_binary(csr_sidecar_path(mtx));
      const bool same = csr_bitwise_equal(text, binary);
      std::remove(mtx.c_str());
      std::remove(csr_sidecar_path(mtx).c_str());
      SPMVML_ENSURE_CAT(same, ErrorCategory::kIo,
                        std::string("sidecar self-test: binary CSR differs "
                                    "from the text parse for family ") +
                            family_name(family));
    }
    std::printf("sidecar self-test: ok\n");
    return 0;
  }
  if (a.positional.empty()) usage();
  const std::string in_path = a.positional.front();
  const Csr<double> matrix = read_matrix_market(in_path);
  const std::string out_path =
      opt(a, "out", csr_sidecar_path(in_path).c_str());
  write_csr_binary(out_path, matrix);
  // Verify the round trip before reporting success: a sidecar that does
  // not reproduce the text parse bit-for-bit must never be left on disk.
  const Csr<double> reloaded = read_csr_binary(out_path);
  if (!csr_bitwise_equal(matrix, reloaded)) {
    std::remove(out_path.c_str());
    SPMVML_ENSURE_CAT(false, ErrorCategory::kIo,
                      "sidecar verification failed for " + out_path +
                          " (removed)");
  }
  obs::log_info("cli.sidecar_written")
      .kv("path", out_path)
      .kv("rows", static_cast<std::uint64_t>(matrix.rows()))
      .kv("nnz", static_cast<std::uint64_t>(matrix.nnz()));
  std::printf("%s\n", out_path.c_str());
  return 0;
}

/// `spmvml stats-export <report.json>`: translate a --report /
/// --stats-file snapshot into the Prometheus text exposition format on
/// stdout, so any Prometheus-compatible scraper can ingest spmvml
/// metrics without the server speaking HTTP itself.
int cmd_stats_export(const Args& a) {
  if (a.positional.empty()) usage();
  const std::string& path = a.positional.front();
  std::ifstream in(path);
  SPMVML_ENSURE_CAT(in.good(), ErrorCategory::kIo,
                    "cannot open report file " + path);
  const obs::MetricsSnapshot snap = obs::read_report_metrics(in);
  obs::write_prometheus_text(std::cout, snap);
  return 0;
}

int run_command(const std::string& cmd, const Args& args) {
  if (cmd == "train") return cmd_train(args);
  if (cmd == "train-perf") return cmd_train_perf(args);
  if (cmd == "select") return cmd_select(args);
  if (cmd == "predict") return cmd_predict(args);
  if (cmd == "inspect") return cmd_inspect(args);
  if (cmd == "sidecar") return cmd_sidecar(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "stats-export") return cmd_stats_export(args);
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const Args args = parse(argc, argv, 2);

  // Log level: flags win, then SPMVML_LOG, then the CLI default (info —
  // the interactive tool talks, the library stays silent by default).
  if (args.options.count("verbose")) {
    obs::set_log_level(obs::LogLevel::kDebug);
  } else if (args.options.count("quiet")) {
    obs::set_log_level(obs::LogLevel::kError);
  } else if (std::getenv("SPMVML_LOG") == nullptr) {
    obs::set_log_level(obs::LogLevel::kInfo);
  }
  const std::string trace_path = opt(args, "trace", "");
  if (!trace_path.empty()) obs::trace_start(trace_path);

  WallTimer wall;
  try {
    const int rc = run_command(cmd, args);
    if (!trace_path.empty()) obs::trace_stop();
    const std::string report_path = opt(args, "report", "");
    if (!report_path.empty()) {
      obs::ReportMeta meta;
      meta.tool = "spmvml " + cmd;
      for (int i = 0; i < argc; ++i) {
        if (i > 0) meta.command += ' ';
        meta.command += argv[i];
      }
      meta.seed = 2018;  // the fixed corpus-plan seed
      meta.threads = static_cast<int>(
          numeric_opt(args, "threads", 0.0, 0.0, 256.0));
      meta.wall_s = wall.seconds();
      obs::write_report(report_path, meta);
      obs::log_info("cli.report_written").kv("path", report_path);
    }
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "error [%s]: %s\n",
                 error_category_name(e.category()), e.what());
    return error_exit_code(e.category());
  } catch (const std::exception& e) {
    // Nothing below main should leak a raw std::exception; if it does,
    // fail cleanly instead of crashing with an uncaught-exception abort.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
