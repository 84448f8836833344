// Environment-variable knobs shared by benches and tests.
//
//   SPMVML_CORPUS_SCALE  — multiply per-bucket corpus sizes (default 1.0)
//   SPMVML_FAST          — 1 shrinks hyper-parameter grids / epochs for
//                          smoke runs (default 0)
//   SPMVML_SEED          — root seed for all experiments (default 2018,
//                          the paper's publication year)
//   SPMVML_THREADS       — worker threads for corpus collection
//                          (default 1)
//
// Serving knobs (read by tools/spmvml_cli.cpp via the helpers here; the
// matching command-line flag wins over the env var):
//
//   SPMVML_INGEST_CACHE_MB — byte budget (in MB) of the serving
//                          materialized-matrix cache (default 256; 0
//                          disables caching, loads still coalesce)
//   SPMVML_SHARDS        — serving dispatch shards (default 1 = the
//                          single-dispatcher layout)
//
// Online-learning knobs (serve --learn family; DESIGN.md §5k):
//
//   SPMVML_LEARN         — 1 enables the online learning loop: shadow
//                          probes, replay buffer, drift detection,
//                          background retraining with validated hot-swap
//                          (default 0 = off, serving byte-identical to a
//                          build without the subsystem)
//   SPMVML_LEARN_REPLAY_CAP — replay-buffer sample capacity (default
//                          4096; reservoir-style eviction past it)
//   SPMVML_LEARN_DRIFT_RME — windowed relative-model-error threshold
//                          that counts a window as drifted (default 0.5)
//   SPMVML_LEARN_RETRAIN_EVERY_S — periodic retrain interval in seconds
//                          on top of drift-triggered retraining
//                          (default 0 = drift-only)
//
// Observability knobs (read by common/obs/, not via the helpers here):
//
//   SPMVML_LOG           — structured-log level: debug|info|warn|error|off
//                          (default off; data outputs stay byte-identical)
//   SPMVML_TRACE         — path for a Chrome trace-event JSON of the run
//   SPMVML_TRACE_SAMPLE  — serving per-request trace sampling: every Nth
//                          parsed request gets id-tagged spans (1 = all,
//                          default 0 = off; `serve --trace-sample` wins;
//                          DESIGN.md §5j)
//   SPMVML_STATS_EVERY_S — serving periodic metrics-snapshot interval in
//                          seconds, written to `serve --stats-file` by
//                          atomic rename (default 0 = off; the flag wins)
//
// Chaos knob (read by common/chaos/, not via the helpers here):
//
//   SPMVML_CHAOS         — path to a chaos-scenario script: seeded fault
//                          injection at named serving-path sites (DESIGN.md
//                          §5h; unset = disabled, zero perturbation)
#pragma once

#include <cstdint>
#include <string>

namespace spmvml {

/// Read a double from the environment, falling back to `fallback` when the
/// variable is unset or unparsable.
double env_double(const char* name, double fallback);

/// Read an integer from the environment with fallback.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Corpus scale factor (SPMVML_CORPUS_SCALE, default 1.0, clamped to
/// [0.01, 10]).
double corpus_scale();

/// Fast-mode flag (SPMVML_FAST).
bool fast_mode();

/// Root experiment seed (SPMVML_SEED, default 2018).
std::uint64_t root_seed();

/// Worker-thread count for the collection pipeline (SPMVML_THREADS,
/// default 1, clamped to [1, 256]).
int thread_count();

}  // namespace spmvml
