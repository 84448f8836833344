// Seeded chaos framework: named fault-injection sites shared by the
// measurement oracle and the online serving path.
//
// PR 1 taught the *offline* pipeline to survive seeded faults; this
// module generalizes that engine so any stage of the system can be a
// fault-injection site. A chaos *scenario* is a list of rules, each
// binding a site to a fault kind (added latency, a transient error, or
// payload corruption) with an injection rate and an optional time
// window. Decisions are drawn deterministically:
//
//     roll = Rng(hash(seed, site, identity, rule#)).bernoulli(rate)
//
// so the fault sequence is a pure function of (scenario seed, work-item
// identity) — independent of thread interleaving, arrival order and
// wall clock. Re-running a chaos experiment with the same seed injects
// the *same* faults into the *same* requests; that is what makes the
// chaos tests assert byte-identical responses and what made PR 1's
// oracle faults reproducible (FaultModel now draws through this
// engine's primitive).
//
// Rules with a finite [start_s, end_s) window consult the engine's
// elapsed clock — that is the scripted "fault burst" the robustness
// bench fires at the serving path; windowed rules trade the identity
// determinism above for scripted timing, and tests that assert
// identical responses use windowless rules only.
//
// The framework is always compiled in; with no global engine installed
// every site resolves to "no fault" with one relaxed atomic load, so a
// chaos-capable binary is observably identical to one without
// (test_robustness.cpp proves the corpus CSV does not move by a byte).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spmvml::chaos {

/// Named injection sites. Sites are stable identifiers: scenario files
/// name them, metrics are registered per site, and the deterministic
/// draw hashes the enum value.
enum class Site : int {
  kRequestParse = 0,    // serve: JSONL request parsing
  kCacheLookup = 1,     // serve: feature-cache get (fail-open to a miss)
  kFeatureExtract = 2,  // serve: Table II extraction (degrades to CSR)
  kMaterialize = 3,     // serve: arena conversion of the chosen format
  kInference = 4,       // serve: classifier pass (degrades to CSR)
  kRegistrySwap = 5,    // serve: model hot-swap publish (rolls back)
  kOracleMeasure = 6,   // gpusim: oracle measurement (PR 1 fault model)
};

inline constexpr int kNumSites = 7;

const char* site_name(Site s);
std::optional<Site> site_from_name(std::string_view name);

enum class FaultKind : int {
  kNone = 0,
  kLatency = 1,  // add latency_ms before the operation
  kError = 2,    // fail the operation
  kCorrupt = 3,  // complete the operation with corrupted payload
};

const char* fault_kind_name(FaultKind k);

/// One injection decision. kNone means "proceed untouched".
struct Fault {
  FaultKind kind = FaultKind::kNone;
  double latency_ms = 0.0;  // for kLatency
  explicit operator bool() const { return kind != FaultKind::kNone; }
};

/// One scenario rule: inject `kind` at `site` with probability `rate`
/// per decision, active while elapsed time is in [start_s, end_s).
struct Rule {
  Site site = Site::kRequestParse;
  FaultKind kind = FaultKind::kError;
  double rate = 0.0;
  double latency_ms = 0.0;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();

  bool windowed() const {
    return start_s > 0.0 || end_s != std::numeric_limits<double>::infinity();
  }
};

/// A parsed scenario script. Text format, one directive per line:
///
///   # comment (and blank lines) are skipped
///   seed 42
///   rule site=feature_extract kind=error rate=0.5
///   rule site=inference kind=latency rate=1 latency_ms=20 start_s=2 end_s=2.5
///
/// Unknown sites, kinds or keys are kParse errors, not silent no-ops —
/// a typo must never run a chaos experiment with the fault disabled.
struct Scenario {
  std::uint64_t seed = 0;
  std::vector<Rule> rules;

  static Scenario parse(std::istream& in);
  static Scenario parse_string(const std::string& text);
  static Scenario parse_file(const std::string& path);
};

/// The shared deterministic draw primitive: one stateless Bernoulli
/// roll from a fully-derived key. gpusim::FaultModel builds its PR 1
/// salt chain and calls this; the chaos engine derives its keys from
/// (seed, site, identity, rule index) and calls the same function.
bool seeded_roll(std::uint64_t key, double rate);

/// FNV-1a of a string — the convention for turning request ids / input
/// lines into identity keys.
std::uint64_t identity_hash(std::string_view s);

/// Mix an attempt counter into an identity so a retry re-rolls the dice
/// (same convention as the oracle fault model's attempt salt).
std::uint64_t with_attempt(std::uint64_t identity, int attempt);

class Engine {
 public:
  explicit Engine(Scenario scenario);

  /// Decide the fault (if any) at `site` for the work item `identity`.
  /// First matching rule wins, in scenario order. Thread-safe and — for
  /// windowless rules — deterministic in (seed, site, identity).
  Fault decide(Site site, std::uint64_t identity) const;

  /// Re-arm the window clock: elapsed_s() == 0 at this instant. The
  /// constructor arms it too; benches call start() again right before
  /// offering traffic so scripted windows line up with the request
  /// timeline.
  void start();
  double elapsed_s() const;

  const Scenario& scenario() const { return scenario_; }

 private:
  Scenario scenario_;
  std::int64_t start_ns_ = 0;  // steady-clock epoch offset
};

/// Process-global engine; nullptr = chaos disabled (the default).
/// set_global(nullptr) disables again. Reads are one relaxed atomic
/// check when disabled.
std::shared_ptr<Engine> global();
void set_global(std::shared_ptr<Engine> engine);

/// Install the global engine from the SPMVML_CHAOS environment variable
/// (a scenario file path). Returns the engine, or nullptr when the
/// variable is unset. Throws kParse/kIo on a bad scenario file.
std::shared_ptr<Engine> install_from_env();

/// Consult the global engine at `site`; returns no-fault when chaos is
/// disabled. Injections bump the chaos.injected.<site> counter.
Fault hit(Site site, std::uint64_t identity);

/// Sleep out a latency fault (no-op for other kinds).
void apply_latency(const Fault& f);

/// RAII global-engine override for tests: installs `engine`, restores
/// the previous global on destruction.
class ScopedGlobalEngine {
 public:
  explicit ScopedGlobalEngine(std::shared_ptr<Engine> engine);
  ~ScopedGlobalEngine();
  ScopedGlobalEngine(const ScopedGlobalEngine&) = delete;
  ScopedGlobalEngine& operator=(const ScopedGlobalEngine&) = delete;

 private:
  std::shared_ptr<Engine> previous_;
};

}  // namespace spmvml::chaos
