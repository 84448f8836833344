// Machine fingerprint carried by every result, including a STREAM-triad
// bandwidth measured in the same run: the ceiling the kernels' bandwidth
// fractions divide by.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Fingerprint {
  std::string simd_tier;  // spmvml::simd::active_isa()
  int nproc = 0;          // CPUs this process may run on
  int omp_threads = 0;    // threads the library's parallel_for uses
  std::int64_t llc_bytes = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;
  std::int64_t triad_array_bytes = 0;  // per array (1.5x LLC); three arrays
  double triad_gbs_1t = 0.0;           // one thread
  double triad_gbs = 0.0;              // nproc threads

  std::string to_json() const;
};

/// Probe the machine and run the triad (one to two seconds) in a forked
/// child. Call it before the process starts any thread.
Fingerprint take_fingerprint(const std::string& commit);

/// CPUs available to this process (sched affinity).
int available_cpus();

}  // namespace perfbench
