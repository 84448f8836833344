#include "fingerprint.hpp"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "sparse/simd.hpp"
#include "support.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// Each triad array is this multiple of the LLC (three arrays: 4.5x the
// LLC together), so the triad streams from DRAM. The arrays live in a
// forked child process and never count toward the run's peak RSS.
constexpr double kTriadLlcMultiple = 1.5;
constexpr std::int64_t kTriadFallbackBytes = 256ll << 20;  // LLC unknown
constexpr int kTriadReps = 5;

/// Median GB/s of a[i] = b[i] + s * c[i] over `threads` static slices,
/// counting 3 x 8 bytes per element (STREAM convention).
double triad_gbs(std::vector<double>& a, const std::vector<double>& b,
                 const std::vector<double>& c, int threads) {
  const std::size_t n = a.size();
  const double scalar = 3.0;
  auto slice = [&](int t) {
    const std::size_t lo = n * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(threads);
    const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                           static_cast<std::size_t>(threads);
    for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + scalar * c[i];
  };
  std::vector<double> rates;
  for (int rep = 0; rep < kTriadReps; ++rep) {
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(slice, t);
    slice(0);
    for (auto& th : pool) th.join();
    const double s = ms_between(t0, Clock::now()) * 1e-3;
    rates.push_back(3.0 * 8.0 * static_cast<double>(n) / s / 1e9);
  }
  return median(rates);
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The triad at 1 and `threads` threads, run in a forked child so its
/// arrays stay out of this process's memory and peak RSS. Call it while
/// the process has no other threads.
std::array<double, 2> triad_in_child(std::int64_t array_bytes, int threads) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("fingerprint: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fingerprint: fork failed");
  if (pid == 0) {
    close(fds[0]);
    const auto n = static_cast<std::size_t>(array_bytes / 8);
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const std::array<double, 2> rates = {triad_gbs(a, b, c, 1),
                                         triad_gbs(a, b, c, threads)};
    const bool sent = write(fds[1], rates.data(), sizeof(rates)) ==
                      static_cast<ssize_t>(sizeof(rates));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  std::array<double, 2> rates{};
  const bool got = read(fds[0], rates.data(), sizeof(rates)) ==
                   static_cast<ssize_t>(sizeof(rates));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("fingerprint: triad child failed");
  return rates;
}

}  // namespace

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

Fingerprint take_fingerprint(const std::string& commit) {
  Fingerprint fp;
  fp.simd_tier = spmvml::simd::active_isa();
  fp.nproc = available_cpus();
  fp.omp_threads = spmvml::parallel_threads();
  fp.llc_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  fp.compiler = compiler_name();
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.commit = commit.empty() ? "unknown" : commit;
  fp.triad_array_bytes =
      fp.llc_bytes > 0
          ? static_cast<std::int64_t>(kTriadLlcMultiple *
                                      static_cast<double>(fp.llc_bytes)) /
                8 * 8
          : kTriadFallbackBytes;
  const auto rates = triad_in_child(fp.triad_array_bytes, fp.nproc);
  fp.triad_gbs_1t = rates[0];
  fp.triad_gbs = rates[1];
  return fp;
}

std::string Fingerprint::to_json() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"simd_tier\":\"%s\",\"nproc\":%d,\"omp_threads\":%d,"
      "\"llc_bytes\":%lld,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"commit\":\"%s\",\"triad_array_bytes\":%lld,\"triad_arrays\":3,"
      "\"triad_gbs_1t\":%.4f,\"triad_gbs\":%.4f}",
      simd_tier.c_str(), nproc, omp_threads,
      static_cast<long long>(llc_bytes), compiler.c_str(), build_type.c_str(),
      commit.c_str(), static_cast<long long>(triad_array_bytes), triad_gbs_1t,
      triad_gbs);
  return buf;
}

}  // namespace perfbench
