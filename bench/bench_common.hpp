// Shared helpers for the experiment harnesses (E1..E16).
//
// Each bench binary reproduces one experiment from EXPERIMENTS.md: it runs
// without arguments, prints its seed, the table of results, and a PASS /
// FAIL verdict line summarizing whether the paper's qualitative claim held
// in this run. Benches additionally record wall-time (total, and per
// verification engine where both are exercised) and dump a
// machine-readable BENCH_<ID>.json report (util/bench_report.hpp — the
// schema is validated at write time, so a malformed report fails the
// bench) so perf can be tracked PR over PR.
//
// Timing discipline: the engine shoot-outs use steady_min_seconds() —
// warm-up passes followed by the MINIMUM over N timed repeats, measured
// in per-thread CPU time — so the recorded numbers track the steady
// state of the pipeline (caches populated, allocations amortized, branch
// predictors trained) instead of a single cold wall-clock shot at the
// mercy of co-tenant scheduling noise. Both engines of a shoot-out are
// measured identically, so the recorded ratio is unaffected; the repeat
// counts land in the JSON (compiled_repeats / reference_repeats) for
// trajectory comparability.
//
// Fleet benches (E13-E16) launch the real `rvt_cli` next to the bench
// binary with spawn() and reap it with wait_exit(), and print their
// sub-assertions with check().
#pragma once

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/bench_report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace rvt::bench {

inline constexpr std::uint64_t kDefaultSeed = 0x5eed2010;  // SPAA 2010

inline void header(const std::string& id, const std::string& claim) {
  std::cout << "==== " << id << " ====\n" << claim << "\n"
            << "seed: " << kDefaultSeed << "\n\n";
}

inline void verdict(bool ok, const std::string& what) {
  std::cout << "\n[" << (ok ? "PASS" : "FAIL") << "] " << what << "\n\n";
}

/// One sub-assertion line; returns `ok` so callers can fold it into
/// their verdict (`all_ok &= check(...)`).
inline bool check(bool ok, const std::string& what) {
  std::cout << "  [" << (ok ? "ok" : "FAIL") << "] " << what << "\n";
  return ok;
}

/// The rvt_cli binary built next to this bench binary.
inline std::string cli_path(const char* argv0) {
  return (std::filesystem::path(argv0).parent_path() / "rvt_cli").string();
}

/// Extracts the integer value of `"key": N` from a metrics snapshot;
/// returns false when the key is absent.
inline bool metrics_u64(const std::string& body, const std::string& key,
                        std::uint64_t* out) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
  return true;
}

using EnvVars = std::vector<std::pair<std::string, std::string>>;

/// fork+execve of `args` (args[0] is the program path) with stdout and
/// stderr redirected into `log` and `env` set in the child only, on top
/// of this process's environment. Returns the child pid; the child
/// _exits 127 if exec fails. argv and envp are built before the fork, so
/// the child only makes async-signal-safe calls — safe from a bench that
/// runs an in-process coordinator's threads.
inline pid_t spawn(const std::vector<std::string>& args,
                   const std::string& log, const EnvVars& env = {}) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    const std::string key(*e, eq == nullptr ? std::strlen(*e) : eq - *e);
    bool overridden = false;
    for (const auto& [k, v] : env) overridden |= k == key;
    if (!overridden) env_strings.emplace_back(*e);
  }
  for (const auto& [k, v] : env) env_strings.push_back(k + "=" + v);
  std::vector<char*> argv, envp;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  for (std::string& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);
  std::cout.flush();  // the child must not inherit unflushed output
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  ::execve(argv[0], argv.data(), envp.data());
  ::_exit(127);
}

/// Blocks until `pid` exits; returns its exit code, or -(signal) when
/// it died to a signal (SIGKILL -> -9).
inline int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-thread CPU-time stopwatch: immune to preemption by co-tenants,
/// which on shared runners can inflate wall time arbitrarily. Only valid
/// around single-threaded work (the engine shoot-outs are, by design).
class CpuTimer {
 public:
  CpuTimer() : start_(now()) {}
  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

/// Steady-state timing: run fn() `warmup` times untimed, then `repeats`
/// timed runs and return the MINIMUM per-thread CPU time. The warm-up
/// populates caches (orbit caches, allocator pools, page tables); the
/// min over repeats rejects residual noise (interrupt handling, cache
/// pollution from neighbors) — together they measure the workload's
/// steady-state throughput rather than one cold shot.
template <typename Fn>
double steady_min_seconds(int warmup, int repeats, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  double best = -1.0;
  for (int i = 0; i < repeats; ++i) {
    CpuTimer timer;
    fn();
    const double s = timer.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best < 0.0 ? 0.0 : best;
}

/// Bench-flavored BenchReport: stamps the shared bench seed. The
/// historical name JsonReport survives for the benches that predate the
/// schema helper.
class JsonReport : public util::BenchReport {
 public:
  explicit JsonReport(std::string id)
      : util::BenchReport(std::move(id), kDefaultSeed) {}
};

}  // namespace rvt::bench
