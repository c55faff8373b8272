// Deterministic, seedable fault injection.
//
// A FAILPOINT is a named site in the code where a fault can be provoked
// on demand: an IO path that can be made to fail, a loop that can be
// made to crash the process at a chosen iteration. Sites are compiled in
// permanently and cost one relaxed atomic load + branch when no
// configuration is armed — the fault battery needs the sites in the
// production binary (a debug-only build would test a different program),
// and the E10 numbers must not move for it.
//
// Configuration comes from the RVT_FAILPOINTS environment variable (or a
// CLI flag / direct configure() call in tests):
//
//     RVT_FAILPOINTS="site=action@trigger[;site=action@trigger...]"
//
//     action  := err            report a failure to the calling code
//              | crash          _exit(kFailpointCrashExitCode) at the site
//     trigger := always                   fire on every hit
//              | hit:<n>                  fire on the n-th hit (1-based)
//              | hit:<n>:<count>          fire on hits n .. n+count-1
//              | hit:<n>:*                fire on every hit from n on
//              | prob:<p>:<seed>          fire each hit with probability p,
//                                         decided by a deterministic hash
//                                         of (seed, hit index)
//
// Every trigger is DETERMINISTIC: the same configuration against the
// same execution fires at the same hits, so a chaos scenario is a
// reproducible workload (the bench-report `faults` block records the
// scenario seed). Hit counters are per-site and process-wide.
//
// What a fired action MEANS is the site's contract: an `err` at
// "fs_store.load" is a transient IO failure (retried), at
// "fs_store.load.decode" a corrupt file (quarantined), at
// "journal.append" an append failure (SerializeError). A `crash` is
// always an immediate _exit — except the record-log append sites, which
// write a partial record before dying: the torn tail the recovery scan
// must drop.
//
// Registered sites:
//   fs_store.load          FsOrbitStore::load       err = read failure
//   fs_store.load.decode   FsOrbitStore::load       err = decode failure
//   fs_store.store         FsOrbitStore::store      err = publish failure
//   journal.append         RecordLog::append        crash tears a record
//                          (from JournalWriter::record)
//   journal.seal           RecordLog::append        crash tears the seal
//                          (from JournalWriter::finish)
//   wire.unframe           unframe_payload          err = frame decode
//   ledger.append          RecordLog::append        crash tears a record
//                          (from LedgerWriter::append)
//   worker.index           run_worker compute loop  crash-at-index hook
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rvt::util {

enum class FaultAction : std::uint8_t { kNone = 0, kError = 1, kCrash = 2 };

/// Exit code of a crash action — distinguishable from a real SIGKILL or
/// an ordinary failure in a supervisor's wait status.
inline constexpr int kFailpointCrashExitCode = 41;

class FailPointRegistry {
 public:
  static FailPointRegistry& instance();

  /// Replaces the whole configuration (see the syntax above). An empty
  /// string disarms every site. Throws std::invalid_argument on a
  /// malformed config, leaving the previous configuration in place.
  /// Not safe concurrently with evaluate() — configure before the
  /// workers start, like every other harness knob.
  void configure(const std::string& config);

  /// configure(getenv("RVT_FAILPOINTS")) if the variable is set; no-op
  /// otherwise. Drivers that support fault injection (rvt_cli, the
  /// chaos bench) call this at startup — library code never does, so a
  /// stray environment cannot perturb a production embedding.
  void configure_from_env();

  /// Disarms and forgets every site and counter.
  void reset();

  /// The slow half of failpoint(): counts the hit and decides whether
  /// the site fires this time. Thread-safe.
  FaultAction evaluate(std::string_view site);

  struct SiteStats {
    std::string site;
    std::uint64_t hits = 0;   ///< evaluations since configure
    std::uint64_t fired = 0;  ///< hits on which the site fired
  };
  /// Per-site counters of the current configuration, site-name order.
  std::vector<SiteStats> stats() const;
  /// Total faults injected across all sites since configure.
  std::uint64_t total_fired() const;

 private:
  FailPointRegistry() = default;
};

namespace detail {
/// The armed flag lives outside the registry so the fast path below
/// never touches a mutex or the registry's storage.
inline std::atomic<bool> g_failpoints_armed{false};
}  // namespace detail

/// THE site check. Zero-cost when nothing is configured: one relaxed
/// atomic load and a predictable branch.
inline FaultAction failpoint(std::string_view site) {
  if (!detail::g_failpoints_armed.load(std::memory_order_relaxed)) {
    return FaultAction::kNone;
  }
  return FailPointRegistry::instance().evaluate(site);
}

/// The crash action: flushes stdio and _exit(kFailpointCrashExitCode).
/// Sites that tear state first (partial journal record) do their damage
/// and then call this.
[[noreturn]] void failpoint_crash(std::string_view site);

/// Convenience for pure error sites: true if the caller should fail this
/// operation. A crash action never returns.
bool failpoint_error(std::string_view site);

}  // namespace rvt::util
