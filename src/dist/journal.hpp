// Crash-safe append-only shard journals.
//
// A shard runner streams one record per completed enumeration index —
// the incremental-delay discipline: bounded state per emitted verdict
// summary, nothing buffered that a crash could lose beyond the record
// being appended. A journal is a RecordLog (dist/record_log.hpp, which
// owns the file format and the scan/truncate/append rules): its
// preamble binds it to its shard (shard id, plan fingerprint, index
// range), each RESULT record carries (index, value), and a final DONE
// record seals the shard with its aggregate.
//
// On top of the record log's valid prefix the journal adds its ordering
// rule: RESULT indices run contiguously from `begin`, and a DONE record
// counts only if every index of [begin, end) precedes it and its value
// equals their sum. A rerun resumes at the first uncommitted index
// without recomputing anything before it. A sealed journal makes a
// second `shard run` a detected no-op (double-completion), and only
// sealed journals merge.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "dist/record_log.hpp"
#include "dist/shard_plan.hpp"

namespace rvt::dist {

/// What binds a journal to its shard; serialized into the preamble.
struct JournalHeader {
  ShardId shard_id;
  ShardId fingerprint;      ///< plan fingerprint (workload + schema)
  std::uint64_t begin = 0;  ///< index range of the shard
  std::uint64_t end = 0;
  friend bool operator==(const JournalHeader&, const JournalHeader&) = default;
};

/// The header a journal of `spec` under `plan` must carry.
JournalHeader journal_header(const ShardPlan& plan, const ShardSpec& spec);

/// Result of scanning a journal file.
struct JournalState {
  JournalHeader header;
  std::uint64_t next_index = 0;  ///< first index NOT committed
  std::uint64_t sum = 0;         ///< sum of committed values
  bool complete = false;         ///< DONE record present and consistent
  std::uint64_t valid_bytes = 0; ///< prefix a resume may append after
};

/// Canonical journal filename for a shard (under `dir`).
std::string journal_path(const std::string& dir, const ShardSpec& spec);

/// Scans `path`. Returns nullopt if the file does not exist; throws
/// SerializeError if the preamble is missing/corrupt (the journal is
/// unusable — recreate it). Record-level damage is NOT an error: the
/// scan stops at the first bad record and reports the valid prefix.
std::optional<JournalState> read_journal(const std::string& path);

/// read_journal(path) if the journal is usable and bound to `header`;
/// nullopt for a missing, unusable or foreign journal — one a writer
/// must recreate rather than extend.
std::optional<JournalState> read_bound_journal(const std::string& path,
                                               const JournalHeader& header);

/// Appender. Records must be fed in index order (begin, begin+1, ...);
/// the writer enforces it — the journal's recovery scan depends on
/// contiguity. Flushes every record (not fsynced: a lost tail costs
/// recomputing its indices). Failpoint sites "journal.append" and
/// "journal.seal".
class JournalWriter {
 public:
  /// Creates/overwrites `path` with a fresh preamble.
  static JournalWriter create(const std::string& path,
                              const JournalHeader& header);
  /// Opens `path` for appending after state.valid_bytes, truncating the
  /// torn tail first. Throws SerializeError if the journal is already
  /// complete (double completion is the CALLER's branch to handle —
  /// see run_shard) or the state does not match `header`.
  static JournalWriter resume(const std::string& path,
                              const JournalHeader& header,
                              const JournalState& state);

  /// Appends the record for `index` (must be the next uncommitted one).
  void record(std::uint64_t index, std::uint64_t value);
  /// Seals the journal: every index of [begin, end) must be committed,
  /// and `total` must equal the running sum (defensive: the aggregate a
  /// merge trusts is cross-checked at the source).
  void finish(std::uint64_t total);

  std::uint64_t next_index() const { return next_; }
  std::uint64_t sum() const { return sum_; }

 private:
  JournalWriter(RecordLog log, const JournalHeader& header,
                std::uint64_t next, std::uint64_t sum)
      : log_(std::move(log)), header_(header), next_(next), sum_(sum) {}

  RecordLog log_;
  JournalHeader header_;
  std::uint64_t next_ = 0;
  std::uint64_t sum_ = 0;
  bool finished_ = false;
};

}  // namespace rvt::dist
