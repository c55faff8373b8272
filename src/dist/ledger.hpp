// The coordinator's write-ahead run ledger.
//
// Shard journals make the DATA of a campaign durable (which indices are
// committed, with what values). The ledger makes the CONTROL STATE
// durable: every lease grant, attempt failure, seal, quarantine and
// running-merge checkpoint is appended here — and fsynced — BEFORE the
// reply that announces it leaves the coordinator. A coordinator killed
// at any instant can therefore be restarted with `serve --resume` and
// reconstruct exactly which shards were out on lease, how many attempts
// each has burned, and what token generation is stale, without guessing
// from journal bytes alone.
//
// The file is a RecordLog (dist/record_log.hpp, which owns the format
// and the scan/truncate/append rules) whose preamble binds the ledger
// to the plan (fingerprint + shard count) and which fsyncs every
// record. A SIGKILL between fwrite and fsync loses at most the record
// being appended, which by the write-ahead rule was never acknowledged
// to anyone.
//
// Authority is split, never merged by guesswork:
//  * journals are authoritative for committed DATA — the ledger's
//    kCheckpoint records are cross-checks, not the source of truth;
//  * the ledger is authoritative for CONTROL — a kSeal here without a
//    sealed journal on disk, or a checkpoint ahead of what the journals
//    hold, means the data half lost fsynced history and the resume
//    REFUSES rather than silently recomputing (see
//    Coordinator's resume path and DESIGN.md "Campaign durability").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/record_log.hpp"
#include "dist/shard_plan.hpp"

namespace rvt::dist {

/// Binds a ledger to its campaign; serialized into the preamble.
struct LedgerHeader {
  ShardId fingerprint;            ///< plan fingerprint (workload + schema)
  std::uint64_t shard_count = 0;  ///< shards in the plan
  friend bool operator==(const LedgerHeader&, const LedgerHeader&) = default;
};

/// One durable control-state transition. The two operands are
/// event-specific (see LedgerEvent).
enum class LedgerEvent : std::uint32_t {
  kEpoch = 1,       ///< coordinator start: a = epoch, b = first fresh token
  kGrant = 2,       ///< lease granted:     a = shard index, b = token
  kFail = 3,        ///< attempt failed:    a = shard index, b = attempts used
  kSeal = 4,        ///< shard sealed:      a = shard index, b = sealed sum
  kQuarantine = 5,  ///< shard given up on: a = shard index, b = attempts used
  kCheckpoint = 6,  ///< merge progress:    a = committed indices, b = defeats
};

struct LedgerRecord {
  LedgerEvent event = LedgerEvent::kEpoch;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Result of scanning a ledger file.
struct LedgerState {
  LedgerHeader header;
  std::vector<LedgerRecord> records;  ///< the valid prefix, in order
  std::uint64_t valid_bytes = 0;      ///< prefix a resume may append after
  std::uint64_t file_bytes = 0;       ///< actual size (torn tail included)
};

/// Canonical ledger filename under the journal directory.
std::string ledger_path(const std::string& dir);

/// Scans `path`. Returns nullopt if the file does not exist; throws
/// SerializeError if the preamble is missing/corrupt (the ledger is
/// unusable). Record-level damage is NOT an error: the scan stops at
/// the first bad record or unknown event and reports the valid prefix.
std::optional<LedgerState> read_ledger(const std::string& path);

/// Appender. Unlike journals the ledger has no per-record ordering
/// constraint — it is a log of events in the order they were decided —
/// but every append is fsynced before returning: append() returning IS
/// the durability point the write-ahead rule relies on.
class LedgerWriter {
 public:
  /// Creates/overwrites `path` with a fresh preamble.
  static LedgerWriter create(const std::string& path,
                             const LedgerHeader& header);
  /// Opens `path` for appending after state.valid_bytes, truncating the
  /// torn tail first. Throws SerializeError on a header mismatch (a
  /// ledger from a different campaign must never be extended).
  static LedgerWriter resume(const std::string& path,
                             const LedgerHeader& header,
                             const LedgerState& state);

  /// Appends one record, fsynced. Throws SerializeError on IO failure.
  /// Failpoint site "ledger.append": crash tears a partial record (the
  /// tail a resume must truncate), err throws.
  void append(const LedgerRecord& rec);

 private:
  explicit LedgerWriter(RecordLog log) : log_(std::move(log)) {}

  RecordLog log_;
};

}  // namespace rvt::dist
