#include "dist/ledger.hpp"

namespace rvt::dist {

namespace {

constexpr LogFormat kLedgerLog{"ledger", WireKind::kLedger,
                               0x4C545652 /* "RVTL" */, /*durable=*/true};

bool known_event(std::uint32_t e) {
  return e >= static_cast<std::uint32_t>(LedgerEvent::kEpoch) &&
         e <= static_cast<std::uint32_t>(LedgerEvent::kCheckpoint);
}

}  // namespace

std::string ledger_path(const std::string& dir) { return dir + "/run.ledger"; }

std::optional<LedgerState> read_ledger(const std::string& path) {
  const std::optional<LogScan> scan = scan_log(path, kLedgerLog);
  if (!scan.has_value()) return std::nullopt;
  LedgerState st;
  st.header.fingerprint = {scan->body[0], scan->body[1]};
  st.header.shard_count = scan->body[2];
  st.file_bytes = scan->file_bytes;
  // No ordering rule — a ledger is an event log, not an index stream.
  for (const LogRecord& r : scan->records) {
    if (!known_event(r.type)) break;
    st.records.push_back({static_cast<LedgerEvent>(r.type), r.a, r.b});
  }
  st.valid_bytes = log_bytes(st.records.size());
  return st;
}

LedgerWriter LedgerWriter::create(const std::string& path,
                                  const LedgerHeader& header) {
  return LedgerWriter(RecordLog::create(
      path, kLedgerLog,
      {header.fingerprint.hi, header.fingerprint.lo, header.shard_count, 0, 0,
       0}));
}

LedgerWriter LedgerWriter::resume(const std::string& path,
                                  const LedgerHeader& header,
                                  const LedgerState& state) {
  if (state.header != header) {
    throw SerializeError("ledger: resume header mismatch");
  }
  return LedgerWriter(RecordLog::resume(path, kLedgerLog, state.valid_bytes));
}

void LedgerWriter::append(const LedgerRecord& rec) {
  log_.append("ledger.append", static_cast<std::uint32_t>(rec.event), rec.a,
              rec.b);
}

}  // namespace rvt::dist
