#include "dist/journal.hpp"

namespace rvt::dist {

namespace {

constexpr LogFormat kJournalLog{"journal", WireKind::kJournal,
                                0x52565452 /* "RVTR" */, /*durable=*/false};
constexpr std::uint32_t kTypeResult = 1;
constexpr std::uint32_t kTypeDone = 2;

}  // namespace

JournalHeader journal_header(const ShardPlan& plan, const ShardSpec& spec) {
  return {spec.id, plan.fingerprint, spec.begin, spec.end};
}

std::string journal_path(const std::string& dir, const ShardSpec& spec) {
  return dir + "/shard-" + shard_id_hex(spec.id) + ".journal";
}

std::optional<JournalState> read_journal(const std::string& path) {
  const std::optional<LogScan> scan = scan_log(path, kJournalLog);
  if (!scan.has_value()) return std::nullopt;
  const LogBody& b = scan->body;
  JournalState st;
  st.header = {{b[0], b[1]}, {b[2], b[3]}, b[4], b[5]};
  if (st.header.end < st.header.begin) {
    throw SerializeError("journal: corrupt preamble");
  }
  st.next_index = st.header.begin;
  // The valid prefix also ends at the first out-of-order or post-DONE
  // record, and at a DONE whose aggregate disagrees with the records it
  // seals — that is damage, not truth.
  std::size_t kept = 0;
  for (const LogRecord& r : scan->records) {
    if (r.type == kTypeResult) {
      if (r.a != st.next_index || r.a >= st.header.end) break;
      st.sum += r.b;
      ++st.next_index;
    } else if (r.type == kTypeDone) {
      if (r.a != st.header.end || st.next_index != st.header.end ||
          r.b != st.sum) {
        break;
      }
      st.complete = true;
      ++kept;
      break;
    } else {
      break;
    }
    ++kept;
  }
  st.valid_bytes = log_bytes(kept);
  return st;
}

std::optional<JournalState> read_bound_journal(const std::string& path,
                                               const JournalHeader& header) {
  std::optional<JournalState> state;
  try {
    state = read_journal(path);
  } catch (const SerializeError&) {
    return std::nullopt;
  }
  if (state.has_value() && state->header != header) return std::nullopt;
  return state;
}

JournalWriter JournalWriter::create(const std::string& path,
                                    const JournalHeader& header) {
  const LogBody body{header.shard_id.hi,    header.shard_id.lo,
                     header.fingerprint.hi, header.fingerprint.lo,
                     header.begin,          header.end};
  return JournalWriter(RecordLog::create(path, kJournalLog, body), header,
                       header.begin, 0);
}

JournalWriter JournalWriter::resume(const std::string& path,
                                    const JournalHeader& header,
                                    const JournalState& state) {
  if (state.complete) {
    throw SerializeError("journal: resume on a sealed journal");
  }
  if (state.header != header) {
    throw SerializeError("journal: resume header mismatch");
  }
  return JournalWriter(RecordLog::resume(path, kJournalLog, state.valid_bytes),
                       header, state.next_index, state.sum);
}

void JournalWriter::record(std::uint64_t index, std::uint64_t value) {
  if (finished_) {
    throw SerializeError("journal: record after finish");
  }
  if (index != next_ || index >= header_.end) {
    throw SerializeError("journal: out-of-order record");
  }
  // A crash here tears the record; a resume recomputes only this index on.
  log_.append("journal.append", kTypeResult, index, value);
  sum_ += value;
  ++next_;
}

void JournalWriter::finish(std::uint64_t total) {
  if (finished_) {
    throw SerializeError("journal: finish twice");
  }
  if (next_ != header_.end) {
    throw SerializeError("journal: finish before every index committed");
  }
  if (total != sum_) {
    throw SerializeError("journal: aggregate disagrees with records");
  }
  // A crash here loses the seal with every record committed: a resume
  // recomputes NOTHING (next_index == end) and only re-seals.
  log_.append("journal.seal", kTypeDone, header_.end, total);
  finished_ = true;
}

}  // namespace rvt::dist
