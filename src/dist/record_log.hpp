// The append-only record log under the shard journal (dist/journal) and
// the run ledger (dist/ledger):
//
//     [ 64-byte preamble | 32-byte record | 32-byte record | ... ]
//
// The preamble holds the wire magic and version, the log's WireKind, 48
// bytes of body binding the log to what it records (the typed layer
// decides what they mean) and an fnv1a64 of the preceding 56 bytes. A
// record holds the log's record magic, a type, two operands and an
// fnv1a64 of its first 24 bytes. Both are raw-copied (padding-free,
// little-endian host asserted in serialize.cpp) and their offsets are
// frozen: readers outside this library decode the bytes themselves.
//
// Scan: a short, foreign or checksum-broken preamble throws
// SerializeError (the log is unusable); records are taken up to the
// first truncated, bad-magic or checksum-broken one, and the typed
// layer's own rule may end the valid prefix earlier. Resume truncates
// the file to the valid prefix, so it never holds bytes a scan rejected.
// Create and append write, fflush, and fsync when the log is durable; a
// process killed mid-append leaves at most a torn tail, which the next
// scan drops. Every append is a failpoint site: `err` throws, `crash`
// writes 13 bytes of the record and dies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/serialize.hpp"

namespace rvt::dist {

/// The preamble's 48 bytes of binding, as six words.
using LogBody = std::array<std::uint64_t, 6>;

struct LogPreamble {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t kind = 0;
  LogBody body{};
  std::uint64_t checksum = 0;  ///< fnv1a64 over the preceding 56 bytes
};

struct LogRecord {
  std::uint32_t magic = 0;
  std::uint32_t type = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t checksum = 0;  ///< fnv1a64 over the preceding 24 bytes
};

#define RVT_CHECK_OFFSET(T, off, field) \
  static_assert(offsetof(T, field) == (off), #T "::" #field " moved")
#define RVT_CHECK_SIZE(T, size) \
  static_assert(sizeof(T) == (size), #T " changed size")
RVT_CHECK_OFFSET(LogPreamble, 0x00, magic);
RVT_CHECK_OFFSET(LogPreamble, 0x04, version);
RVT_CHECK_OFFSET(LogPreamble, 0x06, kind);
RVT_CHECK_OFFSET(LogPreamble, 0x08, body);
RVT_CHECK_OFFSET(LogPreamble, 0x38, checksum);
RVT_CHECK_SIZE(LogPreamble, 0x40);
RVT_CHECK_OFFSET(LogRecord, 0x00, magic);
RVT_CHECK_OFFSET(LogRecord, 0x04, type);
RVT_CHECK_OFFSET(LogRecord, 0x08, a);
RVT_CHECK_OFFSET(LogRecord, 0x10, b);
RVT_CHECK_OFFSET(LogRecord, 0x18, checksum);
RVT_CHECK_SIZE(LogRecord, 0x20);

/// What tells one kind of log from another.
struct LogFormat {
  const char* label;           ///< error-message prefix ("journal")
  WireKind kind;               ///< the preamble's kind
  std::uint32_t record_magic;  ///< every record's first word
  bool durable;                ///< fsync the preamble and every record
};

/// File size of a log holding the preamble and `records` records.
constexpr std::uint64_t log_bytes(std::size_t records) {
  return sizeof(LogPreamble) + records * sizeof(LogRecord);
}

/// A scanned log's preamble body and records (see Scan above).
struct LogScan {
  LogBody body{};
  std::vector<LogRecord> records;
  std::uint64_t file_bytes = 0;  ///< actual size (torn tail included)
};

/// Scans `path`; nullopt if the file does not exist.
std::optional<LogScan> scan_log(const std::string& path,
                                const LogFormat& format);

/// Appender over one open log file.
class RecordLog {
 public:
  /// Creates/overwrites `path` with a fresh preamble binding `body`.
  static RecordLog create(const std::string& path, const LogFormat& format,
                          const LogBody& body);
  /// Truncates `path` to `valid_bytes` and opens it for appending.
  static RecordLog resume(const std::string& path, const LogFormat& format,
                          std::uint64_t valid_bytes);

  /// Appends one record; `site` is its failpoint site name.
  void append(std::string_view site, std::uint32_t type, std::uint64_t a,
              std::uint64_t b);

 private:
  RecordLog(const std::string& path, const LogFormat& format,
            const char* mode);

  std::string path_;
  LogFormat format_;
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, FileCloser> file_;
};

}  // namespace rvt::dist
