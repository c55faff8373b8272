#include "dist/record_log.hpp"

#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "util/failpoint.hpp"

namespace rvt::dist {

namespace {

/// fnv1a64 over every byte of `v` before its trailing checksum word.
template <class T>
std::uint64_t checksum_of(const T& v) {
  return fnv1a64({reinterpret_cast<const std::uint8_t*>(&v),
                  sizeof(T) - sizeof(std::uint64_t)});
}

std::string prefixed(const LogFormat& format, const std::string& what) {
  return std::string(format.label) + ": " + what;
}

}  // namespace

std::optional<LogScan> scan_log(const std::string& path,
                                const LogFormat& format) {
  const auto bytes = read_file(path);
  if (!bytes.has_value()) return std::nullopt;
  if (bytes->size() < sizeof(LogPreamble)) {
    throw SerializeError(prefixed(format, "file shorter than preamble"));
  }
  LogPreamble p;
  std::memcpy(&p, bytes->data(), sizeof(p));
  if (p.magic != kWireMagic ||
      p.kind != static_cast<std::uint16_t>(format.kind)) {
    throw SerializeError(prefixed(format, "bad preamble magic/kind"));
  }
  if (p.version != kWireVersion) {
    throw SerializeError(prefixed(
        format, "format version " + std::to_string(p.version) +
                    " (this build speaks " + std::to_string(kWireVersion) +
                    ")"));
  }
  if (p.checksum != checksum_of(p)) {
    throw SerializeError(prefixed(format, "corrupt preamble"));
  }
  LogScan scan;
  scan.body = p.body;
  scan.file_bytes = bytes->size();
  for (std::size_t pos = sizeof(LogPreamble);
       bytes->size() - pos >= sizeof(LogRecord); pos += sizeof(LogRecord)) {
    LogRecord r;
    std::memcpy(&r, bytes->data() + pos, sizeof(r));
    if (r.magic != format.record_magic || r.checksum != checksum_of(r)) break;
    scan.records.push_back(r);
  }
  return scan;
}

RecordLog::RecordLog(const std::string& path, const LogFormat& format,
                     const char* mode)
    : path_(path), format_(format), file_(std::fopen(path.c_str(), mode)) {}

RecordLog RecordLog::create(const std::string& path, const LogFormat& format,
                            const LogBody& body) {
  RecordLog log(path, format, "wb");
  if (log.file_ == nullptr) {
    throw SerializeError(prefixed(format, "cannot create " + path));
  }
  LogPreamble p;
  p.kind = static_cast<std::uint16_t>(format.kind);
  p.body = body;
  p.checksum = checksum_of(p);
  if (std::fwrite(&p, sizeof(p), 1, log.file_.get()) != 1 ||
      std::fflush(log.file_.get()) != 0 ||
      (format.durable && ::fsync(fileno(log.file_.get())) != 0)) {
    throw SerializeError(prefixed(format, "cannot write preamble to " + path));
  }
  return log;
}

RecordLog RecordLog::resume(const std::string& path, const LogFormat& format,
                            std::uint64_t valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    throw SerializeError(prefixed(format, "cannot truncate " + path));
  }
  RecordLog log(path, format, "ab");
  if (log.file_ == nullptr) {
    throw SerializeError(prefixed(format, "cannot reopen " + path));
  }
  return log;
}

void RecordLog::append(std::string_view site, std::uint32_t type,
                       std::uint64_t a, std::uint64_t b) {
  LogRecord r;
  r.magic = format_.record_magic;
  r.type = type;
  r.a = a;
  r.b = b;
  r.checksum = checksum_of(r);
  switch (util::failpoint(site)) {
    case util::FaultAction::kCrash:
      // Die with a PARTIAL record on disk — what a SIGKILL between fwrite
      // and fflush (or a power loss before fsync) can leave.
      std::fwrite(&r, 1, 13, file_.get());
      std::fflush(file_.get());
      util::failpoint_crash(site);
    case util::FaultAction::kError:
      throw SerializeError(prefixed(
          format_, "injected fault at " + std::string(site) + " " + path_));
    case util::FaultAction::kNone:
      break;
  }
  // A durable log fsyncs, not just fflushes: a journal record that dies
  // in page cache costs recomputing one index, a ledger record that dies
  // there could un-grant a lease some worker already holds.
  if (std::fwrite(&r, sizeof(r), 1, file_.get()) != 1 ||
      std::fflush(file_.get()) != 0 ||
      (format_.durable && ::fsync(fileno(file_.get())) != 0)) {
    throw SerializeError(prefixed(format_, "cannot append to " + path_));
  }
}

}  // namespace rvt::dist
