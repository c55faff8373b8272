#include "util/bench_report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

namespace rvt::util {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string quote(const std::string& s) { return '"' + json_escape(s) + '"'; }

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_string_array(std::ostream& os,
                        const std::vector<std::string>& cells) {
  os << "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << (i ? ", " : "") << quote(cells[i]);
  }
  os << "]";
}

}  // namespace

BenchReport::BenchReport(std::string id, std::uint64_t seed)
    : id_(std::move(id)), seed_(seed) {}

void BenchReport::workload(const std::string& name, std::uint64_t agents) {
  workload_ = name;
  agents_ = agents;
}

void BenchReport::shards(std::uint64_t count) {
  has_shards_ = true;
  shards_ = count;
}

void BenchReport::faults(const FaultSummary& f) {
  has_faults_ = true;
  faults_ = f;
}

void BenchReport::service(const ServiceSummary& s) {
  has_service_ = true;
  service_ = s;
}

void BenchReport::recovery(const RecoverySummary& r) {
  has_recovery_ = true;
  recovery_ = r;
}

void BenchReport::observability(const ObservabilitySummary& o) {
  has_observability_ = true;
  observability_ = o;
}

void BenchReport::metric(const std::string& key, double value) {
  numbers_.emplace_back(key, value);
}

void BenchReport::note(const std::string& key, const std::string& value) {
  strings_.emplace_back(key, value);
}

void BenchReport::validate() const {
  if (id_.empty()) {
    throw std::runtime_error("BenchReport: empty id");
  }
  if (workload_.empty() || agents_ == 0) {
    throw std::runtime_error(
        "BenchReport " + id_ +
        ": workload() must declare the measured predicate and its agent "
        "count (the shared schema's \"workload\"/\"agents\" fields)");
  }
  if (has_shards_ && shards_ == 0) {
    throw std::runtime_error(
        "BenchReport " + id_ +
        ": shards() must declare a positive shard count (omit the call "
        "for non-distributed runs)");
  }
  if (has_faults_ && faults_.scenario.empty()) {
    throw std::runtime_error(
        "BenchReport " + id_ +
        ": faults() must name its chaos scenario (omit the call for "
        "fault-free runs)");
  }
  if (has_service_ && service_.runners == 0) {
    throw std::runtime_error(
        "BenchReport " + id_ +
        ": service() must report at least one runner (omit the call for "
        "non-service runs)");
  }
  if (has_service_ &&
      !std::isfinite(service_.time_to_first_sealed_shard_seconds)) {
    throw std::runtime_error(
        "BenchReport " + id_ +
        ": service() time_to_first_sealed_shard_seconds is not finite");
  }
  if (has_recovery_ && recovery_.resumes == 0) {
    throw std::runtime_error(
        "BenchReport " + id_ +
        ": recovery() must report at least one coordinator resume (omit "
        "the call for runs without restarts)");
  }
  if (has_observability_) {
    if (observability_.results == 0) {
      throw std::runtime_error(
          "BenchReport " + id_ +
          ": observability() must report at least one enumeration result "
          "(omit the call for runs that observed nothing)");
    }
    if (!std::isfinite(observability_.time_to_first_survivor_ms) ||
        !std::isfinite(observability_.inter_result_delay_p50_ms) ||
        !std::isfinite(observability_.inter_result_delay_p99_ms)) {
      throw std::runtime_error(
          "BenchReport " + id_ +
          ": observability() delay fields must be finite");
    }
  }
  std::unordered_set<std::string> keys{
      "id",      "seed",     "columns",       "rows",
      "workload", "agents",  "shards",        "faults",
      "service", "recovery", "observability", "schema_version"};
  const auto claim = [&](const std::string& key) {
    if (key.empty()) {
      throw std::runtime_error("BenchReport " + id_ + ": empty key");
    }
    if (!keys.insert(key).second) {
      throw std::runtime_error("BenchReport " + id_ + ": duplicate key '" +
                               key + "'");
    }
  };
  for (const auto& [k, v] : strings_) claim(k);
  for (const auto& [k, v] : numbers_) {
    claim(k);
    if (!std::isfinite(v)) {
      throw std::runtime_error("BenchReport " + id_ + ": metric '" + k +
                               "' is not finite");
    }
  }
  if (table_ != nullptr) {
    const std::size_t width = table_->header().size();
    for (std::size_t i = 0; i < table_->row_data().size(); ++i) {
      if (table_->row_data()[i].size() != width) {
        throw std::runtime_error(
            "BenchReport " + id_ + ": row " + std::to_string(i) + " has " +
            std::to_string(table_->row_data()[i].size()) + " cells, header " +
            std::to_string(width));
      }
    }
  }
}

std::string BenchReport::write() const {
  validate();
  const std::string path = "BENCH_" + id_ + ".json";
  std::ofstream os(path);
  os << "{\n  \"id\": " << quote(id_) << ",\n  \"seed\": " << seed_;
  os << ",\n  \"schema_version\": " << kBenchReportSchemaVersion;
  os << ",\n  \"workload\": " << quote(workload_)
     << ",\n  \"agents\": " << agents_;
  if (has_shards_) os << ",\n  \"shards\": " << shards_;
  if (has_faults_) {
    os << ",\n  \"faults\": {\n    \"scenario\": " << quote(faults_.scenario)
       << ",\n    \"seed\": " << faults_.seed
       << ",\n    \"injected\": " << faults_.injected
       << ",\n    \"retried\": " << faults_.retried
       << ",\n    \"degraded\": " << faults_.degraded
       << ",\n    \"requeued\": " << faults_.requeued
       << ",\n    \"quarantined\": " << faults_.quarantined << "\n  }";
  }
  if (has_service_) {
    os << ",\n  \"service\": {\n    \"runners\": " << service_.runners
       << ",\n    \"leases_granted\": " << service_.leases_granted
       << ",\n    \"leases_expired\": " << service_.leases_expired
       << ",\n    \"requeues\": " << service_.requeues
       << ",\n    \"quarantined\": " << service_.quarantined
       << ",\n    \"journal_bytes_streamed\": "
       << service_.journal_bytes_streamed
       << ",\n    \"time_to_first_sealed_shard_seconds\": "
       << format_number(service_.time_to_first_sealed_shard_seconds)
       << "\n  }";
  }
  if (has_recovery_) {
    os << ",\n  \"recovery\": {\n    \"resumes\": " << recovery_.resumes
       << ",\n    \"ledger_records_replayed\": "
       << recovery_.ledger_records_replayed
       << ",\n    \"ledger_torn_bytes_truncated\": "
       << recovery_.ledger_torn_bytes_truncated
       << ",\n    \"leases_regranted\": " << recovery_.leases_regranted
       << ",\n    \"stale_tokens_fenced\": " << recovery_.stale_tokens_fenced
       << ",\n    \"worker_reconnects\": " << recovery_.worker_reconnects
       << "\n  }";
  }
  if (has_observability_) {
    os << ",\n  \"observability\": {\n    \"time_to_first_survivor_ms\": "
       << format_number(observability_.time_to_first_survivor_ms)
       << ",\n    \"inter_result_delay_p50_ms\": "
       << format_number(observability_.inter_result_delay_p50_ms)
       << ",\n    \"inter_result_delay_p99_ms\": "
       << format_number(observability_.inter_result_delay_p99_ms)
       << ",\n    \"results\": " << observability_.results
       << ",\n    \"survivors\": " << observability_.survivors
       << ",\n    \"trace_bytes\": " << observability_.trace_bytes
       << ",\n    \"dropped_events\": " << observability_.dropped_events
       << "\n  }";
  }
  for (const auto& [k, v] : strings_) {
    os << ",\n  " << quote(k) << ": " << quote(v);
  }
  for (const auto& [k, v] : numbers_) {
    os << ",\n  " << quote(k) << ": " << format_number(v);
  }
  if (table_ != nullptr) {
    os << ",\n  \"columns\": ";
    write_string_array(os, table_->header());
    os << ",\n  \"rows\": [";
    const auto& rows = table_->row_data();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      os << (i ? ",\n    " : "\n    ");
      write_string_array(os, rows[i]);
    }
    os << "\n  ]";
  }
  os << "\n}\n";
  os.flush();
  if (!os.good()) {
    throw std::runtime_error("BenchReport: cannot write " + path);
  }
  return path;
}

void add_engine_comparison(BenchReport& report, const EngineComparison& c) {
  report.metric("compiled_seconds", c.compiled_seconds);
  report.metric("reference_seconds", c.reference_seconds);
  report.metric("speedup", c.compiled_seconds > 0
                               ? c.reference_seconds / c.compiled_seconds
                               : 0.0);
  report.metric("compiled_repeats", c.compiled_repeats);
  report.metric("reference_repeats", c.reference_repeats);
  report.note("engine", c.engine);
  report.metric("threads", c.threads);
  report.metric("orbit_cache_hits", static_cast<double>(c.orbit_cache_hits));
  report.metric("orbit_cache_misses",
                static_cast<double>(c.orbit_cache_misses));
  const std::uint64_t total = c.orbit_cache_hits + c.orbit_cache_misses;
  report.metric("orbit_cache_hit_rate",
                total == 0 ? 0.0
                           : static_cast<double>(c.orbit_cache_hits) /
                                 static_cast<double>(total));
}

}  // namespace rvt::util
