// Schema validation of the machine-readable bench reports
// (util/bench_report.hpp): a malformed report must THROW — i.e. fail the
// bench — not silently land a broken BENCH_<ID>.json artifact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/bench_report.hpp"
#include "util/table.hpp"

namespace rvt::util {
namespace {

TEST(BenchReport, WellFormedReportValidates) {
  BenchReport report("TST", 42);
  report.workload("rendezvous", 2);
  report.metric("compiled_seconds", 0.5);
  report.note("engine", "compiled");
  util::Table table({"a", "b"});
  table.row(1, 2);
  report.table(table);
  EXPECT_NO_THROW(report.validate());
}

TEST(BenchReport, EmptyIdIsMalformed) {
  BenchReport report("", 1);
  EXPECT_THROW(report.validate(), std::runtime_error);
}

TEST(BenchReport, DuplicateKeysAreMalformed) {
  BenchReport report("TST", 1);
  report.workload("rendezvous", 2);
  report.metric("speedup", 1.0);
  report.metric("speedup", 2.0);
  EXPECT_THROW(report.validate(), std::runtime_error);

  BenchReport mixed("TST", 1);
  mixed.workload("rendezvous", 2);
  mixed.note("engine", "compiled");
  mixed.metric("engine", 3.0);  // collides across note/metric too
  EXPECT_THROW(mixed.validate(), std::runtime_error);

  BenchReport reserved("TST", 1);
  reserved.workload("rendezvous", 2);
  reserved.metric("seed", 7.0);  // collides with the built-in field
  EXPECT_THROW(reserved.validate(), std::runtime_error);
}

TEST(BenchReport, EmptyKeyAndNonFiniteMetricAreMalformed) {
  BenchReport report("TST", 1);
  report.workload("rendezvous", 2);
  report.metric("", 1.0);
  EXPECT_THROW(report.validate(), std::runtime_error);

  BenchReport nan_report("TST", 1);
  nan_report.workload("rendezvous", 2);
  nan_report.metric("speedup", std::nan(""));
  EXPECT_THROW(nan_report.validate(), std::runtime_error);

  BenchReport inf_report("TST", 1);
  inf_report.workload("rendezvous", 2);
  inf_report.metric("speedup", INFINITY);
  EXPECT_THROW(inf_report.validate(), std::runtime_error);
}

TEST(BenchReport, MalformedTableRowIsAFailure) {
  // The Table itself refuses rows whose arity disagrees with the header,
  // so a malformed row can never reach the JSON artifact silently.
  util::Table table({"a", "b", "c"});
  EXPECT_THROW(table.add_row({"1", "2"}), std::invalid_argument);
  EXPECT_THROW(table.add_row({"1", "2", "3", "4"}), std::invalid_argument);
}

TEST(BenchReport, EngineComparisonEmitsStandardizedKeys) {
  BenchReport report("TST", 9);
  report.workload("gathering", 3);
  EngineComparison c;
  c.compiled_seconds = 0.25;
  c.reference_seconds = 1.0;
  c.compiled_repeats = 5;
  c.reference_repeats = 1;
  c.engine = "compiled";
  c.threads = 2;
  c.orbit_cache_hits = 30;
  c.orbit_cache_misses = 10;
  add_engine_comparison(report, c);
  EXPECT_NO_THROW(report.validate());

  const std::string path = report.write();
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();
  for (const char* key :
       {"\"compiled_seconds\": 0.25", "\"reference_seconds\": 1",
        "\"speedup\": 4", "\"compiled_repeats\": 5",
        "\"reference_repeats\": 1", "\"engine\": \"compiled\"",
        "\"threads\": 2", "\"orbit_cache_hits\": 30",
        "\"orbit_cache_misses\": 10", "\"orbit_cache_hit_rate\": 0.75"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  std::remove(path.c_str());
}

TEST(BenchReport, WorkloadAndAgentsAreRequiredSchemaFields) {
  // A report that never declared its workload is malformed: every
  // BENCH_E*.json must record what predicate (and how many agents per
  // query) its numbers price.
  BenchReport undeclared("TST", 1);
  undeclared.metric("speedup", 1.0);
  EXPECT_THROW(undeclared.validate(), std::runtime_error);

  BenchReport empty_name("TST", 1);
  empty_name.workload("", 2);
  EXPECT_THROW(empty_name.validate(), std::runtime_error);

  BenchReport zero_agents("TST", 1);
  zero_agents.workload("gathering", 0);
  EXPECT_THROW(zero_agents.validate(), std::runtime_error);
}

TEST(BenchReport, WorkloadAndAgentsLandInTheJson) {
  BenchReport report("TST", 5);
  report.workload("gathering", 4);
  const std::string path = report.write();
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();
  for (const char* key : {"\"workload\": \"gathering\"", "\"agents\": 4"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  std::remove(path.c_str());
}

TEST(BenchReport, WorkloadAndAgentsKeysAreReserved) {
  // metric()/note() may not re-emit the schema's own keys.
  BenchReport dup_workload("TST", 1);
  dup_workload.workload("rendezvous", 2);
  dup_workload.note("workload", "again");
  EXPECT_THROW(dup_workload.validate(), std::runtime_error);

  BenchReport dup_agents("TST", 1);
  dup_agents.workload("rendezvous", 2);
  dup_agents.metric("agents", 2.0);
  EXPECT_THROW(dup_agents.validate(), std::runtime_error);
}

TEST(BenchReport, SchemaVersionIsAlwaysEmittedAndReserved) {
  BenchReport report("TSV", 3);
  report.workload("rendezvous", 2);
  const std::string path = report.write();
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"schema_version\": " +
                      std::to_string(kBenchReportSchemaVersion)),
            std::string::npos)
      << json;
  std::remove(path.c_str());

  // The key is the schema's own — metric()/note() may not shadow it.
  BenchReport dup("TSV", 3);
  dup.workload("rendezvous", 2);
  dup.metric("schema_version", 1.0);
  EXPECT_THROW(dup.validate(), std::runtime_error);
}

TEST(BenchReport, ShardsFieldIsOptionalValidatedAndReserved) {
  // Undeclared: valid, and the key is absent from the JSON — every
  // pre-distribution BENCH_E*.json stays a valid document.
  BenchReport without("TSH", 4);
  without.workload("rendezvous", 2);
  EXPECT_NO_THROW(without.validate());
  {
    const std::string path = without.write();
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_EQ(ss.str().find("\"shards\""), std::string::npos);
    std::remove(path.c_str());
  }

  // Declared: lands in the JSON; zero is rejected.
  BenchReport with("TSH", 4);
  with.workload("rendezvous", 2);
  with.shards(4);
  {
    const std::string path = with.write();
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_NE(ss.str().find("\"shards\": 4"), std::string::npos);
    std::remove(path.c_str());
  }
  BenchReport zero("TSH", 4);
  zero.workload("rendezvous", 2);
  zero.shards(0);
  EXPECT_THROW(zero.validate(), std::runtime_error);

  // Reserved key: a metric may not collide with it.
  BenchReport dup("TSH", 4);
  dup.workload("rendezvous", 2);
  dup.metric("shards", 4.0);
  EXPECT_THROW(dup.validate(), std::runtime_error);
}

TEST(BenchReport, FaultsBlockIsOptionalValidatedAndReserved) {
  // Undeclared: valid and absent — every committed fault-free
  // BENCH_E*.json stays a valid schema-v3 document without regeneration.
  BenchReport without("TFL", 6);
  without.workload("rendezvous", 2);
  EXPECT_NO_THROW(without.validate());
  {
    const std::string path = without.write();
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_EQ(ss.str().find("\"faults\""), std::string::npos);
    std::remove(path.c_str());
  }

  // Declared: the nested object lands field-for-field in the JSON.
  BenchReport with("TFL", 6);
  with.workload("rendezvous", 2);
  FaultSummary fs;
  fs.scenario = "chaos-battery";
  fs.seed = 7;
  fs.injected = 10;
  fs.retried = 3;
  fs.degraded = 1;
  fs.requeued = 8;
  fs.quarantined = 4;
  with.faults(fs);
  EXPECT_NO_THROW(with.validate());
  {
    const std::string path = with.write();
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string json = ss.str();
    for (const char* key :
         {"\"faults\": {", "\"scenario\": \"chaos-battery\"", "\"seed\": 7",
          "\"injected\": 10", "\"retried\": 3", "\"degraded\": 1",
          "\"requeued\": 8", "\"quarantined\": 4"}) {
      EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
    }
    std::remove(path.c_str());
  }

  // An anonymous fault block is malformed: numbers without a scenario
  // name cannot be attributed to an injection campaign.
  BenchReport anonymous("TFL", 6);
  anonymous.workload("rendezvous", 2);
  anonymous.faults(FaultSummary{});
  EXPECT_THROW(anonymous.validate(), std::runtime_error);

  // Reserved key: a metric/note may not collide with the block.
  BenchReport dup("TFL", 6);
  dup.workload("rendezvous", 2);
  dup.metric("faults", 1.0);
  EXPECT_THROW(dup.validate(), std::runtime_error);
}

TEST(BenchReport, ServiceBlockIsOptionalValidatedAndReserved) {
  // Undeclared: valid and absent — every committed non-service
  // BENCH_E*.json stays a valid document without regeneration.
  BenchReport without("TSV2", 8);
  without.workload("rendezvous", 2);
  EXPECT_NO_THROW(without.validate());
  {
    const std::string path = without.write();
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_EQ(ss.str().find("\"service\""), std::string::npos);
    std::remove(path.c_str());
  }

  // Declared: the nested object lands field-for-field in the JSON.
  BenchReport with("TSV2", 8);
  with.workload("rendezvous", 2);
  ServiceSummary sv;
  sv.runners = 3;
  sv.leases_granted = 9;
  sv.leases_expired = 1;
  sv.requeues = 2;
  sv.quarantined = 0;
  sv.journal_bytes_streamed = 4096;
  sv.time_to_first_sealed_shard_seconds = 0.125;
  with.service(sv);
  EXPECT_NO_THROW(with.validate());
  {
    const std::string path = with.write();
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string json = ss.str();
    for (const char* key :
         {"\"service\": {", "\"runners\": 3", "\"leases_granted\": 9",
          "\"leases_expired\": 1", "\"requeues\": 2", "\"quarantined\": 0",
          "\"journal_bytes_streamed\": 4096",
          "\"time_to_first_sealed_shard_seconds\": 0.125"}) {
      EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
    }
    std::remove(path.c_str());
  }

  // A service block with zero runners measured nothing — malformed.
  BenchReport empty_fleet("TSV2", 8);
  empty_fleet.workload("rendezvous", 2);
  empty_fleet.service(ServiceSummary{});
  EXPECT_THROW(empty_fleet.validate(), std::runtime_error);

  // Non-finite time-to-first-seal is malformed (an unseeded service run
  // must report its sentinel explicitly, not NaN).
  BenchReport nan_ttfs("TSV2", 8);
  nan_ttfs.workload("rendezvous", 2);
  ServiceSummary bad;
  bad.runners = 2;
  bad.time_to_first_sealed_shard_seconds = std::nan("");
  nan_ttfs.service(bad);
  EXPECT_THROW(nan_ttfs.validate(), std::runtime_error);

  // Reserved key: a metric/note may not collide with the block.
  BenchReport dup("TSV2", 8);
  dup.workload("rendezvous", 2);
  dup.metric("service", 1.0);
  EXPECT_THROW(dup.validate(), std::runtime_error);
}

TEST(BenchReport, RecoveryBlockIsOptionalValidatedAndReserved) {
  // Undeclared: valid and absent — every committed restart-free
  // BENCH_E*.json stays a valid document without regeneration.
  BenchReport without("TRC", 16);
  without.workload("rendezvous", 2);
  EXPECT_NO_THROW(without.validate());
  {
    const std::string path = without.write();
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_EQ(ss.str().find("\"recovery\""), std::string::npos);
    std::remove(path.c_str());
  }

  // Declared: the nested object lands field-for-field in the JSON.
  BenchReport with("TRC", 16);
  with.workload("rendezvous", 2);
  RecoverySummary rc;
  rc.resumes = 3;
  rc.ledger_records_replayed = 41;
  rc.ledger_torn_bytes_truncated = 13;
  rc.leases_regranted = 5;
  rc.stale_tokens_fenced = 2;
  rc.worker_reconnects = 7;
  with.recovery(rc);
  EXPECT_NO_THROW(with.validate());
  {
    const std::string path = with.write();
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string json = ss.str();
    for (const char* key :
         {"\"recovery\": {", "\"resumes\": 3",
          "\"ledger_records_replayed\": 41",
          "\"ledger_torn_bytes_truncated\": 13", "\"leases_regranted\": 5",
          "\"stale_tokens_fenced\": 2", "\"worker_reconnects\": 7"}) {
      EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
    }
    std::remove(path.c_str());
  }

  // A recovery block with zero resumes measured nothing — malformed.
  BenchReport no_resumes("TRC", 16);
  no_resumes.workload("rendezvous", 2);
  no_resumes.recovery(RecoverySummary{});
  EXPECT_THROW(no_resumes.validate(), std::runtime_error);

  // Reserved key: a metric/note may not collide with the block.
  BenchReport dup("TRC", 16);
  dup.workload("rendezvous", 2);
  dup.metric("recovery", 1.0);
  EXPECT_THROW(dup.validate(), std::runtime_error);
}

TEST(BenchReport, AddingComparisonTwiceIsCaughtAsDuplicate) {
  BenchReport report("TST", 9);
  report.workload("rendezvous", 2);
  EngineComparison c;
  add_engine_comparison(report, c);
  add_engine_comparison(report, c);
  EXPECT_THROW(report.validate(), std::runtime_error);
}

TEST(BenchReport, JsonEscapeUsesShortFormsForQuoteBackslashAndNewline) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te\x01\xc3\xa9"),
            "a\\\"b\\\\c\\nd\\u0009e\\u0001\xc3\xa9");
}

}  // namespace
}  // namespace rvt::util
