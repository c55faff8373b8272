// The distributed-enumeration subsystem: plans, journals, shard runs,
// merges — and above all RESUMABILITY: a shard killed mid-run (journal
// truncated mid-record) must complete on rerun without recomputing one
// committed index, and the merged totals must be bit-identical to a
// single-process sweep however the index space was cut.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "dist/merge.hpp"
#include "dist/runner.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "sim/orbit_cache.hpp"
#include "symmetrizable_reference.hpp"
#include "tree/builders.hpp"

namespace rvt {
namespace {

/// Scratch directory per test, removed afterwards.
class DistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(
               "dist-test-" +
               std::string(
                   ::testing::UnitTest::GetInstance()->current_test_info()
                       ->name()) +
               "-" + std::to_string(static_cast<unsigned>(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& leaf) const { return dir_ + "/" + leaf; }
  std::string dir_;
};

// ---- shard plans ----------------------------------------------------------

TEST_F(DistTest, PlanIsDeterministicAndContentAddressed) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan p1 = dist::make_shard_plan(*w, 4);
  const dist::ShardPlan p2 = dist::make_shard_plan(*w, 4);
  ASSERT_EQ(p1.shards.size(), 4u);
  EXPECT_EQ(p1.fingerprint, p2.fingerprint);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(p1.shards[i].id, p2.shards[i].id) << i;
  }
  // Contiguous partition of [0, count).
  std::uint64_t expect = 0;
  for (const auto& s : p1.shards) {
    EXPECT_EQ(s.begin, expect);
    EXPECT_LT(s.begin, s.end);
    expect = s.end;
  }
  EXPECT_EQ(expect, p1.count);
  EXPECT_EQ(p1.count, w->count());

  // Different grid content -> different fingerprint AND different shard
  // ids (ids hash the fingerprint).
  const auto w2 = dist::EnumWorkload::parse("e10:7");
  const dist::ShardPlan q = dist::make_shard_plan(*w2, 4);
  EXPECT_FALSE(q.fingerprint == p1.fingerprint);
  EXPECT_FALSE(q.shards[0].id == p1.shards[0].id);
  // Different partition of the same workload -> same fingerprint,
  // different ids.
  const dist::ShardPlan r = dist::make_shard_plan(*w, 2);
  EXPECT_EQ(r.fingerprint, p1.fingerprint);
  EXPECT_FALSE(r.shards[0].id == p1.shards[0].id);
}

TEST_F(DistTest, PlanFileRoundTripAndTamperRejection) {
  const auto w = dist::EnumWorkload::parse("e10:5");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 3);
  const std::string p = path("plan.bin");
  dist::write_plan(p, plan);
  const dist::ShardPlan back = dist::load_plan(p);
  EXPECT_EQ(back.workload_spec, plan.workload_spec);
  EXPECT_EQ(back.count, plan.count);
  EXPECT_EQ(back.max_rounds, plan.max_rounds);
  EXPECT_EQ(back.fingerprint, plan.fingerprint);
  ASSERT_EQ(back.shards.size(), plan.shards.size());
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    EXPECT_EQ(back.shards[i].id, plan.shards[i].id);
  }

  // A flipped byte anywhere fails the frame checksum.
  auto bytes = *dist::read_file(p);
  bytes[bytes.size() - 3] ^= 0x40;
  ASSERT_TRUE(dist::write_file_atomic(p, bytes));
  EXPECT_THROW(dist::load_plan(p), dist::SerializeError);

  // Structural tampering behind a VALID frame: forge a shard id and
  // re-frame — deserialize_plan must re-derive and refuse.
  dist::ShardPlan forged = plan;
  forged.shards[1].id.lo ^= 1;
  const auto framed = dist::frame_payload(dist::WireKind::kShardPlan,
                                          dist::serialize_plan(forged));
  ASSERT_TRUE(dist::write_file_atomic(p, framed));
  EXPECT_THROW(dist::load_plan(p), dist::SerializeError);

  EXPECT_THROW(dist::load_plan(path("absent.bin")), dist::SerializeError);
}

// ---- journals -------------------------------------------------------------

dist::JournalHeader test_header(std::uint64_t begin, std::uint64_t end) {
  dist::JournalHeader h;
  h.shard_id = {0x1111, 0x2222};
  h.fingerprint = {0x3333, 0x4444};
  h.begin = begin;
  h.end = end;
  return h;
}

TEST_F(DistTest, JournalRoundTripSealAndDoubleCompletion) {
  const std::string p = path("shard.journal");
  const dist::JournalHeader h = test_header(10, 15);
  {
    auto w = dist::JournalWriter::create(p, h);
    for (std::uint64_t i = 10; i < 15; ++i) w.record(i, i * 100);
    EXPECT_THROW(w.record(15, 0), dist::SerializeError);  // past end
    w.finish(w.sum());
    EXPECT_THROW(w.finish(w.sum()), dist::SerializeError);  // seal twice
  }
  const auto st = dist::read_journal(p);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->complete);
  EXPECT_EQ(st->next_index, 15u);
  EXPECT_EQ(st->sum, (10u + 11 + 12 + 13 + 14) * 100);
  EXPECT_EQ(st->header.begin, 10u);
  EXPECT_EQ(st->header.shard_id, h.shard_id);
  // Resuming a sealed journal is refused — the caller's double-completion
  // branch.
  EXPECT_THROW(dist::JournalWriter::resume(p, h, *st),
               dist::SerializeError);
  EXPECT_FALSE(dist::read_journal(path("absent.journal")).has_value());
}

TEST_F(DistTest, JournalScanStopsAtTornOrCorruptTail) {
  const std::string p = path("shard.journal");
  const dist::JournalHeader h = test_header(0, 8);
  {
    auto w = dist::JournalWriter::create(p, h);
    for (std::uint64_t i = 0; i < 6; ++i) w.record(i, 7);
  }  // NOT sealed: simulates a killed shard
  const std::uint64_t full = std::filesystem::file_size(p);
  ASSERT_EQ(full, 64u + 6 * 32u);  // preamble + 6 records

  // Torn tail: cut mid-record. The scan keeps the 4 whole records.
  std::filesystem::resize_file(p, 64 + 4 * 32 + 13);
  auto st = dist::read_journal(p);
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->complete);
  EXPECT_EQ(st->next_index, 4u);
  EXPECT_EQ(st->sum, 4u * 7);
  EXPECT_EQ(st->valid_bytes, 64u + 4 * 32);

  // Corrupt a MIDDLE record: everything after it is untrusted.
  {
    auto bytes = *dist::read_file(p);
    bytes[64 + 1 * 32 + 20] ^= 0xff;
    ASSERT_TRUE(dist::write_file_atomic(p, bytes));
  }
  st = dist::read_journal(p);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->next_index, 1u);
  EXPECT_EQ(st->valid_bytes, 64u + 1 * 32);

  // A corrupt preamble is unusable (recreate, says run_shard).
  std::filesystem::resize_file(p, 40);
  EXPECT_THROW(dist::read_journal(p), dist::SerializeError);
}

TEST_F(DistTest, JournalRefusesForeignVersion) {
  const std::string p = path("shard.journal");
  { dist::JournalWriter::create(p, test_header(0, 4)).record(0, 1); }
  auto bytes = *dist::read_file(p);
  bytes[4] ^= 0x01;  // preamble version u16 at offset 4
  ASSERT_TRUE(dist::write_file_atomic(p, bytes));
  EXPECT_THROW(dist::read_journal(p), dist::SerializeError);
}

// ---- shard runs + merge ---------------------------------------------------

/// Single-process reference total of a workload.
std::uint64_t single_process_total(const dist::EnumWorkload& w) {
  sim::EnumerationContext ctx(w.grids(), w.max_rounds(), nullptr);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < w.count(); ++i) {
    total += w.defeats(ctx, i);
  }
  return total;
}

TEST_F(DistTest, ShardedRunMergesBitIdenticalToSingleProcess) {
  const auto w = dist::EnumWorkload::parse("e10:5");
  const std::uint64_t want = single_process_total(*w);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 3);
  // Shards share one fs cache tier, like processes on a shared mount.
  dist::FsOrbitStore tier(path("cache"));
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    sim::OrbitCache cache;
    cache.set_backing(&tier);
    const auto stats =
        dist::run_shard(*w, plan, s, path("journals"), &cache);
    EXPECT_FALSE(stats.already_complete);
    EXPECT_EQ(stats.computed, plan.shards[s].end - plan.shards[s].begin);
  }
  const dist::MergeResult merged =
      dist::merge_journals(plan, path("journals"));
  EXPECT_EQ(merged.total, want);
  EXPECT_EQ(merged.indices, w->count());

  // Double completion: a rerun detects the sealed journal and computes
  // NOTHING.
  const auto rerun = dist::run_shard(*w, plan, 0, path("journals"));
  EXPECT_TRUE(rerun.already_complete);
  EXPECT_EQ(rerun.computed, 0u);
}

TEST_F(DistTest, ResumeAfterKillRecomputesOnlyUncommittedIndices) {
  const auto w = dist::EnumWorkload::parse("e10:5");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  const dist::ShardSpec& spec = plan.shards[0];
  const std::uint64_t width = spec.end - spec.begin;
  ASSERT_GT(width, 10u);

  // Full run, note the sealed sum.
  const auto first = dist::run_shard(*w, plan, 0, path("journals"));
  EXPECT_EQ(first.computed, width);
  const std::string jpath = dist::journal_path(path("journals"), spec);

  // Kill simulation: truncate MID-RECORD after 7 committed indices (the
  // torn tail is exactly what a SIGKILL mid-append leaves).
  std::filesystem::resize_file(jpath, 64 + 7 * 32 + 11);

  const auto resumed = dist::run_shard(*w, plan, 0, path("journals"));
  EXPECT_FALSE(resumed.already_complete);
  EXPECT_EQ(resumed.committed_before, 7u);       // nothing before recomputed
  EXPECT_EQ(resumed.computed, width - 7);        // only the gap
  EXPECT_EQ(resumed.sum, first.sum);             // same aggregate

  // And the journal is sealed again: reruns detect double completion,
  // merges accept it.
  const auto rerun = dist::run_shard(*w, plan, 0, path("journals"));
  EXPECT_TRUE(rerun.already_complete);
  const auto st = dist::read_journal(jpath);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->complete);
  EXPECT_EQ(st->sum, first.sum);
}

TEST_F(DistTest, MergeRefusesPartialForeignOrMissingJournals) {
  const auto w = dist::EnumWorkload::parse("e10:4");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  // Nothing run yet: missing journals.
  EXPECT_THROW(dist::merge_journals(plan, path("journals")),
               dist::SerializeError);
  // Shard 0 complete, shard 1 missing.
  dist::run_shard(*w, plan, 0, path("journals"));
  EXPECT_THROW(dist::merge_journals(plan, path("journals")),
               dist::SerializeError);
  // Shard 1 present but UNSEALED (simulated kill): still refused.
  dist::run_shard(*w, plan, 1, path("journals"));
  const std::string j1 = dist::journal_path(path("journals"), plan.shards[1]);
  const std::uint64_t sealed_size = std::filesystem::file_size(j1);
  std::filesystem::resize_file(j1, sealed_size - 32);  // drop the seal
  EXPECT_THROW(dist::merge_journals(plan, path("journals")),
               dist::SerializeError);
  // Reseal by rerun; merge now equals the single-process total.
  dist::run_shard(*w, plan, 1, path("journals"));
  const auto merged = dist::merge_journals(plan, path("journals"));
  EXPECT_EQ(merged.total, single_process_total(*w));

  // A journal from a DIFFERENT plan under the expected filename is
  // rejected by the preamble binding.
  const auto w2 = dist::EnumWorkload::parse("e10:5");
  const dist::ShardPlan plan2 = dist::make_shard_plan(*w2, 2);
  dist::run_shard(*w2, plan2, 0, path("journals2"));
  std::filesystem::copy_file(
      dist::journal_path(path("journals2"), plan2.shards[0]),
      dist::journal_path(path("journals"), plan.shards[0]),
      std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(dist::merge_journals(plan, path("journals")),
               dist::SerializeError);
}

TEST_F(DistTest, ManifestValidationRejectsForeignEntries) {
  const auto w = dist::EnumWorkload::parse("e10:4");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 4);
  dist::QuarantineManifest m;
  m.fingerprint = plan.fingerprint;
  m.entries.push_back({1, 2, dist::ShardId{9, 9}, "bogus"});
  EXPECT_THROW(dist::merge_journals(plan, path("journals"), &m),
               dist::SerializeError);
  dist::QuarantineManifest wrong_plan;
  wrong_plan.fingerprint = dist::ShardId{1, 2};
  EXPECT_THROW(dist::merge_journals(plan, path("journals"), &wrong_plan),
               dist::SerializeError);
}

TEST_F(DistTest, RunShardRefusesForeignPlan) {
  const auto w = dist::EnumWorkload::parse("e10:4");
  const auto w2 = dist::EnumWorkload::parse("e10:5");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  EXPECT_THROW(dist::run_shard(*w2, plan, 0, path("journals")),
               std::invalid_argument);
  EXPECT_THROW(dist::run_shard(*w, plan, 2, path("journals")),
               std::invalid_argument);
}

TEST_F(DistTest, ResumeSurvivesTruncationAtEveryByteBoundary) {
  // The exhaustive crash sweep: a 32-shard plan keeps one shard's
  // journal small enough (preamble + ~38 records + seal) to truncate
  // after EVERY byte length and resume each time. For each prefix the
  // forward scan must recover exactly the committed records — the
  // resumed run recomputes precisely the gap, and the sealed sum is
  // bit-identical to the uninterrupted run's.
  const auto w = dist::EnumWorkload::parse("e10:4");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 32);
  const dist::ShardSpec& spec = plan.shards[0];
  const std::uint64_t width = spec.end - spec.begin;
  const std::string jpath = dist::journal_path(path("journals"), spec);

  const dist::ShardRunStats full =
      dist::run_shard(*w, plan, 0, path("journals"), nullptr);
  const auto bytes = dist::read_file(jpath);
  ASSERT_TRUE(bytes.has_value());
  constexpr std::size_t kPreamble = 64, kRecord = 32;
  ASSERT_EQ(bytes->size(), kPreamble + (width + 1) * kRecord);

  for (std::size_t len = 0; len <= bytes->size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes->begin(),
                                           bytes->begin() + len);
    ASSERT_TRUE(dist::write_file_atomic(jpath, prefix)) << len;
    const dist::ShardRunStats resumed =
        dist::run_shard(*w, plan, 0, path("journals"), nullptr);
    // A prefix shorter than the preamble (or ending inside it) cannot
    // identify the shard: the journal is recreated from scratch. Past
    // it, every COMPLETE record is kept; a torn record or the missing
    // seal recomputes exactly the tail. The full file is a detected
    // double completion.
    const std::uint64_t committed =
        len < kPreamble ? 0
                        : std::min<std::uint64_t>((len - kPreamble) / kRecord,
                                                  width);
    if (len == bytes->size()) {
      EXPECT_TRUE(resumed.already_complete) << len;
    } else {
      EXPECT_FALSE(resumed.already_complete) << len;
      EXPECT_EQ(resumed.committed_before, committed) << len;
      EXPECT_EQ(resumed.computed, width - committed) << len;
    }
    EXPECT_EQ(resumed.sum, full.sum) << len;
  }
}

TEST_F(DistTest, RunShardSurfacesJournalDirCreationFailure) {
  // The journal dir's parent is a regular FILE: create_directories must
  // fail, and run_shard must surface it as SerializeError instead of
  // charging on to fopen a path that cannot exist.
  const auto w = dist::EnumWorkload::parse("e10:4");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  const std::string blocker = path("blocker");
  ASSERT_TRUE(dist::write_file_atomic(blocker, std::vector<std::uint8_t>{1}));
  EXPECT_THROW(dist::run_shard(*w, plan, 0, blocker + "/journals"),
               dist::SerializeError);
}

TEST_F(DistTest, WorkloadSpecParsing) {
  EXPECT_EQ(dist::EnumWorkload::parse("e10")->spec(), "e10:14");
  EXPECT_EQ(dist::EnumWorkload::parse("e10:5")->spec(), "e10:5");
  EXPECT_THROW(dist::EnumWorkload::parse("e11"), std::invalid_argument);
  EXPECT_THROW(dist::EnumWorkload::parse("e10:"), std::invalid_argument);
  EXPECT_THROW(dist::EnumWorkload::parse("e10:2"), std::invalid_argument);
  EXPECT_THROW(dist::EnumWorkload::parse("e10:abc"), std::invalid_argument);
  EXPECT_THROW(dist::EnumWorkload::parse("e10:7x"), std::invalid_argument);
}

/// The E10 battery rebuilt one pair at a time with the per-pair
/// symmetrizability reference: the labelings make_line_battery
/// documents, every pair u < v that is not perfectly symmetrizable,
/// trees left with no pair dropped.
std::vector<dist::BatteryTree> per_pair_battery(int max_n) {
  std::vector<dist::BatteryTree> out;
  for (int n = 3; n <= max_n; ++n) {
    std::vector<tree::Tree> labelings;
    labelings.push_back(tree::line(n));
    labelings.push_back(tree::line_edge_colored(n, 0));
    labelings.push_back(tree::line_edge_colored(n, 1));
    if (n % 2 == 0) labelings.push_back(tree::line_symmetric_colored(n - 1));
    for (auto& t : labelings) {
      dist::BatteryTree bt;
      bt.t = std::move(t);
      for (tree::NodeId u = 0; u < n; ++u) {
        for (tree::NodeId v = u + 1; v < n; ++v) {
          if (!tree::reference::per_pair_symmetrizable(bt.t, u, v)) {
            bt.pairs.emplace_back(u, v);
          }
        }
      }
      if (!bt.pairs.empty()) out.push_back(std::move(bt));
    }
  }
  return out;
}

TEST(Battery, E10At14IsPinned) {
  // 1613 pairs over 42 labeled lines; the 108 mirrored pairs of the
  // even lines are perfectly symmetrizable.
  const auto battery = dist::make_line_battery(14);
  EXPECT_EQ(battery.size(), 42u);
  EXPECT_EQ(dist::battery_instances(battery), 1505u);
}

TEST(Battery, PairsMatchPerPairReference) {
  for (int max_n = 3; max_n <= 20; ++max_n) {
    const auto got = dist::make_line_battery(max_n);
    const auto want = per_pair_battery(max_n);
    ASSERT_EQ(got.size(), want.size()) << max_n;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t.to_string(), want[i].t.to_string())
          << max_n << " tree " << i;
      EXPECT_EQ(got[i].pairs, want[i].pairs) << max_n << " tree " << i;
    }
  }
}

}  // namespace
}  // namespace rvt
