// Golden bytes of the two record-log formats. The shard journal and the
// run ledger are decoded by readers outside this library (the campaign
// benchmark parses journals itself), so their on-disk bytes are frozen:
// a change to the shared preamble, the record layout or a checksum must
// show up here as a hex diff.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "dist/journal.hpp"
#include "dist/ledger.hpp"
#include "dist/serialize.hpp"

namespace rvt {
namespace {

std::string file_hex(const std::string& path) {
  const auto bytes = dist::read_file(path);
  std::string hex;
  for (const std::uint8_t b : *bytes) {
    hex += "0123456789abcdef"[b >> 4];
    hex += "0123456789abcdef"[b & 0xf];
  }
  return hex;
}

class RecordLogGolden : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::create_directories(dir_); }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  const std::string dir_ =
      "record-log-test-" + std::to_string(static_cast<unsigned>(::getpid()));
};

TEST_F(RecordLogGolden, JournalBytes) {
  const std::string p = dir_ + "/shard.journal";
  const dist::JournalHeader h{{0x0123456789abcdefULL, 0xfedcba9876543210ULL},
                              {0x1111222233334444ULL, 0x5555666677778888ULL},
                              10,
                              13};
  {
    auto w = dist::JournalWriter::create(p, h);
    w.record(10, 5);
    w.record(11, 0);
    w.record(12, 7);
    w.finish(12);
  }
  EXPECT_EQ(file_hex(p),
            "5754565201000300efcdab89674523011032547698badcfe4444333322221111"
            "88887777666655550a000000000000000d000000000000008b74d0dffe4fcba2"
            "52545652010000000a000000000000000500000000000000f9d89eb064a02ff8"
            "52545652010000000b0000000000000000000000000000009dcf81e4470b1ea4"
            "52545652010000000c0000000000000007000000000000003d6510cc0a1f1414"
            "52545652020000000d000000000000000c0000000000000044cd384421dc0d0a");
}

TEST_F(RecordLogGolden, LedgerBytes) {
  const std::string p = dist::ledger_path(dir_);
  using E = dist::LedgerEvent;
  {
    auto w = dist::LedgerWriter::create(p, {{0x1234, 0x5678}, 6});
    for (const dist::LedgerRecord& r :
         std::vector<dist::LedgerRecord>{{E::kEpoch, 1, 1},
                                         {E::kGrant, 0, 1},
                                         {E::kFail, 0, 1},
                                         {E::kSeal, 0, 424242},
                                         {E::kQuarantine, 5, 3},
                                         {E::kCheckpoint, 37, 424242}}) {
      w.append(r);
    }
  }
  EXPECT_EQ(file_hex(p),
            "5754565201000e00341200000000000078560000000000000600000000000000"
            "0000000000000000000000000000000000000000000000001f05f7218af89fbd"
            "5256544c010000000100000000000000010000000000000020b315c9d97d42fb"
            "5256544c02000000000000000000000001000000000000005205a72eb89bca52"
            "5256544c0300000000000000000000000100000000000000c3204e1ce86d93ae"
            "5256544c0400000000000000000000003279060000000000c2afa44b37d99a50"
            "5256544c0500000005000000000000000300000000000000a2c97d3354a4f285"
            "5256544c0600000025000000000000003279060000000000d5d0a1dbe693c240");
}

}  // namespace
}  // namespace rvt
