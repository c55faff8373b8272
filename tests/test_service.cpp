// The shard-dispatch service tier, end to end over loopback TCP: a real
// coordinator, real worker daemons on threads, and manual protocol
// clients playing the adversarial parts (foreign versions, stale
// tokens, silent leaseholders).
//
// The ground truth everywhere is the same as dist/'s: the merged defeat
// count of a fleet run — however the leases bounced — must be
// bit-identical to a single-process sweep of the workload.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "dist/merge.hpp"
#include "dist/runner.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "tree/builders.hpp"
#include "util/rng.hpp"
#include "svc/coordinator.hpp"
#include "svc/net_store.hpp"
#include "svc/protocol.hpp"
#include "svc/worker.hpp"
#include "util/failpoint.hpp"

namespace rvt {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "svc-test-" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()) +
           "-" + std::to_string(static_cast<unsigned>(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    util::FailPointRegistry::instance().reset();
    std::filesystem::remove_all(dir_);
  }
  std::string path(const std::string& leaf) const { return dir_ + "/" + leaf; }
  std::string dir_;
};

/// Single-process ground truth for a workload (fresh context, no tier).
std::uint64_t single_process_total(const std::string& spec) {
  const auto w = dist::EnumWorkload::parse(spec);
  sim::EnumerationContext ctx(w->grids(), w->max_rounds(), nullptr);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < w->count(); ++i) {
    total += w->defeats(ctx, i);
  }
  return total;
}

/// A manual protocol client: hello as `role` and return the session.
std::unique_ptr<net::TcpStream> dial(const svc::Coordinator& coord,
                                     const std::string& role,
                                     const std::string& name) {
  auto s = net::tcp_connect("127.0.0.1", coord.port());
  s->set_read_timeout_ms(2000);
  svc::HelloRequest hello;
  hello.role = role;
  hello.name = name;
  net::send_frame(*s, dist::WireKind::kHello, svc::encode(hello));
  net::Frame f;
  EXPECT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
  EXPECT_EQ(f.kind, dist::WireKind::kHello);
  return s;
}

svc::LeaseGrant request_lease(net::TcpStream& s) {
  net::send_frame(s, dist::WireKind::kLeaseRequest,
                  svc::encode_lease_request());
  net::Frame f;
  EXPECT_EQ(net::recv_frame(s, f), net::RecvStatus::kFrame);
  EXPECT_EQ(f.kind, dist::WireKind::kLeaseGrant);
  return svc::decode_lease_grant(f.payload);
}

// ---- the happy fleet ------------------------------------------------------

TEST_F(ServiceTest, LoopbackFleetMatchesSingleProcessBitForBit) {
  const std::string spec = "e10:6";
  const std::uint64_t expected = single_process_total(spec);
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 5);

  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.cache_dir = path("cache");
  svc::Coordinator coord(plan, cfg);

  // Two daemons, both publishing orbits through the coordinator's
  // remote store (no local cache dir) — the NetOrbitStore path.
  svc::WorkerReport r1, r2;
  std::thread t1([&] {
    svc::WorkerOptions o;
    o.name = "w1";
    r1 = svc::run_worker("127.0.0.1", coord.port(), o);
  });
  std::thread t2([&] {
    svc::WorkerOptions o;
    o.name = "w2";
    r2 = svc::run_worker("127.0.0.1", coord.port(), o);
  });
  t1.join();
  t2.join();
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));

  const svc::ServiceReport rep = coord.report();
  EXPECT_EQ(rep.shards_total, 5u);
  EXPECT_EQ(rep.shards_completed, 5u);
  EXPECT_EQ(rep.shards_quarantined, 0u);
  EXPECT_EQ(rep.runners_seen, 2u);
  EXPECT_GE(rep.leases_granted, 5u);
  // Incremental merge counters cover the whole index space once done.
  EXPECT_EQ(rep.committed_indices, plan.count);
  EXPECT_EQ(rep.committed_defeats, expected);
  EXPECT_GT(rep.journal_bytes_streamed, 0u);
  EXPECT_GE(rep.time_to_first_sealed_shard_seconds, 0.0);
  EXPECT_EQ(r1.sealed + r2.sealed, 5u);
  EXPECT_EQ(r1.revoked + r2.revoked, 0u);

  // The metrics endpoint serves the same numbers over plain HTTP.
  const std::string body = net::http_get("127.0.0.1", coord.metrics_port(), "/");
  EXPECT_NE(body.find("\"kind\": \"service_metrics\""), std::string::npos);
  EXPECT_NE(body.find("\"committed_defeats\": " + std::to_string(expected)),
            std::string::npos);
  EXPECT_NE(body.find("\"shards_completed\": 5"), std::string::npos);
  EXPECT_NE(body.find("\"workload\": \"" + spec + "\""), std::string::npos);

  // And the journals the coordinator wrote merge to the ground truth.
  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, expected);
  coord.stop();

  // A fresh coordinator over the same journal dir adopts every sealed
  // shard: complete with no worker ever connecting.
  svc::Coordinator again(plan, cfg);
  EXPECT_TRUE(again.wait_complete(std::chrono::milliseconds(1000)));
  const svc::ServiceReport rep2 = again.report();
  EXPECT_EQ(rep2.shards_completed, 5u);
  EXPECT_EQ(rep2.committed_defeats, expected);
  EXPECT_EQ(rep2.leases_granted, 0u);

  // Drained coordinator tells a late worker there is nothing to do.
  svc::WorkerOptions late;
  late.name = "late";
  const svc::WorkerReport lr =
      svc::run_worker("127.0.0.1", again.port(), late);
  EXPECT_EQ(lr.leases, 0u);
  EXPECT_EQ(lr.indices, 0u);
}

// ---- failure recovery -----------------------------------------------------

TEST_F(ServiceTest, WorkerFaultRequeuesAndACleanWorkerFinishes) {
  const std::string spec = "e10:6";
  const std::uint64_t expected = single_process_total(spec);
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 3);

  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(plan, cfg);

  // First worker dies mid-lease with an injected error after 20 indices
  // — an unsealed disconnect; its committed chunks must survive.
  util::FailPointRegistry::instance().configure("worker.index=err@hit:20");
  svc::WorkerOptions faulty;
  faulty.name = "faulty";
  faulty.chunk_records = 8;  // several committed chunks before the fault
  EXPECT_THROW(svc::run_worker("127.0.0.1", coord.port(), faulty),
               dist::SerializeError);
  util::FailPointRegistry::instance().reset();

  {
    // run_worker returns as soon as its socket closes; the coordinator's
    // session thread notices the disconnect and requeues a moment later.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (coord.report().shards_requeued == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const svc::ServiceReport mid = coord.report();
    EXPECT_GE(mid.shards_requeued, 1u);
    EXPECT_GT(mid.committed_indices, 0u);  // the prefix survived
    EXPECT_LT(mid.committed_indices, plan.count);
  }

  svc::WorkerOptions clean;
  clean.name = "clean";
  const svc::WorkerReport rep =
      svc::run_worker("127.0.0.1", coord.port(), clean);
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  EXPECT_EQ(rep.sealed, 3u);
  // The clean worker resumed past the faulty one's committed prefix.
  EXPECT_LT(rep.indices, plan.count);

  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, expected);
}

TEST_F(ServiceTest, PartialQuarantineMergesTheHealthyShards) {
  const std::string spec = "e10:4";
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 4);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.max_attempts = 1;
  svc::Coordinator coord(plan, cfg);

  // The only worker connected takes shard 0 (plan order) and errors out
  // of it at its 3rd index: one attempt, so shard 0 quarantines.
  util::FailPointRegistry::instance().configure("worker.index=err@hit:3");
  svc::WorkerOptions faulty;
  faulty.name = "faulty";
  EXPECT_THROW(svc::run_worker("127.0.0.1", coord.port(), faulty),
               dist::SerializeError);
  util::FailPointRegistry::instance().reset();
  svc::WorkerOptions clean;
  clean.name = "clean";
  const svc::WorkerReport rep =
      svc::run_worker("127.0.0.1", coord.port(), clean);
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  EXPECT_EQ(rep.sealed, 3u);
  EXPECT_EQ(coord.report().shards_quarantined, 1u);
  const dist::QuarantineManifest manifest = coord.quarantine_manifest();
  coord.stop();

  const dist::ShardSpec& lost = plan.shards[0];
  ASSERT_EQ(manifest.entries.size(), 1u);
  EXPECT_EQ(manifest.entries[0].begin, lost.begin);
  EXPECT_FALSE(manifest.entries[0].diagnostics.empty());
  const auto partial =
      dist::merge_journals(plan, cfg.journal_dir, &manifest);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.covered, plan.count - (lost.end - lost.begin));
  ASSERT_EQ(partial.missing.size(), 1u);
  EXPECT_EQ(partial.missing[0].first, lost.begin);
  EXPECT_EQ(partial.missing[0].second, lost.end);
  EXPECT_THROW(dist::merge_journals(plan, cfg.journal_dir),
               dist::SerializeError);

  // The partial total is exactly the healthy shards' sum: finishing
  // shard 0 out-of-band (resuming the coordinator's journal) heals the
  // plain re-merge and the re-merge WITH the manifest alike.
  dist::run_shard(*w, plan, 0, cfg.journal_dir, nullptr);
  const std::uint64_t expected = single_process_total(spec);
  EXPECT_EQ(dist::merge_journals(plan, cfg.journal_dir).total, expected);
  const auto healed = dist::merge_journals(plan, cfg.journal_dir, &manifest);
  EXPECT_TRUE(healed.complete());
  EXPECT_EQ(healed.total, expected);
}

// ---- the end of a campaign ------------------------------------------------

TEST_F(ServiceTest, WorkersExitCleanlyWhenTheCampaignEndsAndServeStops) {
  // serve's shutdown order: wait_complete() then stop() at once. The
  // worker that seals the last shard and the worker idling for work must
  // both learn the campaign is over from the protocol, not from a closed
  // socket — with a 1-attempt reconnect budget, a closed socket is a
  // NetError out of run_worker.
  const std::string spec = "e10:4";
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 1);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(plan, cfg);

  std::vector<svc::WorkerReport> reps(2);
  std::vector<std::string> errors(2);
  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < 2; ++k) {
    workers.emplace_back([&, k] {
      svc::WorkerOptions o;
      o.name = "w" + std::to_string(k);
      o.throttle_ms = 2;  // the one shard outlasts the idle worker's connect
      o.reconnect.max_attempts = 1;
      try {
        reps[k] = svc::run_worker("127.0.0.1", coord.port(), o);
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (coord.report().runners_seen < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  coord.stop();
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(errors[0], "");
  EXPECT_EQ(errors[1], "");
  EXPECT_EQ(reps[0].sealed + reps[1].sealed, 1u);
  EXPECT_EQ(dist::merge_journals(plan, cfg.journal_dir).total,
            single_process_total(spec));
}

TEST_F(ServiceTest, StorelessCoordinatorGetsNoOrbitRoundTrips) {
  // No cache dir on the coordinator: its hello says so, and a worker
  // without a local tier keeps no orbit cache at all — nothing could
  // adopt its sets — so there is no cache traffic, local or remote, and
  // repeated bindings are answered by the verdict memo.
  const std::string spec = "e10:6";
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(plan, cfg);
  svc::WorkerOptions o;
  o.name = "w";
  const svc::WorkerReport rep = svc::run_worker("127.0.0.1", coord.port(), o);
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  EXPECT_EQ(rep.telemetry.cache_hits, 0u);
  EXPECT_EQ(rep.telemetry.cache_misses, 0u);
  EXPECT_GT(rep.telemetry.memo_hits, 0u);
  const svc::ServiceReport r = coord.report();
  EXPECT_EQ(r.tier_gets, 0u);
  EXPECT_EQ(r.tier_stores, 0u);
  EXPECT_EQ(dist::merge_journals(plan, cfg.journal_dir).total,
            single_process_total(spec));
}

TEST_F(ServiceTest, ExpiredLeaseholderIsFencedAndTheShardRecovers) {
  const std::string spec = "e10:6";
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 1);

  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.lease_timeout = std::chrono::milliseconds(200);
  cfg.poll_interval = std::chrono::milliseconds(10);
  svc::Coordinator coord(plan, cfg);

  // A leaseholder that takes the shard and then commits NOTHING.
  // Heartbeats alone must not keep the lease alive — journal growth is
  // the only renewal.
  auto silent = dial(coord, "worker", "silent");
  const svc::LeaseGrant g = request_lease(*silent);
  ASSERT_EQ(g.status, svc::LeaseStatus::kGranted);
  ASSERT_NE(g.token, 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool expired = false;
  while (!expired && std::chrono::steady_clock::now() < deadline) {
    net::send_frame(*silent, dist::WireKind::kHeartbeat,
                    svc::encode(svc::Heartbeat{g.shard_index, g.token}));
    net::Frame f;
    ASSERT_EQ(net::recv_frame(*silent, f), net::RecvStatus::kFrame);
    expired = !svc::decode_heartbeat_reply(f.payload).lease_valid;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(expired) << "chatty but workless lease never expired";

  // The stale token is fenced on every mutation path.
  svc::JournalChunk chunk;
  chunk.shard_index = g.shard_index;
  chunk.token = g.token;
  chunk.records.push_back({g.begin, 0});
  net::send_frame(*silent, dist::WireKind::kJournalChunk,
                  svc::encode(chunk));
  net::Frame f;
  ASSERT_EQ(net::recv_frame(*silent, f), net::RecvStatus::kFrame);
  EXPECT_FALSE(svc::decode_chunk_reply(f.payload).accepted);
  net::send_frame(*silent, dist::WireKind::kSeal,
                  svc::encode(svc::Seal{g.shard_index, g.token, 0}));
  ASSERT_EQ(net::recv_frame(*silent, f), net::RecvStatus::kFrame);
  EXPECT_FALSE(svc::decode_seal_reply(f.payload).accepted);
  silent.reset();

  const svc::ServiceReport rep = coord.report();
  EXPECT_GE(rep.lease_expiries, 1u);
  EXPECT_GE(rep.shards_requeued, 1u);

  // The shard is re-grantable and the run still completes exactly.
  svc::WorkerOptions clean;
  clean.name = "clean";
  svc::run_worker("127.0.0.1", coord.port(), clean);
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, single_process_total(spec));
}

// ---- handshake refusals ---------------------------------------------------

TEST_F(ServiceTest, ForeignServiceProtocolIsRefusedWithAVersionCode) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(dist::make_shard_plan(*w, 2), cfg);

  auto s = net::tcp_connect("127.0.0.1", coord.port());
  s->set_read_timeout_ms(2000);
  svc::HelloRequest hello;
  hello.protocol = svc::kServiceProtocolVersion + 7;
  hello.role = "worker";
  hello.name = "future";
  net::send_frame(*s, dist::WireKind::kHello, svc::encode(hello));
  net::Frame f;
  ASSERT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
  ASSERT_EQ(f.kind, dist::WireKind::kError);
  EXPECT_EQ(svc::decode_error_reply(f.payload).code,
            svc::ErrorCode::kVersion);
}

TEST_F(ServiceTest, ForeignWireVersionIsAnsweredAsAVersionErrorNotCorruption) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(dist::make_shard_plan(*w, 2), cfg);

  auto s = net::tcp_connect("127.0.0.1", coord.port());
  s->set_read_timeout_ms(2000);
  svc::HelloRequest hello;
  hello.role = "worker";
  auto framed = dist::frame_payload(dist::WireKind::kHello,
                                    svc::encode(hello));
  framed[4] ^= 0xff;  // the header's version field, bytes [4, 6)
  s->write_all(framed.data(), framed.size());
  net::Frame f;
  ASSERT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
  ASSERT_EQ(f.kind, dist::WireKind::kError);
  EXPECT_EQ(svc::decode_error_reply(f.payload).code,
            svc::ErrorCode::kVersion);
}

TEST(ServiceProtocol, V4TailsRoundTripAndV3RepliesStillDecode) {
  svc::SealReply sr;
  sr.accepted = true;
  sr.campaign_done = true;
  std::vector<std::uint8_t> p = svc::encode(sr);
  EXPECT_TRUE(svc::decode_seal_reply(p).campaign_done);
  p.pop_back();  // the v3 seal reply: no campaign_done tail
  const svc::SealReply v3_seal = svc::decode_seal_reply(p);
  EXPECT_TRUE(v3_seal.accepted);
  EXPECT_FALSE(v3_seal.campaign_done);

  svc::HelloReply hr;
  hr.workload_spec = "e10:4";
  hr.orbit_store = false;
  p = svc::encode(hr);
  EXPECT_FALSE(svc::decode_hello_reply(p).orbit_store);
  p.pop_back();  // the v3 hello reply: a v3 worker always used the store
  const svc::HelloReply v3_hello = svc::decode_hello_reply(p);
  EXPECT_EQ(v3_hello.workload_spec, "e10:4");
  EXPECT_TRUE(v3_hello.orbit_store);
  p.push_back(2);  // a flag byte that is neither 0 nor 1
  EXPECT_THROW(svc::decode_hello_reply(p), dist::SerializeError);
}

TEST_F(ServiceTest, UnknownRoleIsRefused) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(dist::make_shard_plan(*w, 2), cfg);

  auto s = net::tcp_connect("127.0.0.1", coord.port());
  s->set_read_timeout_ms(2000);
  svc::HelloRequest hello;
  hello.role = "gossip";
  net::send_frame(*s, dist::WireKind::kHello, svc::encode(hello));
  net::Frame f;
  ASSERT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
  ASSERT_EQ(f.kind, dist::WireKind::kError);
  EXPECT_EQ(svc::decode_error_reply(f.payload).code,
            svc::ErrorCode::kRefused);
}

// ---- the remote orbit store -----------------------------------------------

TEST_F(ServiceTest, NetOrbitStoreRoundTripsThroughTheCoordinator) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.cache_dir = path("cache");
  svc::Coordinator coord(dist::make_shard_plan(*w, 2), cfg);

  // A real published orbit set with its content key, same idiom as the
  // FsOrbitStore tests.
  const tree::Tree t = tree::line(6);
  util::Rng rng(0x5eedu);
  const sim::TabularAutomaton a =
      sim::random_line_automaton(3, rng).tabular();
  const sim::CompiledConfigEngine engine(t, a);
  std::vector<tree::NodeId> starts;
  for (tree::NodeId n = 0; n < t.node_count(); ++n) starts.push_back(n);
  engine.warm_orbits(starts);
  const auto set = engine.snapshot_orbits();
  const sim::OrbitKey key = sim::combine_orbit_keys(
      sim::tree_orbit_key(t), sim::canonical_automaton_key(a));

  svc::NetOrbitStore store("127.0.0.1", coord.port(), "t-store");
  // Absent key: a miss, and NEUTRAL for the degradation streak.
  for (std::uint64_t i = 0; i < svc::NetOrbitStore::kDegradeAfter + 2; ++i) {
    EXPECT_EQ(store.load(sim::OrbitKey{i + 100, i + 100}), nullptr);
  }
  EXPECT_FALSE(store.stats().degraded);

  store.store(key, set);
  const auto back = store.load(key);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(dist::serialize_orbit_set(*back), dist::serialize_orbit_set(*set));
  // The set really went through the coordinator's FsOrbitStore.
  const svc::ServiceReport rep = coord.report();
  EXPECT_GE(rep.tier_stores, 1u);
  EXPECT_GE(rep.tier_hits, 1u);

  const svc::NetOrbitStore::Stats st = store.stats();
  EXPECT_GE(st.hits, 1u);
  EXPECT_GE(st.stores, 1u);
  EXPECT_EQ(st.exhausted, 0u);
}

// ---- campaign durability --------------------------------------------------

svc::ChunkReply send_chunk(net::TcpStream& s, std::uint64_t shard,
                           std::uint64_t token,
                           std::vector<svc::JournalRecord> records) {
  svc::JournalChunk chunk;
  chunk.shard_index = shard;
  chunk.token = token;
  chunk.records = std::move(records);
  net::send_frame(s, dist::WireKind::kJournalChunk, svc::encode(chunk));
  net::Frame f;
  EXPECT_EQ(net::recv_frame(s, f), net::RecvStatus::kFrame);
  return svc::decode_chunk_reply(f.payload);
}

svc::SealReply send_seal(net::TcpStream& s, std::uint64_t shard,
                         std::uint64_t token, std::uint64_t total) {
  net::send_frame(s, dist::WireKind::kSeal,
                  svc::encode(svc::Seal{shard, token, total}));
  net::Frame f;
  EXPECT_EQ(net::recv_frame(s, f), net::RecvStatus::kFrame);
  return svc::decode_seal_reply(f.payload);
}

/// Requests leases until one is granted (or the queue drains), riding
/// out kWait while a disconnected holder's requeue lands.
svc::LeaseGrant lease_until_granted(net::TcpStream& s) {
  for (int i = 0; i < 500; ++i) {
    const svc::LeaseGrant g = request_lease(s);
    if (g.status != svc::LeaseStatus::kWait) return g;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "lease never granted";
  return {};
}

TEST_F(ServiceTest, ResumeReplaysExactStateFieldForField) {
  // Scripted grant / fail / re-grant / quarantine / seal / open-lease
  // sequence against coordinator #1, then `--resume` as coordinator #2:
  // every shard's control state must be reconstructed field-for-field,
  // with the one documented mapping — a pre-crash lease becomes
  // kPending, token 0, interrupted=true.
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 3);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.max_attempts = 2;
  std::vector<svc::Coordinator::ShardSnapshot> live;
  std::uint64_t committed_live = 0, defeats_live = 0;
  std::uint64_t open_token = 0;
  {
    svc::Coordinator coord(plan, cfg);

    // Shard 0: granted once, fully streamed (synthetic values — this is
    // a control-state test, not a merge test) and sealed.
    auto a = dial(coord, "worker", "a");
    const svc::LeaseGrant ga = request_lease(*a);
    ASSERT_EQ(ga.status, svc::LeaseStatus::kGranted);
    ASSERT_EQ(ga.shard_index, 0u);
    std::vector<svc::JournalRecord> recs;
    std::uint64_t sum0 = 0;
    for (std::uint64_t i = ga.begin; i < ga.end; ++i) {
      recs.push_back({i, i + 1});
      sum0 += i + 1;
    }
    EXPECT_TRUE(send_chunk(*a, 0, ga.token, recs).accepted);
    EXPECT_TRUE(send_seal(*a, 0, ga.token, sum0).accepted);

    // Shard 1: granted, two records streamed, then left OPEN — the
    // lease that is out when the crash hits.
    auto b = dial(coord, "worker", "b");
    const svc::LeaseGrant gb = request_lease(*b);
    ASSERT_EQ(gb.status, svc::LeaseStatus::kGranted);
    ASSERT_EQ(gb.shard_index, 1u);
    open_token = gb.token;
    EXPECT_TRUE(
        send_chunk(*b, 1, gb.token, {{gb.begin, 5}, {gb.begin + 1, 7}})
            .accepted);

    // Shard 2: granted and dropped unsealed, twice — the second failure
    // exhausts max_attempts and quarantines it.
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto c = dial(coord, "worker", "c");
      const svc::LeaseGrant gc = lease_until_granted(*c);
      ASSERT_EQ(gc.status, svc::LeaseStatus::kGranted);
      ASSERT_EQ(gc.shard_index, 2u);
      c.reset();  // unsealed disconnect -> fail_attempt
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < deadline) {
        const svc::ServiceReport r = coord.report();
        if (attempt == 0 ? r.shards_requeued >= 1 : r.shards_quarantined >= 1)
          break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    const svc::ServiceReport r1 = coord.report();
    ASSERT_EQ(r1.shards_quarantined, 1u);
    live = coord.shard_snapshots();
    committed_live = r1.committed_indices;
    defeats_live = r1.committed_defeats;
    coord.stop();
  }  // coordinator #1 gone; ledger + journals are what a SIGKILL leaves

  svc::CoordinatorConfig rcfg = cfg;
  rcfg.resume = true;
  svc::Coordinator resumed(plan, rcfg);
  const auto snaps = resumed.shard_snapshots();
  ASSERT_EQ(snaps.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto& l = live[i];
    const auto& r = snaps[i];
    const bool was_leased = l.phase == svc::Coordinator::ShardPhase::kLeased;
    EXPECT_EQ(r.phase, was_leased ? svc::Coordinator::ShardPhase::kPending
                                  : l.phase)
        << i;
    EXPECT_EQ(r.attempts, l.attempts) << i;
    EXPECT_EQ(r.token, was_leased ? 0u : l.token) << i;
    EXPECT_EQ(r.next_index, l.next_index) << i;
    EXPECT_EQ(r.sum, l.sum) << i;
    EXPECT_EQ(r.interrupted, was_leased) << i;
  }
  const svc::ServiceReport r2 = resumed.report();
  EXPECT_EQ(r2.resumed, 1u);
  EXPECT_EQ(r2.ledger_epoch, 2u);
  EXPECT_GE(r2.ledger_records_replayed, 7u);  // epoch + 4 grants + fail + ...
  EXPECT_EQ(r2.committed_indices, committed_live);
  EXPECT_EQ(r2.committed_defeats, defeats_live);

  // The pre-crash leaseholder's token is fenced by the new epoch.
  auto stale = dial(resumed, "worker", "b");
  EXPECT_FALSE(
      send_chunk(*stale, 1, open_token, {{live[1].next_index, 1}}).accepted);
  EXPECT_GE(resumed.report().stale_tokens_fenced, 1u);

  // The interrupted shard re-grants from the durable committed prefix.
  const svc::LeaseGrant again = lease_until_granted(*stale);
  ASSERT_EQ(again.status, svc::LeaseStatus::kGranted);
  EXPECT_EQ(again.shard_index, 1u);
  EXPECT_EQ(again.next_index, live[1].next_index);
  EXPECT_EQ(again.resume_sum, live[1].sum);
  EXPECT_NE(again.token, open_token);
  EXPECT_GE(resumed.report().leases_regranted, 1u);
}

TEST_F(ServiceTest, ResumeWithoutALedgerIsRefused) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.resume = true;
  EXPECT_THROW(svc::Coordinator coord(plan, cfg), dist::SerializeError);
}

TEST_F(ServiceTest, LedgerJournalDisagreementIsARefusalNotAGuess) {
  // A campaign completes; then the sealed journal loses its seal record
  // (fsynced ledger history the fflushed journal half lost — a host
  // reboot can do this). --resume must refuse, not recompute under a lie.
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  {
    svc::Coordinator coord(plan, cfg);
    svc::WorkerOptions o;
    o.name = "w";
    svc::run_worker("127.0.0.1", coord.port(), o);
    ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  }
  const std::string j0 =
      dist::journal_path(cfg.journal_dir, plan.shards[0]);
  const std::uint64_t sealed_size = std::filesystem::file_size(j0);
  std::filesystem::resize_file(j0, sealed_size - 32);  // drop the seal
  svc::CoordinatorConfig rcfg = cfg;
  rcfg.resume = true;
  EXPECT_THROW(svc::Coordinator coord(plan, rcfg), dist::SerializeError);
}

TEST_F(ServiceTest, WorkerStartedBeforeItsCoordinatorConnectsViaBackoff) {
  // The initial connect rides the same backoff loop as a mid-run
  // reconnect: a worker launched first simply waits for the coordinator.
  const std::string spec = "e10:6";
  std::uint16_t port = 0;
  {
    net::TcpListener l(0);
    port = l.port();
    l.close();
  }
  svc::WorkerReport rep;
  std::thread t([&] {
    svc::WorkerOptions o;
    o.name = "early";
    o.reconnect.max_attempts = 100;
    o.reconnect.base_delay = std::chrono::milliseconds(10);
    o.reconnect.max_delay = std::chrono::milliseconds(100);
    rep = svc::run_worker("127.0.0.1", port, o);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.port = port;
  svc::Coordinator coord(plan, cfg);
  t.join();
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  EXPECT_GE(rep.connect_retries, 1u);
  EXPECT_EQ(rep.sealed, 2u);
  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, single_process_total(spec));
}

TEST_F(ServiceTest, WorkerRidesOutACoordinatorRestartAndTheRunCompletes) {
  // Coordinator #1 dies mid-campaign; #2 resumes on the same port from
  // the ledger. The worker reconnects through its backoff loop, its
  // pre-crash lease token fences, and the merged total is still exact.
  const std::string spec = "e10:4";
  const std::uint64_t expected = single_process_total(spec);
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  std::uint16_t port = 0;
  {
    net::TcpListener l(0);
    port = l.port();
    l.close();
  }
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.port = port;

  auto coord = std::make_unique<svc::Coordinator>(plan, cfg);
  svc::WorkerReport rep;
  std::thread t([&] {
    svc::WorkerOptions o;
    o.name = "steady";
    o.throttle_ms = 1;  // widen the mid-lease window the restart hits
    o.chunk_records = 16;
    o.reconnect.max_attempts = 200;
    o.reconnect.base_delay = std::chrono::milliseconds(10);
    o.reconnect.max_delay = std::chrono::milliseconds(100);
    rep = svc::run_worker("127.0.0.1", port, o);
  });

  // Wait for durably committed progress, then "crash" #1 (its ledger
  // and journals on disk are exactly a SIGKILL's).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (coord->report().committed_indices == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(coord->report().committed_indices, 0u);
  coord.reset();

  svc::CoordinatorConfig rcfg = cfg;
  rcfg.resume = true;
  svc::Coordinator second(plan, rcfg);
  t.join();
  ASSERT_TRUE(second.wait_complete(std::chrono::milliseconds(10000)));

  EXPECT_GE(rep.reconnects, 1u);
  EXPECT_GE(rep.fenced, 1u);
  const svc::ServiceReport r = second.report();
  EXPECT_EQ(r.resumed, 1u);
  EXPECT_GE(r.stale_tokens_fenced, 1u);
  EXPECT_GE(r.leases_regranted, 1u);
  EXPECT_GE(r.worker_reconnects, 1u);

  // The metrics endpoint carries the recovery counters.
  const std::string body =
      net::http_get("127.0.0.1", second.metrics_port(), "/");
  EXPECT_NE(body.find("\"recovery_resumed\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"recovery_ledger_epoch\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"recovery_worker_reconnects\""), std::string::npos);

  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, expected);
}

TEST_F(ServiceTest, NetOrbitStoreDegradesToComputeThroughWhenUnreachable) {
  // Bind-then-close: the port exists but refuses — every op fails fast.
  std::uint16_t dead_port = 0;
  {
    net::TcpListener l(0);
    dead_port = l.port();
    l.close();
  }
  svc::NetOrbitStore store("127.0.0.1", dead_port, "t-store");
  for (std::uint64_t i = 0; i < svc::NetOrbitStore::kDegradeAfter; ++i) {
    EXPECT_EQ(store.load(sim::OrbitKey{i, i}), nullptr);
  }
  const svc::NetOrbitStore::Stats st = store.stats();
  EXPECT_TRUE(st.degraded);
  EXPECT_EQ(st.exhausted, svc::NetOrbitStore::kDegradeAfter);
  // Degradation is sticky compute-through: loads answer instantly.
  EXPECT_EQ(store.load(sim::OrbitKey{1, 2}), nullptr);
  const sim::OrbitTierFaultStats fs = store.fault_stats();
  EXPECT_TRUE(fs.degraded);
}

// The metrics endpoint's two renderings of one fixed report, frozen as
// text: CI greps Prometheus names and the E15/E16 benches read JSON keys.
TEST(ServiceReportRendering, JsonAndPrometheusTextIsFrozen) {
  svc::ServiceReport r{
      .shards_total = 8, .shards_completed = 5, .shards_leased = 2,
      .shards_pending = 1, .shards_requeued = 3, .leases_granted = 11,
      .lease_expiries = 1, .runners_seen = 2, .total_indices = 1214,
      .committed_indices = 900, .committed_defeats = 5426593,
      .journal_bytes_streamed = 28800, .tier_gets = 40, .tier_hits = 30,
      .tier_stores = 10, .tier_faults = {2, 1, 1, true},
      .uptime_seconds = 1.25, .shards_per_second = 4.0,
      .time_to_first_record_seconds = 0.0125, .resumed = 1,
      .ledger_epoch = 2, .ledger_records_replayed = 17,
      .ledger_records_appended = 9, .ledger_torn_bytes_truncated = 13,
      .leases_regranted = 2, .stale_tokens_fenced = 1,
      .worker_reconnects = 3, .uptime_ms = 1250,
      .campaign_id = 0x9abcdef012345678ULL,
      .last_journal_growth_ms = {-1, 12, 340},
      .runners = {{"w1", "worker", 0.5, 3, 700, true},
                  {"w\"2\\", "worker", 12.0, 0, 200, false}}};
  r.delay.time_to_first_survivor_ns = 2500000;
  r.delay.survivors = 850;
  r.delay.elapsed_ns = 1000000000;
  for (const std::uint64_t ns : {1000, 50000, 2000000}) {
    r.delay.inter_result_delay_ns.record(ns);
  }
  EXPECT_EQ(svc::service_json(r, "e10:14"), R"({
  "kind": "service_metrics",
  "workload": "e10:14",
  "shards_total": 8,
  "shards_completed": 5,
  "shards_leased": 2,
  "shards_pending": 1,
  "shards_requeued": 3,
  "shards_quarantined": 0,
  "leases_granted": 11,
  "lease_expiries": 1,
  "runners_seen": 2,
  "total_indices": 1214,
  "committed_indices": 900,
  "committed_defeats": 5426593,
  "journal_bytes_streamed": 28800,
  "cache_tier_gets": 40,
  "cache_tier_hits": 30,
  "cache_tier_stores": 10,
  "cache_tier_retries": 2,
  "cache_tier_exhausted": 1,
  "cache_tier_quarantined": 1,
  "cache_tier_degraded": 1,
  "recovery_resumed": 1,
  "recovery_ledger_epoch": 2,
  "recovery_ledger_records_replayed": 17,
  "recovery_ledger_records_appended": 9,
  "recovery_ledger_torn_bytes_truncated": 13,
  "recovery_leases_regranted": 2,
  "recovery_stale_tokens_fenced": 1,
  "recovery_worker_reconnects": 3,
  "uptime_seconds": 1.250000,
  "shards_per_second": 4.000000,
  "time_to_first_record_seconds": 0.012500,
  "time_to_first_sealed_shard_seconds": -1.000000,
  "uptime_ms": 1250,
  "campaign_id": 11150031900141442680,
  "survivors": 850,
  "survivors_per_second": 850.000000,
  "time_to_first_survivor_ms": 2.500000,
  "inter_result_delay_p50_ms": 0.065535,
  "inter_result_delay_p99_ms": 2.097151,
  "last_journal_growth_ms": [-1, 12, 340],
  "runners": [
    {"name": "w1", "role": "worker", "connected": true, "last_heartbeat_age_seconds": 0.500, "shards_sealed": 3, "records_streamed": 700},
    {"name": "w\"2\\", "role": "worker", "connected": false, "last_heartbeat_age_seconds": 12.000, "shards_sealed": 0, "records_streamed": 200}
  ]
}
)");
  // The delay histogram is rendered by obs::prometheus_histogram.
  EXPECT_EQ(svc::service_prometheus(r),
            R"(# TYPE rvt_uptime_ms gauge
rvt_uptime_ms 1250.000000
# TYPE rvt_campaign_id counter
rvt_campaign_id 11150031900141442680
# TYPE rvt_shards_total gauge
rvt_shards_total 8.000000
# TYPE rvt_shards_completed gauge
rvt_shards_completed 5.000000
# TYPE rvt_shards_leased gauge
rvt_shards_leased 2.000000
# TYPE rvt_shards_pending gauge
rvt_shards_pending 1.000000
# TYPE rvt_shards_requeued counter
rvt_shards_requeued 3
# TYPE rvt_shards_quarantined counter
rvt_shards_quarantined 0
# TYPE rvt_leases_granted counter
rvt_leases_granted 11
# TYPE rvt_lease_expiries counter
rvt_lease_expiries 1
# TYPE rvt_runners_seen counter
rvt_runners_seen 2
# TYPE rvt_committed_indices counter
rvt_committed_indices 900
# TYPE rvt_committed_defeats counter
rvt_committed_defeats 5426593
# TYPE rvt_journal_bytes_streamed counter
rvt_journal_bytes_streamed 28800
# TYPE rvt_recovery_resumes counter
rvt_recovery_resumes 1
# TYPE rvt_recovery_ledger_records_replayed counter
rvt_recovery_ledger_records_replayed 17
# TYPE rvt_recovery_leases_regranted counter
rvt_recovery_leases_regranted 2
# TYPE rvt_recovery_stale_tokens_fenced counter
rvt_recovery_stale_tokens_fenced 1
# TYPE rvt_recovery_worker_reconnects counter
rvt_recovery_worker_reconnects 3
# TYPE rvt_survivors counter
rvt_survivors 850
# TYPE rvt_survivors_per_second gauge
rvt_survivors_per_second 850.000000
# TYPE rvt_time_to_first_survivor_ms gauge
rvt_time_to_first_survivor_ms 2.500000
)" +
                obs::prometheus_histogram("rvt_inter_result_delay_ns",
                                          r.delay.inter_result_delay_ns) +
                R"(# TYPE rvt_shard_last_journal_growth_ms gauge
rvt_shard_last_journal_growth_ms{shard="0"} -1
rvt_shard_last_journal_growth_ms{shard="1"} 12
rvt_shard_last_journal_growth_ms{shard="2"} 340
)");
}

}  // namespace
}  // namespace rvt
