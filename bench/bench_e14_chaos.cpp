// E14 — chaos battery: the E10 workload under seeded fault injection
// must merge bit-identical to the fault-free count.
//
// Two layers of drills:
//
//  * IN-PROCESS fault drills (err-action failpoints only — a crash
//    action would kill the bench) exercise the self-healing cache tier
//    and journal recovery with exact counter assertions: a transient
//    publish failure retries and succeeds; corrupt tier files are
//    quarantined (renamed aside) and recomputed through; a persistently
//    failing tier degrades to compute-through after kDegradeAfter
//    exhausted operations; an injected journal-append failure surfaces
//    as SerializeError and the next run resumes exactly past the valid
//    prefix. Every drill's defeat sum must equal the fault-free sum.
//
//  * FLEET chaos scenarios run the full battery 4-shard on an
//    in-process svc::Coordinator drained by real `rvt_cli worker
//    --cache-dir` children, with the scenario's RVT_FAILPOINTS armed in
//    the FIRST worker only: a worker killed mid-lease (worker.index
//    crash), corrupted cache-tier decodes and failing tier publishes
//    (the worker runs its FsOrbitStore, so that is where tier faults
//    live). Every drill must show its fault fired: the kill as requeues,
//    the tier faults in the armed worker's own `tier faults:` log line
//    (corrupt decodes quarantined, failing publishes retried, exhausted
//    or degraded) without a requeue. EVERY scenario must merge
//    bit-identical to
//    the single-process total — 5426593 on the default battery — with
//    every worker that was not doomed exiting 0. A forced quarantine
//    run (max_attempts=1, one crashing worker per shard) must produce a
//    manifest whose merge reports the missing ranges explicitly while
//    the plain merge refuses.
//
// An optional argv[1] (max_n, default 14) shrinks the fleet battery for
// quick/CI-reduced runs; the 5426593 constant is only asserted on the
// default. The in-process drills always run the small e10:6 battery. A
// fault-free timing pair (registry disarmed vs armed on a never-firing
// site) records the failpoint overhead ratio.
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dist/merge.hpp"
#include "dist/runner.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "sim/orbit_cache.hpp"
#include "svc/coordinator.hpp"
#include "util/failpoint.hpp"
#include "util/retry.hpp"

namespace {

using namespace rvt;
using bench::check;

constexpr std::uint64_t kCommittedE10Defeats = 5426593;
constexpr unsigned kShards = 4;
constexpr unsigned kWorkers = 2;

/// What shows that a scenario's fault fired.
enum class Evidence {
  kNothing,      ///< fault-free control
  kRequeue,      ///< the armed worker died: its shard requeued
  kQuarantine,   ///< the armed worker quarantined corrupt tier files
  kPublishFault, ///< the armed worker's tier publishes retried/failed
};

/// One seeded fault class of the fleet matrix. `doomed` scenarios kill
/// the armed worker, so they must requeue and the armed worker must exit
/// with the crash code; the others must run without a requeue.
struct Scenario {
  const char* name;
  bool doomed;
  Evidence evidence;
};
constexpr Scenario kScenarios[] = {
    {"none", false, Evidence::kNothing},
    {"worker-kill", true, Evidence::kRequeue},
    {"corrupt-tier", false, Evidence::kQuarantine},
    {"publish-error", false, Evidence::kPublishFault},
};

/// The tier-fault counters a worker logged: `rvt_cli worker` prints
/// "tier faults: R retries, E exhausted, Q quarantined[, DEGRADED ...]"
/// when any of them is non-zero; no line means all zero.
struct TierFaults {
  unsigned long long retries = 0, exhausted = 0, quarantined = 0;
  bool degraded = false;
};
TierFaults read_tier_faults(const std::string& log_path) {
  TierFaults f;
  std::ifstream in(log_path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("tier faults: ", 0) != 0) continue;
    std::sscanf(line.c_str(),
                "tier faults: %llu retries, %llu exhausted, %llu quarantined",
                &f.retries, &f.exhausted, &f.quarantined);
    f.degraded = line.find("DEGRADED") != std::string::npos;
  }
  return f;
}

/// The RVT_FAILPOINTS value armed in the first worker. `seed` makes the
/// probabilistic scenario deterministic and picks the kill depth (a
/// 1-based hit in [1, shard_width], so the kill lands inside the
/// worker's first lease).
std::string failpoints(const std::string& scenario, std::uint64_t seed,
                       std::uint64_t shard_width) {
  if (scenario == "worker-kill") {
    return "worker.index=crash@hit:" + std::to_string(1 + seed % shard_width);
  }
  if (scenario == "corrupt-tier") {
    return "fs_store.load.decode=err@prob:0.5:" + std::to_string(seed);
  }
  if (scenario == "publish-error") return "fs_store.store=err@always";
  return "";
}

/// What one fleet run left behind.
struct FleetRun {
  bool complete = false;  ///< every shard sealed or quarantined in time
  svc::ServiceReport report;
  dist::QuarantineManifest manifest;
  std::vector<int> exits;  ///< per worker, launch order
  std::vector<std::string> logs;  ///< per worker, launch order
};

/// Runs `plan` on an in-process coordinator drained by one `rvt_cli
/// worker` child per entry of `worker_env`. A worker with a non-empty
/// env is started alone and the rest only once it holds a lease, so the
/// armed worker deterministically works the first lease. Ends the way
/// `serve` does — wait_complete() then stop() — and only then reaps the
/// workers, so a worker that needs a live coordinator to exit cleanly
/// shows as a non-zero exit.
FleetRun run_fleet(const dist::ShardPlan& plan, const std::string& cli,
                   const std::string& dir, const std::string& cache_dir,
                   unsigned max_attempts,
                   const std::vector<bench::EnvVars>& worker_env) {
  FleetRun run;
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = dir + "/journals";
  cfg.max_attempts = max_attempts;
  svc::Coordinator coord(plan, cfg);
  std::vector<pid_t> pids;
  for (std::size_t k = 0; k < worker_env.size(); ++k) {
    const std::string name = "w" + std::to_string(k);
    std::vector<std::string> args{
        cli,      "worker", "--connect",
        "127.0.0.1:" + std::to_string(coord.port()),
        "--name", name};
    if (!cache_dir.empty()) {
      args.push_back("--cache-dir");
      args.push_back(cache_dir);
    }
    run.logs.push_back(dir + "/" + name + ".log");
    pids.push_back(bench::spawn(args, run.logs.back(), worker_env[k]));
    if (k == 0 && !worker_env[k].empty()) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (coord.report().leases_granted == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  run.complete = coord.wait_complete(std::chrono::minutes(10));
  run.report = coord.report();
  run.manifest = coord.quarantine_manifest();
  coord.stop();
  for (const pid_t pid : pids) {
    if (!run.complete) ::kill(pid, SIGKILL);
    run.exits.push_back(bench::wait_exit(pid));
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const int max_n = argc > 1 ? std::atoi(argv[1]) : 14;
  bench::header(
      "E14 chaos battery (fault injection + self-healing fleet)",
      "The E10 battery under seeded faults — worker kills, torn journals, "
      "corrupt tier files, publish errors —\nmust merge bit-identical to "
      "the fault-free count; exhausted shards must quarantine into "
      "explicit missing ranges.");

  bool all_ok = true;
  auto& registry = util::FailPointRegistry::instance();
  registry.reset();

  const std::string scratch =
      "e14-scratch-" + std::to_string(static_cast<int>(::getpid()));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  // ---- in-process drills on the small battery -----------------------------
  const auto small = dist::EnumWorkload::parse("e10:6");
  std::uint64_t small_total = 0;
  {
    sim::OrbitCache cache;
    sim::EnumerationContext ctx(small->grids(), small->max_rounds(), &cache);
    for (std::uint64_t i = 0; i < small->count(); ++i) {
      small_total += small->defeats(ctx, i);
    }
  }
  const dist::ShardPlan small_plan = dist::make_shard_plan(*small, 1);
  std::cout << "in-process drills (e10:6, " << small->count()
            << " indices, fault-free sum " << small_total << "):\n";

  std::uint64_t drill_injected = 0, drill_retries = 0, drill_degraded = 0;

  // Drill 1: a transient publish failure retries and succeeds.
  {
    const std::string jd = scratch + "/d1-journals", cd = scratch + "/d1-cache";
    registry.configure("fs_store.store=err@hit:1");
    dist::FsOrbitStore tier(cd, util::no_delay_policy(3));
    sim::OrbitCache cache;
    cache.set_backing(&tier);
    const auto stats = dist::run_shard(*small, small_plan, 0, jd, &cache);
    drill_injected += registry.total_fired();
    drill_retries += stats.telemetry.tier_retries;
    registry.reset();
    all_ok &= check(stats.sum == small_total &&
                        stats.telemetry.tier_retries >= 1 &&
                        stats.telemetry.tier_exhausted == 0 &&
                        tier.stats().store_failures == 0,
                    "transient publish fault: " +
                        std::to_string(stats.telemetry.tier_retries) +
                        " retries, no exhaustion, sum intact");
  }

  // Drill 2: corrupt tier files quarantine aside and recompute through.
  {
    const std::string cd = scratch + "/d2-cache";
    {  // populate the tier with real published sets
      dist::FsOrbitStore tier(cd);
      sim::OrbitCache cache;
      cache.set_backing(&tier);
      dist::run_shard(*small, small_plan, 0, scratch + "/d2-pre", &cache);
    }
    std::size_t corrupted = 0;
    for (const auto& entry : std::filesystem::directory_iterator(cd)) {
      std::ofstream f(entry.path(), std::ios::binary | std::ios::trunc);
      f << "not a framed orbit set";
      ++corrupted;
    }
    dist::FsOrbitStore tier(cd);
    sim::OrbitCache cache;
    cache.set_backing(&tier);
    const auto stats =
        dist::run_shard(*small, small_plan, 0, scratch + "/d2-journals", &cache);
    all_ok &= check(stats.sum == small_total &&
                        stats.telemetry.tier_quarantined == corrupted &&
                        tier.stats().decode_failures == corrupted,
                    "corrupt tier: " + std::to_string(corrupted) +
                        " files quarantined aside, sum intact");
  }

  // Drill 3: a persistently failing tier degrades to compute-through.
  {
    registry.configure("fs_store.store=err@always");
    dist::FsOrbitStore tier(scratch + "/d3-cache", util::no_delay_policy(2));
    sim::OrbitCache cache;
    cache.set_backing(&tier);
    const auto stats =
        dist::run_shard(*small, small_plan, 0, scratch + "/d3-journals", &cache);
    drill_injected += registry.total_fired();
    drill_degraded += stats.telemetry.tier_degraded;
    registry.reset();
    all_ok &= check(stats.sum == small_total &&
                        stats.telemetry.tier_degraded == 1 &&
                        stats.telemetry.tier_exhausted >=
                            dist::FsOrbitStore::kDegradeAfter,
                    "persistent publish failure: degraded to "
                    "compute-through after " +
                        std::to_string(stats.telemetry.tier_exhausted) +
                        " exhausted publishes, sum intact");
  }

  // Drill 4: an injected append failure surfaces as SerializeError and
  // the next run resumes exactly past the valid prefix.
  {
    const std::string jd = scratch + "/d4-journals";
    registry.configure("journal.append=err@hit:5");
    bool threw = false;
    try {
      dist::run_shard(*small, small_plan, 0, jd, nullptr);
    } catch (const dist::SerializeError&) {
      threw = true;
    }
    drill_injected += registry.total_fired();
    registry.reset();
    const auto resumed = dist::run_shard(*small, small_plan, 0, jd, nullptr);
    all_ok &= check(threw && resumed.committed_before == 4 &&
                        resumed.computed == small->count() - 4 &&
                        resumed.sum == small_total,
                    "append fault: SerializeError, resume recomputed only "
                    "the " +
                        std::to_string(resumed.computed) +
                        " uncommitted indices, sum intact");
  }

  // Failpoint overhead: a fault-free shard run with the registry
  // disarmed vs armed on a site that never fires. The sites sit on IO
  // paths (journal append, tier load/store), so even armed the cost is
  // one map lookup per IO — the ratio is recorded, not asserted (CI
  // timing noise), but a gross regression shows up in the artifact.
  double overhead_ratio = 0.0;
  {
    const auto run_once = [&](const std::string& jd) {
      dist::run_shard(*small, small_plan, 0, jd, nullptr);
    };
    run_once(scratch + "/warm");  // warm caches
    bench::WallTimer off_timer;
    run_once(scratch + "/off");
    const double off = off_timer.seconds();
    registry.configure("journal.seal=err@hit:1000000000");
    bench::WallTimer on_timer;
    run_once(scratch + "/on");
    const double on = on_timer.seconds();
    registry.reset();
    overhead_ratio = off > 0 ? on / off : 0.0;
    std::cout << "  failpoint overhead: disarmed " << off << " s, armed "
              << on << " s (ratio " << overhead_ratio << ")\n";
  }

  // ---- fleet chaos scenarios --------------------------------------------
  const auto workload =
      dist::EnumWorkload::parse("e10:" + std::to_string(max_n));
  bench::WallTimer single_timer;
  std::uint64_t single_total = 0;
  {
    sim::OrbitCache cache;
    sim::EnumerationContext ctx(workload->grids(), workload->max_rounds(),
                                &cache);
    for (std::uint64_t i = 0; i < workload->count(); ++i) {
      single_total += workload->defeats(ctx, i);
    }
  }
  std::cout << "\nsingle process (e10:" << max_n << "): " << single_total
            << " defeats (" << single_timer.seconds() << " s)\n";
  if (max_n == 14) {
    all_ok &= check(single_total == kCommittedE10Defeats,
                    "single-process total equals the committed 5426593");
  }

  const dist::ShardPlan plan = dist::make_shard_plan(*workload, kShards);
  const std::uint64_t shard_width =
      plan.shards[0].end - plan.shards[0].begin;
  const std::string cli = bench::cli_path(argv[0]);

  std::uint64_t total_requeues = 0;
  util::Table table(
      {"scenario", "workers", "requeues", "quarantined", "defeats", "ok"});
  bench::WallTimer chaos_timer;
  for (const Scenario& sc : kScenarios) {
    const std::string dir = scratch + "/" + sc.name;
    const std::string fp = failpoints(sc.name, bench::kDefaultSeed,
                                      shard_width);
    std::vector<bench::EnvVars> env(kWorkers);
    if (!fp.empty()) env[0] = {{"RVT_FAILPOINTS", fp}};
    const FleetRun run =
        run_fleet(plan, cli, dir, dir + "-cache", 3, env);
    std::uint64_t merged_total = 0;
    bool merged_ok = false;
    if (run.complete && run.report.all_complete()) {
      try {
        merged_total = dist::merge_journals(plan, dir + "/journals").total;
        merged_ok = merged_total == single_total;
      } catch (const std::exception& e) {
        std::cerr << sc.name << ": merge failed: " << e.what() << "\n";
      }
    }
    bool exits_ok = true;
    for (std::size_t k = 0; k < run.exits.size(); ++k) {
      const bool armed_to_die = sc.doomed && k == 0;
      exits_ok &= run.exits[k] ==
                  (armed_to_die ? util::kFailpointCrashExitCode : 0);
    }
    // A drill whose fault never fired would be vacuous, so that is a
    // FAILURE too: a kill must requeue, a tier fault must show in the
    // armed worker's log.
    const std::uint64_t requeues = run.report.shards_requeued;
    const TierFaults faults = read_tier_faults(run.logs[0]);
    bool fired = true;
    switch (sc.evidence) {
      case Evidence::kNothing:
      case Evidence::kRequeue:
        break;
      case Evidence::kQuarantine:
        fired = faults.quarantined >= 1;
        break;
      case Evidence::kPublishFault:
        fired = faults.retries + faults.exhausted >= 1 || faults.degraded;
        break;
    }
    const bool ok = merged_ok && exits_ok && fired &&
                    run.report.shards_quarantined == 0 &&
                    (sc.doomed ? requeues >= 1 : requeues == 0);
    total_requeues += requeues;
    std::string exit_list;
    for (const int e : run.exits) {
      exit_list += (exit_list.empty() ? "" : ",") + std::to_string(e);
    }
    table.row(sc.name, kWorkers, requeues, run.report.shards_quarantined,
              merged_total, ok ? "yes" : "NO");
    all_ok &= check(ok, std::string("scenario ") + sc.name + ": merged " +
                            std::to_string(merged_total) + " after " +
                            std::to_string(requeues) +
                            " requeues, worker exits " + exit_list +
                            ", armed worker tier faults " +
                            std::to_string(faults.retries) + " retries/" +
                            std::to_string(faults.exhausted) +
                            " exhausted/" +
                            std::to_string(faults.quarantined) +
                            " quarantined" +
                            (faults.degraded ? "/degraded" : ""));
  }
  const double chaos_seconds = chaos_timer.seconds();

  // ---- forced quarantine: exhausted attempts become explicit gaps ---------
  std::uint64_t quarantined_shards = 0;
  {
    const std::string dir = scratch + "/quarantine";
    // One attempt per shard and one crashing worker per shard: every
    // worker dies inside its only lease, so every shard quarantines.
    const bench::EnvVars crash = {
        {"RVT_FAILPOINTS", failpoints("worker-kill", 4, shard_width)}};
    const FleetRun run = run_fleet(plan, cli, dir, "", 1,
                                   std::vector<bench::EnvVars>(kShards, crash));
    quarantined_shards = run.report.shards_quarantined;
    const std::string mpath = dir + "/quarantine.bin";
    dist::write_quarantine_manifest(mpath, run.manifest);
    const dist::QuarantineManifest loaded =
        dist::load_quarantine_manifest(mpath);
    bool plain_refuses = false;
    try {
      dist::merge_journals(plan, dir + "/journals");
    } catch (const dist::SerializeError&) {
      plain_refuses = true;
    }
    std::uint64_t missing = 0;
    bool partial_ok = false;
    try {
      const dist::MergeResult partial =
          dist::merge_journals(plan, dir + "/journals", &loaded);
      for (const auto& [b, e] : partial.missing) missing += e - b;
      partial_ok = !partial.complete() &&
                   partial.covered + missing == partial.indices &&
                   partial.missing.size() == loaded.entries.size();
    } catch (const std::exception& e) {
      std::cerr << "quarantine merge failed: " << e.what() << "\n";
    }
    bool all_died = true;
    for (const int e : run.exits) {
      all_died &= e == util::kFailpointCrashExitCode;
    }
    all_ok &= check(run.complete && quarantined_shards == kShards &&
                        all_died && plain_refuses && partial_ok &&
                        loaded.entries.size() == kShards &&
                        !loaded.entries[0].diagnostics.empty(),
                    "forced quarantine: " +
                        std::to_string(quarantined_shards) +
                        " shards quarantined, plain merge refuses, "
                        "manifest merge reports " +
                        std::to_string(missing) + " missing indices");
  }

  table.print(std::cout);

  bench::JsonReport report("E14");
  report.workload("rendezvous", 2);
  report.shards(kShards);
  util::FaultSummary faults;
  faults.scenario = "chaos-battery";
  faults.seed = bench::kDefaultSeed;
  faults.injected = drill_injected;
  faults.retried = drill_retries;
  faults.degraded = drill_degraded;
  faults.requeued = total_requeues;
  faults.quarantined = quarantined_shards;
  report.faults(faults);
  report.metric("max_n", max_n);
  report.metric("workers", kWorkers);
  report.metric("single_defeats", static_cast<double>(single_total));
  report.metric("chaos_seconds", chaos_seconds);
  report.metric("failpoint_overhead_ratio", overhead_ratio);
  report.table(table);
  std::cout << "report: " << report.write() << "\n";

  if (all_ok) std::filesystem::remove_all(scratch);

  bench::verdict(all_ok,
                 "every fault class merges bit-identical to the "
                 "single-process battery" +
                     std::string(max_n == 14
                                     ? " (committed 5426593 defeats)"
                                     : "") +
                     "; exhausted shards quarantine into explicit gaps");
  return all_ok ? 0 : 1;
}
