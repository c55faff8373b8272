// campaign_probe: the in-process half of the campaign benchmark.
//
//   campaign_probe info --spec e10:<n>
//       battery shape: indices (automata) and queries per automaton.
//   campaign_probe reference --spec e10:<n> --stride K --offset O
//       per-index defeat counts of indices O, O+K, ... recomputed with
//       the reference stepper (lowerbound::verify_never_meet_reference),
//       which shares no verdict code with the compiled pipeline.
//   campaign_probe totals --spec e10:<n> [--threads T]
//       the spec's whole defeat total on the reference stepper.
//   campaign_probe layers --spec e10:<n> --shards N --work DIR
//       replays the workload in process through the library's public
//       functions and times each layer (see README.md for the map from
//       these metrics to the end-to-end ones).
//
// Every mode prints one JSON object on stdout and exits 0, or prints a
// diagnostic on stderr and exits 1.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/journal.hpp"
#include "dist/ledger.hpp"
#include "dist/merge.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "lowerbound/verify.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "sim/enumeration.hpp"
#include "sim/orbit_cache.hpp"
#include "svc/coordinator.hpp"
#include "svc/net_store.hpp"
#include "svc/worker.hpp"

namespace {

using namespace rvt;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile of a sample (sorted in place).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::max(0.0, std::min(q * static_cast<double>(v.size()) - 1e-9,
                             static_cast<double>(v.size() - 1))));
  return v[rank];
}

/// Ordered name -> value map rendered as one JSON object.
class JsonObject {
 public:
  void num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    fields_.emplace_back(key, os.str());
  }
  void raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// max_n of a canonical "e10:<n>" spec.
int spec_max_n(const dist::EnumWorkload& w) {
  return std::stoi(w.spec().substr(4));
}

std::uint64_t queries_per_automaton(const dist::EnumWorkload& w) {
  std::uint64_t q = 0;
  for (const auto& g : w.grids()) q += g.query_count();
  return q;
}

/// Defeats of profile-sample entry (K, idx) over the battery, on the
/// interpreting reference stepper: the oracle the compiled pipeline is
/// differential-tested against.
std::uint64_t reference_defeats(const std::vector<dist::BatteryTree>& battery,
                                int K, std::uint64_t idx) {
  const sim::LineAutomaton a = dist::line_automaton_at(K, idx);
  std::uint64_t defeats = 0;
  for (const auto& bt : battery) {
    for (const auto& [u, v] : bt.pairs) {
      for (const std::uint64_t d : dist::kE10ProfileDelays) {
        sim::LineAutomatonAgent x(a), y(a);
        const auto r = lowerbound::verify_never_meet_reference(
            bt.t, x, y, {u, v, d, 0, dist::kE10Horizon});
        if (!r.met) ++defeats;
      }
    }
  }
  return defeats;
}

struct Args {
  std::string spec;
  std::uint64_t stride = 64;
  std::uint64_t offset = 0;
  unsigned threads = 4;
  unsigned shards = 1;
  std::string work;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
    const std::string v = argv[++i];
    if (k == "--spec") {
      a.spec = v;
    } else if (k == "--stride") {
      a.stride = std::stoull(v);
    } else if (k == "--offset") {
      a.offset = std::stoull(v);
    } else if (k == "--threads") {
      a.threads = static_cast<unsigned>(std::stoul(v));
    } else if (k == "--shards") {
      a.shards = static_cast<unsigned>(std::stoul(v));
    } else if (k == "--work") {
      a.work = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (a.spec.empty()) throw std::invalid_argument("--spec is required");
  if (a.stride == 0 || a.threads == 0 || a.shards == 0) {
    throw std::invalid_argument("--stride, --threads, --shards must be > 0");
  }
  return a;
}

int run_info(const Args& args) {
  const auto w = dist::EnumWorkload::parse(args.spec);
  JsonObject o;
  o.raw("spec", "\"" + w->spec() + "\"");
  o.num("indices", static_cast<double>(w->count()));
  o.num("queries", static_cast<double>(queries_per_automaton(*w)));
  std::cout << o.str() << "\n";
  return 0;
}

int run_reference(const Args& args) {
  const auto w = dist::EnumWorkload::parse(args.spec);
  const auto battery = dist::make_line_battery(spec_max_n(*w));
  const auto sample = dist::make_profile_sample();
  std::string values = "[";
  for (std::uint64_t i = args.offset; i < sample.size(); i += args.stride) {
    const auto& [K, idx] = sample[i];
    if (values.size() > 1) values += ", ";
    values += "[" + std::to_string(i) + ", " +
              std::to_string(reference_defeats(battery, K, idx)) + "]";
  }
  JsonObject o;
  o.raw("spec", "\"" + w->spec() + "\"");
  o.raw("values", values + "]");
  std::cout << o.str() << "\n";
  return 0;
}

int run_totals(const Args& args) {
  const auto w = dist::EnumWorkload::parse(args.spec);
  const auto battery = dist::make_line_battery(spec_max_n(*w));
  const auto sample = dist::make_profile_sample();
  std::atomic<std::uint64_t> next{0}, total{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < args.threads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = next++; i < sample.size(); i = next++) {
        total += reference_defeats(battery, sample[i].first, sample[i].second);
      }
    });
  }
  for (auto& th : pool) th.join();
  JsonObject o;
  o.raw("spec", "\"" + w->spec() + "\"");
  o.num("indices", static_cast<double>(sample.size()));
  o.num("total", static_cast<double>(total.load()));
  o.num("seconds", seconds_since(t0));
  std::cout << o.str() << "\n";
  return 0;
}

/// sim::OrbitStore decorator around the filesystem tier: times the codec
/// and the tier's own store/load calls, and keeps a few published sets
/// for the remote-store round trips of the service phase.
class TimedFsStore final : public sim::OrbitStore {
 public:
  using OrbitSet = sim::CompiledConfigEngine::OrbitSet;

  explicit TimedFsStore(const std::string& dir) : inner_(dir) {}

  std::shared_ptr<const OrbitSet> load(const sim::OrbitKey& key) override {
    const auto t0 = Clock::now();
    auto set = inner_.load(key);
    load_s += seconds_since(t0);
    ++load_count;
    return set;
  }

  void store(const sim::OrbitKey& key,
             const std::shared_ptr<const OrbitSet>& set) override {
    auto t0 = Clock::now();
    const std::vector<std::uint8_t> payload = dist::serialize_orbit_set(*set);
    serialize_s += seconds_since(t0);
    bytes += payload.size();
    t0 = Clock::now();
    const auto back = dist::deserialize_orbit_set(payload);
    deserialize_s += seconds_since(t0);
    t0 = Clock::now();
    inner_.store(key, set);
    store_s += seconds_since(t0);
    ++store_count;
    if (kept.size() < kKeep) kept.emplace_back(key, set);
  }

  sim::OrbitTierFaultStats fault_stats() const override {
    return inner_.fault_stats();
  }

  static constexpr std::size_t kKeep = 256;
  double load_s = 0, store_s = 0, serialize_s = 0, deserialize_s = 0;
  std::uint64_t load_count = 0, store_count = 0, bytes = 0;
  std::vector<std::pair<sim::OrbitKey, std::shared_ptr<const OrbitSet>>> kept;

 private:
  dist::FsOrbitStore inner_;
};

/// One enumeration pass over every index on a fresh context and cache
/// (optionally tier-backed); returns the per-index defeat counts.
std::vector<std::uint64_t> enumerate(const dist::EnumWorkload& w,
                                     sim::OrbitCache& cache) {
  sim::EnumerationContext ctx(w.grids(), w.max_rounds(), &cache);
  std::vector<std::uint64_t> out(w.count());
  for (std::uint64_t i = 0; i < w.count(); ++i) out[i] = w.defeats(ctx, i);
  return out;
}

int run_layers(const Args& args) {
  if (args.work.empty()) throw std::invalid_argument("--work is required");
  fs::remove_all(args.work);
  fs::create_directories(args.work);
  JsonObject m;
  bool consistent = true;
  std::uint64_t total = 0;

  // ---- setup: battery build + plan fingerprint ---------------------------
  auto t0 = Clock::now();
  const auto w = dist::EnumWorkload::parse(args.spec);
  m.num("dist.workload.parse_s", seconds_since(t0));
  t0 = Clock::now();
  const dist::ShardPlan plan = dist::make_shard_plan(*w, args.shards);
  m.num("dist.shard_plan.make_s", seconds_since(t0));

  // ---- compiled engine: compile, extract, scan over the same battery -----
  std::vector<std::uint64_t> engine_values(w->count(), 0);
  {
    const auto grids = w->grids();
    std::vector<std::optional<sim::CompiledConfigEngine>> engines(grids.size());
    std::vector<std::vector<tree::NodeId>> starts(grids.size());
    for (std::size_t g = 0; g < grids.size(); ++g) {
      starts[g] = grids[g].starts;
      std::sort(starts[g].begin(), starts[g].end());
      starts[g].erase(std::unique(starts[g].begin(), starts[g].end()),
                      starts[g].end());
    }
    double compile_s = 0, extract_s = 0, scan_s = 0;
    std::uint64_t extracted = 0;
    for (std::uint64_t i = 0; i < w->count(); ++i) {
      const sim::TabularAutomaton a = w->automaton_at(i);
      for (std::size_t g = 0; g < grids.size(); ++g) {
        auto t = Clock::now();
        if (!engines[g]) {
          engines[g].emplace(*grids[g].tree, a);
        } else {
          engines[g]->rebind(a);
        }
        compile_s += seconds_since(t);
        const sim::CompiledConfigEngine& eng = *engines[g];
        const std::uint64_t before = eng.orbits_extracted();
        t = Clock::now();
        eng.warm_orbits(starts[g]);
        extract_s += seconds_since(t);
        extracted += eng.orbits_extracted() - before;
        t = Clock::now();
        std::uint64_t defeats = 0;
        for (std::size_t q = 0; q < grids[g].query_count(); ++q) {
          const sim::GatherQuery gq = grids[g].query(q);
          const sim::Verdict v = sim::verify_never_meet_compiled(
              eng, eng,
              {gq.starts[0], gq.starts[1], gq.delays[0], gq.delays[1],
               w->max_rounds()});
          if (!v.met) ++defeats;
        }
        scan_s += seconds_since(t);
        engine_values[i] += defeats;
      }
    }
    m.num("sim.compiled.compile_s", compile_s);
    m.num("sim.compiled.extract_s", extract_s);
    m.num("sim.compiled.orbits_extracted", static_cast<double>(extracted));
    m.num("sim.compiled.scan_s", scan_s);
  }

  // ---- enumeration + in-memory orbit cache + journal + merge -------------
  const std::string jdir = args.work + "/journals";
  std::vector<std::uint64_t> enum_values(w->count(), 0);
  {
    sim::OrbitCache cache;
    sim::EnumerationContext ctx(w->grids(), w->max_rounds(), &cache);
    std::vector<double> index_ms;
    index_ms.reserve(w->count());
    std::uint64_t journal_bytes = 0;
    fs::create_directories(jdir);
    for (const dist::ShardSpec& s : plan.shards) {
      const std::string path = dist::journal_path(jdir, s);
      dist::JournalWriter jw = dist::JournalWriter::create(
          path, {s.id, plan.fingerprint, s.begin, s.end});
      for (std::uint64_t i = s.begin; i < s.end; ++i) {
        const auto t = Clock::now();
        enum_values[i] = w->defeats(ctx, i);
        index_ms.push_back(seconds_since(t) * 1e3);
        jw.record(i, enum_values[i]);
      }
      jw.finish(jw.sum());
    }
    for (const dist::ShardSpec& s : plan.shards) {
      journal_bytes += fs::file_size(dist::journal_path(jdir, s));
    }
    const sim::EnumTelemetry tel = ctx.telemetry();
    const sim::OrbitCache::Stats cs = cache.stats();
    m.num("sim.enumeration.index_p50_ms", quantile(index_ms, 0.50));
    m.num("sim.enumeration.index_p99_ms", quantile(index_ms, 0.99));
    m.num("sim.enumeration.queries", static_cast<double>(tel.queries));
    m.num("sim.enumeration.bindings", static_cast<double>(tel.bindings));
    m.num("sim.enumeration.canonical_collapses",
          static_cast<double>(tel.canonical_collapses));
    m.num("sim.orbit_cache.hits", static_cast<double>(cs.hits));
    m.num("sim.orbit_cache.misses", static_cast<double>(cs.misses));
    const std::uint64_t lookups = cs.hits + cs.misses;
    m.num("sim.orbit_cache.hit_rate",
          lookups == 0 ? 0.0
                       : static_cast<double>(cs.hits) /
                             static_cast<double>(lookups));
    m.num("dist.journal.records", static_cast<double>(w->count()));
    m.num("dist.journal.bytes", static_cast<double>(journal_bytes));
    t0 = Clock::now();
    const dist::MergeResult merged = dist::merge_journals(plan, jdir);
    m.num("dist.merge.merge_s", seconds_since(t0));
    for (const std::uint64_t v : enum_values) total += v;
    consistent = consistent && merged.complete() && merged.total == total &&
                 enum_values == engine_values;
  }

  // ---- filesystem tier: cold pass (store path), warm pass (load path) ----
  const std::string tier_dir = args.work + "/tier";
  std::vector<std::pair<sim::OrbitKey,
                        std::shared_ptr<const sim::CompiledConfigEngine::OrbitSet>>>
      kept_sets;
  {
    TimedFsStore cold(tier_dir);
    sim::OrbitCache cold_cache;
    cold_cache.set_backing(&cold);
    consistent = consistent && enumerate(*w, cold_cache) == enum_values;
    std::uint64_t files = 0, on_disk = 0;
    for (const auto& e : fs::directory_iterator(tier_dir)) {
      if (!e.is_regular_file()) continue;
      ++files;
      on_disk += e.file_size();
    }
    TimedFsStore warm(tier_dir);
    sim::OrbitCache warm_cache;
    warm_cache.set_backing(&warm);
    consistent = consistent && enumerate(*w, warm_cache) == enum_values &&
                 warm.store_count == 0;
    m.num("dist.serialize.serialize_s", cold.serialize_s);
    m.num("dist.serialize.deserialize_s", cold.deserialize_s);
    m.num("dist.serialize.bytes", static_cast<double>(cold.bytes));
    m.num("dist.fs_store.store_s", cold.store_s);
    m.num("dist.fs_store.store_count", static_cast<double>(cold.store_count));
    m.num("dist.fs_store.load_s", warm.load_s);
    m.num("dist.fs_store.load_count", static_cast<double>(warm.load_count));
    m.num("dist.fs_store.bytes_on_disk", static_cast<double>(on_disk));
    m.num("dist.fs_store.files", static_cast<double>(files));
    kept_sets = std::move(cold.kept);
  }
  fs::remove_all(tier_dir);

  // ---- service tier: coordinator + 2 workers over loopback ---------------
  {
    constexpr unsigned kFleetShards = 8;
    constexpr unsigned kFleetWorkers = 2;
    const dist::ShardPlan fleet_plan = dist::make_shard_plan(*w, kFleetShards);
    svc::CoordinatorConfig cfg;
    cfg.journal_dir = args.work + "/fleet";
    const std::string trace_path = args.work + "/fleet.trace";
    svc::Coordinator coord(fleet_plan, cfg);
    obs::set_trace_path(trace_path);
    obs::set_enabled(true);
    std::vector<std::thread> workers;
    std::vector<std::string> errors(kFleetWorkers);
    for (unsigned k = 0; k < kFleetWorkers; ++k) {
      workers.emplace_back([&, k] {
        try {
          svc::WorkerOptions opt;
          opt.name = "probe-worker-" + std::to_string(k);
          svc::run_worker("127.0.0.1", coord.port(), opt);
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
      });
    }
    coord.wait_complete();
    for (auto& t : workers) t.join();
    obs::set_enabled(false);
    const svc::ServiceReport rep = coord.report();

    std::vector<double> rtt_ms;
    {
      svc::NetOrbitStore remote("127.0.0.1", coord.port(), "probe-net-store");
      for (const auto& [key, set] : kept_sets) {
        auto t = Clock::now();
        remote.load(key);
        rtt_ms.push_back(seconds_since(t) * 1e3);
        t = Clock::now();
        remote.store(key, set);
        rtt_ms.push_back(seconds_since(t) * 1e3);
      }
    }
    coord.stop();
    obs::flush();

    double compute_s = 0, flush_s = 0;
    for (const auto& chunk : obs::read_trace_file(trace_path).chunks) {
      for (const auto& ev : chunk.events) {
        if (ev.name_id >= chunk.names.size()) continue;
        const std::string& name = chunk.names[ev.name_id];
        if (name == "svc.worker.compute") compute_s += ev.dur_ns * 1e-9;
        if (name == "svc.worker.flush") flush_s += ev.dur_ns * 1e-9;
      }
    }

    const auto ledger = dist::read_ledger(dist::ledger_path(cfg.journal_dir));
    std::vector<double> append_ms;
    if (ledger) {
      dist::LedgerWriter lw = dist::LedgerWriter::create(
          args.work + "/ledger-replay.bin", ledger->header);
      for (const dist::LedgerRecord& r : ledger->records) {
        const auto t = Clock::now();
        lw.append(r);
        append_ms.push_back(seconds_since(t) * 1e3);
      }
    }
    const dist::MergeResult merged =
        dist::merge_journals(fleet_plan, cfg.journal_dir);
    for (const auto& e : errors) {
      if (!e.empty()) {
        std::cerr << "probe: fleet worker failed: " << e << "\n";
        consistent = false;
      }
    }
    consistent = consistent && ledger.has_value() && merged.complete() &&
                 merged.total == total && rep.all_complete();

    m.num("dist.ledger.records",
          ledger ? static_cast<double>(ledger->records.size()) : 0.0);
    m.num("dist.ledger.append_ms_p50", quantile(append_ms, 0.50));
    m.num("svc.coordinator.leases_granted",
          static_cast<double>(rep.leases_granted));
    m.num("svc.coordinator.journal_bytes_streamed",
          static_cast<double>(rep.journal_bytes_streamed));
    m.num("svc.coordinator.orbit_gets", static_cast<double>(rep.tier_gets));
    m.num("svc.coordinator.first_sealed_shard_s",
          rep.time_to_first_sealed_shard_seconds);
    m.num("svc.net_store.round_trip_ms_p50", quantile(rtt_ms, 0.50));
    m.num("svc.worker.compute_s", compute_s);
    m.num("svc.worker.flush_s", flush_s);
  }
  fs::remove_all(args.work);

  JsonObject o;
  o.raw("spec", "\"" + w->spec() + "\"");
  o.raw("consistent", consistent ? "true" : "false");
  o.num("total", static_cast<double>(total));
  o.raw("metrics", m.str());
  std::cout << o.str() << "\n";
  return consistent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: campaign_probe info|reference|totals|layers "
                 "--spec e10:<n> [options]\n";
    return 1;
  }
  const std::string mode = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    if (mode == "info") return run_info(args);
    if (mode == "reference") return run_reference(args);
    if (mode == "totals") return run_totals(args);
    if (mode == "layers") return run_layers(args);
    std::cerr << "campaign_probe: unknown mode " << mode << "\n";
  } catch (const std::exception& e) {
    std::cerr << "campaign_probe " << mode << ": " << e.what() << "\n";
  }
  return 1;
}
