// E10 (supplementary) — exhaustive small-automaton search on lines.
//
// Theorem 4.2 says every K-state agent fails, with simultaneous start, on
// some line of length O(K^K). Here we make that concrete at the bottom of
// the hierarchy by brute force: enumerate EVERY K-state line automaton
// (K = 1, 2, 3), run each against a battery of small lines (several
// labelings, every feasible start pair), and record the smallest line size
// that definitively defeats it (meeting impossible: certified by a
// configuration cycle, or horizon exhausted).
//
// The table reports, per K: how many automata exist, how many survive the
// whole battery (should be 0), and the largest line size any automaton
// needed before its first defeat — an empirical lower-bound frontier that
// complements the constructive adversary of bench E4.
//
// Perf: both phases run on the fused enumeration pipeline
// (sim/enumeration.hpp). The defeat sweep fans automaton ranges across
// sweep_enumeration workers, each holding one EnumerationContext whose
// per-tree engines rebind in place and whose first_unmet() early-exits
// at the first defeat. The timed defeat-density profile (sampled automata
// x full battery x delay grid, no early exit) runs single-threaded over a
// shared OrbitCache and is measured with steady-state min-of-N timing —
// the warm-up pass populates the cache, the timed passes serve every
// orbit from it (the hit rate lands in BENCH_E10.json). Every pass gets a FRESH context: a
// context's verdict memo would otherwise answer every binding of a
// repeated pass without touching an engine. The same workload re-runs on
// the legacy per-round stepper; the wall-clocks, their ratio and the
// pipeline telemetry land in BENCH_E10.json. That end-to-end ratio
// (`speedup`) credits the compiled side with its verdict memo, which
// answers every repeated (grid, canonical automaton) binding without
// computing it, while the stepper recomputes them all. So the stepper
// also runs once per UNIQUE binding — the memo's own key — and
// `engine_only_speedup` compares the two engines over the same computed
// bindings.
//
// Each contract is its own check line — engine agreement, the orbit
// cache's steady state, the observability overhead budget (a paired,
// interleaved idle/armed A/B gated on the median paired ratio), and
// Theorem 4.2 itself — so a missed budget never reads as a theorem
// failure. The bench FAILS if any of them does.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dist/workload.hpp"
#include "lowerbound/verify.hpp"
#include "obs/enum_stats.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/automaton.hpp"
#include "sim/enumeration.hpp"
#include "sim/orbit_cache.hpp"
#include "sim/sweep.hpp"
#include "tree/builders.hpp"
#include "tree/canonical.hpp"

namespace {

using namespace rvt;

constexpr std::uint64_t kHorizon = dist::kE10Horizon;

// Battery construction, automaton enumeration order and the profile
// delay grid live in dist/workload.{hpp,cpp} — the SAME definitions the
// distributed shard runner (bench E13, `rvt_cli shard`) enumerates, so
// the single-process counts here and the merged shard counts are
// comparable bit for bit.
using dist::BatteryTree;
using dist::battery_instances;


sim::LineAutomaton automaton_at(int K, std::uint64_t idx) {
  return dist::line_automaton_at(K, idx);
}

std::uint64_t automaton_count(int K) {
  return dist::line_automaton_count(K);
}

std::vector<sim::EnumGrid> make_grids(const std::vector<BatteryTree>& battery,
                                      bool with_delays) {
  return dist::make_battery_grids(battery, with_delays);
}

std::vector<std::pair<int, std::uint64_t>> profile_sample() {
  return dist::make_profile_sample();
}

/// One full defeat-density profile pass on the fused pipeline (the unit
/// each timed repeat runs). Returns the total defeat count — the
/// cross-engine checksum that keeps the work honest. `delay` records one
/// result per automaton (its defeats over the whole battery), the unit
/// the shard runner and the fleet workers commit.
std::uint64_t run_compiled_profile(
    sim::EnumerationContext& ctx,
    const std::vector<std::pair<int, std::uint64_t>>& sample,
    std::size_t grid_count, obs::EnumDelayTracker* delay = nullptr) {
  std::uint64_t defeats = 0;
  for (const auto& [K, idx] : sample) {
    const sim::TabularAutomaton a = automaton_at(K, idx).tabular();
    ctx.bind(a);
    std::uint64_t automaton_defeats = 0;
    for (std::size_t g = 0; g < grid_count; ++g) {
      automaton_defeats += ctx.count_unmet(g);
    }
    defeats += automaton_defeats;
    if (delay != nullptr) delay->note_result(automaton_defeats);
  }
  return defeats;
}

/// One binding on the legacy stepper: automaton `a` against every
/// (pair x delay) query of one battery tree.
std::uint64_t reference_defeats(const BatteryTree& bt,
                                const sim::LineAutomaton& a) {
  std::uint64_t defeats = 0;
  for (const auto& [u, v] : bt.pairs) {
    for (const std::uint64_t d : dist::kE10ProfileDelays) {
      sim::LineAutomatonAgent x(a), y(a);
      const auto r = lowerbound::verify_never_meet_reference(
          bt.t, x, y, {u, v, d, 0, kHorizon});
      if (!r.met) ++defeats;
    }
  }
  return defeats;
}

std::uint64_t run_reference_profile(const std::vector<BatteryTree>& battery) {
  std::uint64_t checksum = 0;
  for (const auto& [K, idx] : profile_sample()) {
    const auto a = automaton_at(K, idx);
    for (const auto& bt : battery) checksum += reference_defeats(bt, a);
  }
  return checksum;
}

/// A profile binding the compiled side computes rather than reads from
/// its verdict memo: sample entry `sample_index` on battery tree `grid`,
/// standing in for `copies` bindings of equal memo key.
struct UniqueBinding {
  std::size_t sample_index;
  std::size_t grid;
  std::uint64_t copies;
};

/// The profile's (automaton, grid) bindings, deduplicated on the verdict
/// memo's key (grid content key x canonical automaton key) in profile
/// order — exactly the bindings one fresh context computes.
std::vector<UniqueBinding> unique_profile_bindings(
    const std::vector<std::pair<int, std::uint64_t>>& sample,
    const std::vector<sim::EnumGrid>& grids) {
  std::vector<sim::OrbitKey> grid_keys;
  for (const auto& grid : grids) {
    grid_keys.push_back(sim::enum_grid_key(grid, kHorizon));
  }
  std::vector<UniqueBinding> unique;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> seen;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const sim::OrbitKey akey = sim::canonical_automaton_key(
        automaton_at(sample[i].first, sample[i].second).tabular());
    for (std::size_t g = 0; g < grids.size(); ++g) {
      const sim::OrbitKey key = sim::combine_orbit_keys(grid_keys[g], akey);
      const auto [it, fresh] =
          seen.try_emplace({key.hi, key.lo}, unique.size());
      if (fresh) {
        unique.push_back({i, g, 1});
      } else {
        ++unique[it->second].copies;
      }
    }
  }
  return unique;
}

}  // namespace

int main() {
  bench::header(
      "E10 exhaustive small-automaton search (supplementary to Thm 4.2)",
      "Every K-state line automaton (K <= 3), against every feasible pair "
      "on small lines:\nnone survives; the defeat frontier grows with K.");

  util::Table table({"K", "automata", "survivors", "defeat frontier n",
                     "battery instances"});
  bool theorem_ok = true;
  const auto battery = dist::make_line_battery(14);
  const auto sweep_grids = make_grids(battery, /*with_delays=*/false);
  const auto profile_grids = make_grids(battery, /*with_delays=*/true);

  // Adaptive defeat sweep on the fused pipeline: one context per worker,
  // engines rebind in place, first_unmet() early-exits per tree. Grids
  // are ordered by line size, so the first defeated grid IS the frontier.
  bench::WallTimer total_timer;
  for (int K = 1; K <= 3; ++K) {
    const std::uint64_t count = automaton_count(K);
    const auto defeats = sim::sweep_enumeration(
        sweep_grids, count, kHorizon,
        [&](sim::EnumerationContext& ctx, std::uint64_t idx) {
          const sim::TabularAutomaton a = automaton_at(K, idx).tabular();
          ctx.bind(a);
          for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
            if (ctx.first_unmet(g) >= 0) {
              return battery[g].t.node_count();
            }
          }
          return tree::NodeId{0};  // survivor
        });
    std::uint64_t survivors = 0;
    int frontier = 0;
    for (const int defeat : defeats) {
      if (defeat == 0) {
        ++survivors;
      } else {
        frontier = std::max(frontier, defeat);
      }
    }
    table.row(K, count, survivors, frontier, battery_instances(battery));
    theorem_ok = theorem_ok && survivors == 0;
  }
  const double sweep_seconds = total_timer.seconds();

  table.print(std::cout);

  // Engine shoot-out: the full defeat-density profile over a sampled
  // automaton set, single threaded on both sides so the ratio isolates
  // the engine change. The compiled side runs the fused pipeline over a
  // shared orbit cache with steady-state min-of-N timing: the warm-up
  // pass extracts and publishes every orbit once; the timed passes serve
  // them from the cache — the throughput pipeline's steady state. Each
  // pass builds its own context outside the timer (a reused context
  // would answer the whole pass from its verdict memo).
  const auto sample = profile_sample();
  sim::OrbitCache cache;
  sim::EnumTelemetry telemetry;
  obs::EnumDelayTracker probe_delay;
  // One timed profile pass on a fresh context; `armed` turns every
  // instrumentation site on for the pass (metrics registry + delay
  // tracker recording). Returns the pass's CPU seconds.
  const auto timed_pass = [&](bool armed, std::uint64_t* sum) {
    sim::EnumerationContext ctx(profile_grids, kHorizon, &cache);
    obs::set_enabled(armed);
    const bench::CpuTimer timer;
    *sum = run_compiled_profile(ctx, sample, profile_grids.size(),
                                armed ? &probe_delay : nullptr);
    const double seconds = timer.seconds();
    obs::set_enabled(false);
    const sim::EnumTelemetry t = ctx.telemetry();
    telemetry.bindings += t.bindings;
    telemetry.cache_hits += t.cache_hits;
    telemetry.cache_misses += t.cache_misses;
    telemetry.memo_hits += t.memo_hits;
    return seconds;
  };
  std::uint64_t compiled_sum = 0;
  (void)timed_pass(false, &compiled_sum);  // warm-up: fills the cache

  // Observability overhead probe, paired and interleaved: each pair runs
  // the IDENTICAL profile idle and armed back to back (alternating which
  // goes first), so both sides of a pair see the same machine phase.
  // The contract obs/obs.hpp promises — one relaxed atomic load per idle
  // site — is gated on the MEDIAN paired armed/idle ratio (budget
  // 1.05x); the idle sides double as the compiled engine's min-of-N.
  constexpr int kCompiledRepeats = 15;
  std::vector<double> idle_s, armed_s, ratios;
  bool sums_agree = true;
  for (int r = 0; r < kCompiledRepeats; ++r) {
    std::uint64_t idle_sum = 0, armed_sum = 0;
    double idle = 0.0, armed = 0.0;
    if (r % 2 == 0) {
      idle = timed_pass(false, &idle_sum);
      armed = timed_pass(true, &armed_sum);
    } else {
      armed = timed_pass(true, &armed_sum);
      idle = timed_pass(false, &idle_sum);
    }
    sums_agree = sums_agree && idle_sum == compiled_sum &&
                 armed_sum == compiled_sum;
    idle_s.push_back(idle);
    armed_s.push_back(armed);
    ratios.push_back(idle > 0 ? armed / idle : 0.0);
  }
  const double compiled_s = *std::min_element(idle_s.begin(), idle_s.end());
  const double obs_on_s = *std::min_element(armed_s.begin(), armed_s.end());
  std::sort(ratios.begin(), ratios.end());
  const double obs_ratio = ratios[ratios.size() / 2];
  const double obs_ratio_lo = ratios.front();
  const double obs_ratio_hi = ratios.back();
  const obs::EnumDelayStats probe_stats = probe_delay.finish();

  // Same timing discipline as the compiled side (steady-state CPU time),
  // just a single repeat — one reference pass already costs ~30x the
  // whole compiled min-of-N phase.
  std::uint64_t reference_sum = 0;
  const double reference_s =
      bench::steady_min_seconds(/*warmup=*/0, /*repeats=*/1, [&] {
        reference_sum = run_reference_profile(battery);
      });
  // Engine-only side: the stepper over the unique bindings only, its
  // counts scaled back up by multiplicity to the same total.
  const auto unique = unique_profile_bindings(sample, profile_grids);
  std::uint64_t unique_sum = 0;
  const double unique_reference_s =
      bench::steady_min_seconds(/*warmup=*/0, /*repeats=*/1, [&] {
        unique_sum = 0;
        for (const UniqueBinding& b : unique) {
          const auto& [K, idx] = sample[b.sample_index];
          unique_sum += reference_defeats(battery[b.grid],
                                          automaton_at(K, idx)) *
                        b.copies;
        }
      });
  const auto cache_stats = cache.stats();
  const double speedup = compiled_s > 0 ? reference_s / compiled_s : 0.0;
  const double engine_speedup =
      compiled_s > 0 ? unique_reference_s / compiled_s : 0.0;
  const std::size_t all_bindings = sample.size() * profile_grids.size();
  std::cout << "\ndefeat-density profile workload (" << sample.size()
            << " automata x " << battery_instances(battery)
            << " instances x " << std::size(dist::kE10ProfileDelays)
            << " delays, single-threaded):\n"
            << "  compiled engine:  " << compiled_s << " s (min of "
            << kCompiledRepeats << ", warm orbit cache)\n"
            << "  legacy stepper:   " << reference_s << " s (all "
            << all_bindings << " bindings)\n"
            << "  speedup:          " << speedup << "x end to end\n"
            << "  legacy, unique:   " << unique_reference_s << " s ("
            << unique.size() << " unique (grid, canonical automaton) "
            << "bindings, the ones the compiled side computes)\n"
            << "  engine-only:      " << engine_speedup << "x\n"
            << "  orbit cache:      " << cache_stats.hits << " hits / "
            << cache_stats.misses << " misses (hit rate "
            << telemetry.hit_rate() << "), " << telemetry.memo_hits
            << " verdict-memo hits\n"
            << "  obs armed:        " << obs_on_s << " s (median paired "
            << "ratio " << obs_ratio << "x vs idle over " << kCompiledRepeats
            << " pairs, spread " << obs_ratio_lo << "x-" << obs_ratio_hi
            << "x, budget 1.05x)\n\n";

  // One check line per contract, so a failure names what broke.
  const bool engines_ok = compiled_sum == reference_sum && sums_agree &&
                          unique_sum == reference_sum;
  // Steady state must actually serve from the cache: every timed pass
  // re-binds every (automaton, tree) pair against a populated cache.
  const bool cache_ok = cache_stats.hits > 0 && telemetry.hit_rate() > 0.5;
  const bool budget_ok = obs_ratio <= 1.05;
  bench::check(engines_ok,
               "engine agreement: every compiled pass (idle and armed), "
               "the reference stepper and its unique-binding run count " +
                   std::to_string(reference_sum) + " defeats");
  bench::check(cache_ok, "orbit-cache steady state: hit rate " +
                             std::to_string(telemetry.hit_rate()) +
                             " > 0.5");
  bench::check(budget_ok, "observability overhead budget: median paired "
                          "armed/idle ratio " +
                              std::to_string(obs_ratio) + " <= 1.05");
  bench::check(theorem_ok,
               "Theorem 4.2: no automaton with <= 3 states survives the "
               "small-line battery");
  const bool all_ok = engines_ok && cache_ok && budget_ok && theorem_ok;

  bench::JsonReport report("E10");
  report.workload("rendezvous", 2);
  report.metric("sweep_seconds", sweep_seconds);
  report.metric("obs_on_seconds", obs_on_s);
  report.metric("obs_overhead_ratio", obs_ratio);
  report.metric("obs_overhead_ratio_min", obs_ratio_lo);
  report.metric("obs_overhead_ratio_max", obs_ratio_hi);
  util::ObservabilitySummary obs_summary;
  // A survivor is an automaton with zero defeats over the whole battery,
  // which Theorem 4.2 rules out here; -1 records "no survivor observed"
  // honestly.
  obs_summary.time_to_first_survivor_ms =
      probe_stats.time_to_first_survivor_ns < 0
          ? -1.0
          : static_cast<double>(probe_stats.time_to_first_survivor_ns) / 1e6;
  obs_summary.inter_result_delay_p50_ms = probe_stats.delay_quantile_ms(0.50);
  obs_summary.inter_result_delay_p99_ms = probe_stats.delay_quantile_ms(0.99);
  obs_summary.results = probe_stats.results;
  obs_summary.survivors = probe_stats.survivors;
  obs_summary.trace_bytes = obs::flush();
  obs_summary.dropped_events = obs::dropped_events();
  report.observability(obs_summary);
  report.metric("profile_automata", static_cast<double>(sample.size()));
  report.metric("profile_defeats", static_cast<double>(compiled_sum));
  report.metric("profile_bindings", static_cast<double>(all_bindings));
  report.metric("profile_unique_bindings",
                static_cast<double>(unique.size()));
  report.metric("engine_only_reference_seconds", unique_reference_s);
  report.metric("engine_only_speedup", engine_speedup);
  util::EngineComparison comparison;
  comparison.compiled_seconds = compiled_s;
  comparison.reference_seconds = reference_s;
  comparison.compiled_repeats = kCompiledRepeats;
  comparison.reference_repeats = 1;  // the stepper pays ~14x per pass
  comparison.engine = "compiled";
  comparison.threads = 1;
  comparison.orbit_cache_hits = cache_stats.hits;
  comparison.orbit_cache_misses = cache_stats.misses;
  util::add_engine_comparison(report, comparison);
  report.table(table);
  std::cout << "report: " << report.write() << "\n";

  bench::verdict(all_ok,
                 all_ok ? "no automaton with <= 3 states survives the "
                          "small-line battery (Thm 4.2 at the bottom of the "
                          "hierarchy); engines agree within budget"
                        : "a contract above failed (see its check line)");
  return all_ok ? 0 : 1;
}
