// Fused rebind + grid enumeration.
//
// The exhaustive batteries (E10-style: every K-state automaton against a
// fixed set of instances, E11-style: a victim per instance against its
// start-pair x delay grid) used to drive verify_grid() per automaton —
// paying, per (automaton, tree), a verdict-vector allocation, an index
// indirection, a re-validation of the same grid, and a second pass over
// the queries to warm orbits. EnumerationContext fuses the whole
// per-automaton pipeline into one object that lives for a worker's entire
// sweep:
//
//   bind(a)          swap the automaton in (engines rebind lazily,
//                    keeping every buffer),
//   verify(g)        answer grid g into a reused verdict buffer —
//                    orbits warmed by the one-walk extractor, queries
//                    answered by the inlined verdict core,
//   first_unmet(g)   the adaptive variant: scan grid g until the first
//                    defeat (verdict with met == false), early-exiting —
//                    the shape of a "smallest defeating instance" search.
//
// Grids are k-AGENT (EnumGrid::agents, flat query-major start/delay
// storage): the meet API above is the k = 2 specialization, and the
// gathering API — verify_gather / count_ungathered / first_ungathered —
// serves any arity through the k-tuple verdict core
// (sim/verify_core.hpp), over the very same engines, warmed orbits and
// cache protocol (orbits are per-agent; nothing below this layer knows k).
//
// Grids are validated once at construction; the steady state allocates
// nothing but verdict-memo growth. When an OrbitCache is attached, each
// binding's orbits are acquired from / published to it, so a battery
// shared by several workers (or repeated passes of one worker) extracts
// each orbit once per machine — every verdict carries the cache_hit flag
// for telemetry.
//
// count_unmet() answers from a context-wide VERDICT MEMO first: a
// content-addressed table of (grid key x canonical automaton key) ->
// defeat count. The grid key hashes what a count depends on besides the
// automaton (the tree's content key, the arity, every start and delay,
// max_rounds), and key-equal automata produce identical trajectories on
// every tree (the invariant the orbit cache's keys already rely on), so
// a repeated binding — the same canonical automaton on the same grid
// content, whichever grid index carries it — returns the stored count
// without preparing an engine or scanning a query.
//
// sweep_enumeration() fans an automaton range across workers, one context
// per worker (sweep_indexed), with deterministic result ordering and
// aggregated telemetry.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/compiled.hpp"
#include "sim/orbit_cache.hpp"
#include "sim/sweep.hpp"
#include "sim/verdict.hpp"

namespace rvt::sim {

/// One query of a k-agent enumeration grid, viewing the grid's flat
/// storage: the agents' start nodes and start delays. The pair query of
/// the PR 1-3 pipeline is exactly the k = 2 case.
struct GatherQuery {
  std::span<const tree::NodeId> starts;
  std::span<const std::uint64_t> delays;
  std::size_t agents() const { return starts.size(); }
};

/// One grid of an enumeration battery: a substrate tree plus the
/// (start-tuple x delay) queries to answer on it. All `agents` agents of
/// a query run the bound automaton (the enumeration model: k identical
/// anonymous agents); the grid's arity is fixed, and starts/delays are
/// stored flat, query-major, `agents` entries per query — the shape the
/// verdict loops stream. Pair grids (agents == 2) are the same type: push
/// PairQuery points and the meet API (verify/count_unmet/first_unmet)
/// consumes them, while the gathering API serves any arity, k = 2
/// included. The tree must outlive every context using the grid.
struct EnumGrid {
  const tree::Tree* tree = nullptr;
  std::size_t agents = 2;             ///< k, fixed per grid (>= 2)
  std::vector<tree::NodeId> starts;   ///< query-major, `agents` per query
  std::vector<std::uint64_t> delays;  ///< same shape as starts

  EnumGrid() = default;
  EnumGrid(const tree::Tree* t, std::size_t k) : tree(t), agents(k) {}
  /// Convenience for the historical pair-grid literals: a tree plus pair
  /// queries (agents == 2).
  EnumGrid(const tree::Tree* t, std::initializer_list<PairQuery> qs)
      : tree(t) {
    for (const PairQuery& q : qs) push(q);
  }

  std::size_t query_count() const {
    return agents == 0 ? 0 : starts.size() / agents;
  }
  GatherQuery query(std::size_t i) const {
    return {{starts.data() + i * agents, agents},
            {delays.data() + i * agents, agents}};
  }
  /// Appends one k-tuple query; `d` may be empty (all-zero delays) or one
  /// delay per agent. Arity mismatches throw here — two compensating
  /// mis-sized pushes would pass the context's aggregate-shape validation
  /// while silently misaligning delays across queries.
  void push(std::span<const tree::NodeId> s,
            std::span<const std::uint64_t> d) {
    if (s.size() != agents || (!d.empty() && d.size() != s.size())) {
      throw std::invalid_argument(
          "EnumGrid::push: query arity must match the grid's agents "
          "(delays empty or one per agent)");
    }
    starts.insert(starts.end(), s.begin(), s.end());
    if (d.empty()) {
      delays.insert(delays.end(), s.size(), 0);
    } else {
      delays.insert(delays.end(), d.begin(), d.end());
    }
  }
  /// The k = 2 specialization: appends a pair query.
  void push(const PairQuery& q) {
    starts.insert(starts.end(), {q.start_a, q.start_b});
    delays.insert(delays.end(), {q.delay_a, q.delay_b});
  }
};

/// The verdict-memo key of a grid's content: the tree's content key
/// (tree_orbit_key), the arity, every start and delay, and max_rounds —
/// everything a defeat count depends on besides the automaton. Grids of
/// equal content (even over distinct Tree objects of one structure) get
/// one key; grids differing in any of these never share one.
OrbitKey enum_grid_key(const EnumGrid& grid, std::uint64_t max_rounds);

/// Telemetry aggregated across the workers of one sweep_enumeration call
/// (or collected manually from a directly-driven context).
struct EnumTelemetry {
  std::uint64_t queries = 0;           ///< queries answered
  std::uint64_t bindings = 0;          ///< (automaton, grid) preparations
  /// count_unmet() calls answered by the verdict memo: no preparation,
  /// no scan — so not counted in `bindings`.
  std::uint64_t memo_hits = 0;
  std::uint64_t cache_hits = 0;        ///< bindings served by the cache
  std::uint64_t cache_misses = 0;      ///< bindings extracted locally
  std::uint64_t orbits_extracted = 0;  ///< orbit walks actually run
  /// Automata whose canonical reachable form differs from their raw
  /// table — i.e. bindings the canonical dedup key can merge with an
  /// equivalent automaton's cache entry. The K = 3 exhaustive battery
  /// measurably collapses (asserted in tests/test_enumeration.cpp).
  std::uint64_t canonical_collapses = 0;
  /// Durable-tier fault handling (filled by the shard runner from the
  /// cache's backing OrbitStore after a run; zero for in-process sweeps
  /// with no tier): transient IO failures retried, operations that
  /// exhausted the retry schedule, corrupt tier files quarantined, and
  /// whether the tier disabled itself (compute-through — the sweep's
  /// verdicts are unaffected, only extraction is repaid).
  std::uint64_t tier_retries = 0;
  std::uint64_t tier_exhausted = 0;
  std::uint64_t tier_quarantined = 0;
  std::uint64_t tier_degraded = 0;  ///< 0/1
  double hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

/// Per-worker state of a fused enumeration sweep. Not thread-safe; build
/// one per worker (sweep_enumeration does). Grids and the optional cache
/// must outlive the context.
class EnumerationContext {
 public:
  /// Validates every grid up front (non-null tree, >= 2 nodes, arity
  /// within [2, kMaxGatherAgents], starts/delays of matching k-fold
  /// shape, in-range starts, max_rounds > 0) and throws
  /// std::invalid_argument on the first violation — the query loops then
  /// run unchecked. Equal starts within a query are allowed (the
  /// gathering model permits co-located agents); the MEET API addition-
  /// ally requires agents == 2 and pairwise-distinct starts and throws
  /// std::invalid_argument from verify()/count_unmet()/first_unmet() on
  /// grids that violate it.
  EnumerationContext(std::span<const EnumGrid> grids,
                     std::uint64_t max_rounds, OrbitCache* cache = nullptr);

  /// Makes `a` the automaton under test. Engines rebind lazily on the
  /// next query call per grid, so early-exiting a binding costs nothing
  /// for the grids never touched. `a` must stay alive until the next
  /// bind().
  void bind(const TabularAutomaton& a);

  /// Meet verdicts of pair grid g under the bound automaton, in query
  /// order. The span aliases an internal buffer reused by the next
  /// verify() call on this context. Every verdict's cache_hit flag
  /// reports whether the binding's orbits came from the attached cache.
  std::span<const Verdict> verify(std::size_t g);

  /// Index of the first query of pair grid g whose verdict has
  /// met == false (the automaton is DEFEATED: non-meeting certified or
  /// horizon exhausted), or -1 if every query meets. Early-exits: queries
  /// past the first defeat are not answered — and without an attached
  /// cache the binding is prepared LAZILY (orbits extract as the scan
  /// touches them), so an adaptive sweep that defeats most automata on
  /// their first pairs never pays for the whole grid's warm-up.
  std::ptrdiff_t first_unmet(std::size_t g);

  /// Number of pair-grid-g queries with met == false, without
  /// materializing verdicts — the accumulation shape of defeat-density
  /// profiles, where the verdict buffer writes would be the largest
  /// remaining per-query cost. Equals counting met == false over
  /// verify(g). Answered from the verdict memo when this context already
  /// counted the same canonical automaton on the same grid content.
  std::uint64_t count_unmet(std::size_t g);

  /// Gathering verdicts of grid g (any arity, k = 2 included) under the
  /// bound automaton, in query order — each field-for-field what
  /// sim::run_gathering would report for that query, answered by the
  /// k-tuple verdict core over the same warmed orbits the meet API uses.
  /// The span aliases an internal buffer reused by the next
  /// verify_gather() call; cache_hit telemetry as for verify().
  std::span<const GatherVerdict> verify_gather(std::size_t g);

  /// Index of the first query of grid g whose gathering verdict has
  /// gathered == false, or -1 if every query gathers. Early-exits and
  /// (without a cache) prepares lazily, like first_unmet.
  std::ptrdiff_t first_ungathered(std::size_t g);

  /// Number of grid-g queries with gathered == false, without
  /// materializing verdicts. Equals counting gathered == false over
  /// verify_gather(g).
  std::uint64_t count_ungathered(std::size_t g);

  std::size_t grid_count() const { return grids_.size(); }
  /// Telemetry accumulated by this context so far (orbits_extracted sums
  /// over the engines built so far).
  EnumTelemetry telemetry() const;

 private:
  struct Slot {
    std::optional<CompiledConfigEngine> engine;
    OrbitKey tree_key;
    OrbitKey grid_key;  ///< enum_grid_key of the grid
    std::vector<tree::NodeId> warm_starts;  ///< unique starts of the grid
    /// Orbit pointer per start node, refreshed by prepare(): the verdict
    /// loop then reads k pointers per query instead of going through the
    /// engine's epoch-checked orbit() lookup.
    std::vector<const CompiledConfigEngine::Orbit*> orbit_ptr;
    std::uint64_t bound_serial = 0;   ///< engine bound to this binding
    std::uint64_t warmed_serial = 0;  ///< orbits warmed + orbit_ptr valid
    bool cache_hit = false;
    /// Grid qualifies for the meet API: agents == 2 with pairwise
    /// distinct starts per query (precomputed by the constructor).
    bool meet_ok = false;
  };

  /// Flat open-addressed (128-bit key -> count) table, linear-probed,
  /// power-of-two sized, grown at 3/4 load. The all-zero key marks an
  /// empty slot (a real key equal to it is remapped on the way in).
  class VerdictMemo {
   public:
    /// The stored count for `key`, or nullptr.
    const std::uint64_t* find(const OrbitKey& key) const;
    void insert(const OrbitKey& key, std::uint64_t count);

   private:
    struct Entry {
      std::uint64_t hi = 0;
      std::uint64_t lo = 0;
      std::uint64_t count = 0;
    };
    std::vector<Entry> slots_;
    std::size_t filled_ = 0;
  };

  /// Throws unless grid g qualifies for the meet API (see meet_ok).
  void require_meet(std::size_t g) const;
  /// Throws unless an automaton is bound.
  void require_bound() const;
  /// The bound automaton's canonical key (computed once per binding;
  /// counts canonical_collapses).
  const OrbitKey& automaton_key();

  /// Ensures slot g's engine is bound to the current automaton with its
  /// orbits warmed (or adopted from the cache); returns the slot.
  Slot& prepare(std::size_t g);
  /// Binding only (no warm-up, no cache, orbit_ptr not refreshed) — the
  /// lazy path of first_unmet().
  Slot& prepare_scan(std::size_t g);
  /// Prefetch hint: while grid g's queries run, pull grid g + 1's
  /// published set (if any) toward the caches so the next prepare() does
  /// not stall on DRAM. Wrong guesses are harmless.
  void prefetch_next(std::size_t g);

  std::span<const EnumGrid> grids_;
  std::uint64_t max_rounds_;
  OrbitCache* cache_;
  const TabularAutomaton* automaton_ = nullptr;
  std::uint64_t serial_ = 0;
  OrbitKey automaton_key_;
  bool automaton_key_valid_ = false;
  std::vector<Slot> slots_;
  VerdictMemo memo_;
  std::vector<Verdict> verdicts_;
  std::vector<GatherVerdict> gather_verdicts_;
  EnumTelemetry stats_;
};

/// Fans fn(ctx, index) for index in [0, count) across sweep workers, one
/// EnumerationContext per worker, with deterministic result ordering
/// (results[i] == fn(ctx, i) regardless of thread count — automata must
/// therefore be derivable from the index alone, the usual enumeration
/// shape). num_threads == 0 means one worker per hardware thread
/// (RVT_SWEEP_THREADS overrides). Telemetry from every worker context is
/// summed into *telemetry when given. The first exception thrown by fn is
/// rethrown after the workers join.
template <typename Fn>
auto sweep_enumeration(std::span<const EnumGrid> grids, std::uint64_t count,
                       std::uint64_t max_rounds, Fn fn,
                       unsigned num_threads = 0, OrbitCache* cache = nullptr,
                       EnumTelemetry* telemetry = nullptr)
    -> std::vector<std::invoke_result_t<Fn&, EnumerationContext&,
                                        std::uint64_t>> {
  std::mutex stats_mu;
  auto results = sweep_indexed(
      count,
      [&] { return EnumerationContext(grids, max_rounds, cache); },
      [&](EnumerationContext& ctx, std::uint64_t i) { return fn(ctx, i); },
      [&](EnumerationContext& ctx) {
        if (telemetry == nullptr) return;
        const EnumTelemetry t = ctx.telemetry();
        const std::lock_guard<std::mutex> lk(stats_mu);
        telemetry->queries += t.queries;
        telemetry->bindings += t.bindings;
        telemetry->memo_hits += t.memo_hits;
        telemetry->cache_hits += t.cache_hits;
        telemetry->cache_misses += t.cache_misses;
        telemetry->orbits_extracted += t.orbits_extracted;
        telemetry->canonical_collapses += t.canonical_collapses;
        telemetry->tier_retries += t.tier_retries;
        telemetry->tier_exhausted += t.tier_exhausted;
        telemetry->tier_quarantined += t.tier_quarantined;
        telemetry->tier_degraded |= t.tier_degraded;
      },
      num_threads);
  return results;
}

}  // namespace rvt::sim
