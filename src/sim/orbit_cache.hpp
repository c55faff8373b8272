// Sharded cross-worker orbit cache.
//
// Exhaustive enumeration fans (automaton x instance) grids across sweep
// workers, and each worker owns a private CompiledConfigEngine — so
// without coordination the same (tree, automaton) binding's orbits are
// extracted once per WORKER whenever a binding is visited by more than
// one of them (grids spanning chunks, repeated profile passes, warm-up +
// timed runs). OrbitCache makes extraction once-per-MACHINE: workers
// publish the immutable OrbitSet they extracted (orbits + collision
// tables) under a 128-bit content key of the binding, and every other
// worker adopts the published set read-only.
//
// Concurrency design:
//  * N shards, selected by key hash. Each shard keeps its published
//    entries in a fixed-capacity open-addressed table of atomic entry
//    pointers — the HIT path linear-probes it lock-free (acquire loads
//    only; entries are immutable and never removed within an epoch, so
//    probing is sound without any reader coordination). Capacity is fixed
//    up front: an enumeration knows its scale, and a growable lock-free
//    table is complexity the workloads don't need — a full shard simply
//    rejects further publishes (counted).
//  * Misses take the shard mutex. The first worker to miss a key CLAIMS
//    it (acquire() returns nullptr) and must publish() or abandon() it;
//    workers that miss a claimed key block on the shard condition
//    variable until the publisher finishes, then adopt the published set
//    — so no orbit set is ever extracted twice for one (key, epoch),
//    which the concurrency tests assert via engine extraction counters.
//    (If a publish is rejected over budget, or a claim abandoned, the
//    blocked workers re-contend and one of them extracts — the
//    no-duplicate guarantee is best-effort only once the budget is hit.)
//  * Epochs invalidate in O(1): advance_epoch() bumps the epoch counter
//    and frees stale entries. It is NOT safe concurrently with
//    acquire/publish — quiesce workers between sweeps first (the
//    enumeration harness does: epochs advance between phases, never
//    inside one).
//
// The memory budget caps the bytes of published sets; past it, publishes
// are rejected (counted in stats) and workers simply keep their private
// extraction — the cache degrades to a no-op rather than evicting under
// readers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/compiled.hpp"

namespace rvt::sim {

/// 128-bit content key identifying one (tree, automaton) binding. Two
/// independent 64-bit FNV-1a streams over the serialized tables make an
/// accidental collision astronomically unlikely at enumeration scale
/// (~2^-65 per pair of distinct bindings).
struct OrbitKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const OrbitKey&, const OrbitKey&) = default;
};

/// Content hash of a tree's port-labeled structure (degree sequence +
/// (neighbor, reverse port) per port). Compute once per tree and combine
/// with automaton keys — hashing the tree per rebind would waste the
/// zero-allocation sweep loop.
OrbitKey tree_orbit_key(const tree::Tree& t);
/// Content hash of an automaton's tables.
OrbitKey automaton_orbit_key(const TabularAutomaton& a);
/// Content hash of the automaton's canonical reachable form
/// (sim::canonical_reachable_form): enumerated bindings that differ only
/// in unreachable states, state numbering, impossible-input entries or
/// degree-equivalent actions hash to ONE key, so the cache extracts and
/// publishes their (identical) orbits once. The enumeration pipeline
/// keys bindings with this; verdicts are unchanged because key-equal
/// automata produce identical trajectories on every tree the binding
/// can query.
OrbitKey canonical_automaton_key(const TabularAutomaton& a);
/// Order-sensitive combination of two keys.
OrbitKey combine_orbit_keys(const OrbitKey& tree, const OrbitKey& automaton);

/// The incremental hash every key above is built from: two independent
/// FNV-1a streams (different offset bases and an extra avalanche) fed
/// the same serialized words. Exposed so other content keys (the
/// enumeration pipeline's verdict-memo grid key) hash the same way.
struct OrbitKeyHasher {
  std::uint64_t hi = 0xcbf29ce484222325ull;
  std::uint64_t lo = 0x9e3779b97f4a7c15ull;
  void feed(std::uint64_t word) {
    hi = (hi ^ word) * 0x100000001b3ull;
    lo = (lo ^ (word * 0xff51afd7ed558ccdull)) * 0xc4ceb9fe1a85ec53ull;
    lo ^= lo >> 33;
  }
  OrbitKey key() const { return {hi, lo}; }
};

/// Fault-handling counters of a durable tier. Every OrbitStore reports
/// them (zeros when the implementation has no fault handling) so the
/// shard runner can surface retry/degradation telemetry without knowing
/// the concrete tier — the counters ride EnumTelemetry into journal-run
/// output and the bench-report `faults` block.
struct OrbitTierFaultStats {
  std::uint64_t retries = 0;      ///< transient IO failures re-attempted
  std::uint64_t exhausted = 0;    ///< operations that failed every attempt
  std::uint64_t quarantined = 0;  ///< corrupt tier files renamed aside
  bool degraded = false;          ///< tier disabled itself (compute-through)
};

/// Durable second tier behind an OrbitCache: a key-value store of
/// published OrbitSets shared ACROSS processes (dist/serialize.hpp's
/// FsOrbitStore backs it with one file per 128-bit content key on a
/// shared filesystem). The cache consults it with the claim already
/// held, so the claim/publish discipline extends across the machine
/// boundary: at most one worker PER PROCESS pays the load, and every
/// in-memory publish is forwarded for other processes to adopt.
class OrbitStore {
 public:
  virtual ~OrbitStore() = default;
  /// Fault counters accumulated so far; default: a tier with no fault
  /// handling reports zeros.
  virtual OrbitTierFaultStats fault_stats() const { return {}; }
  /// The stored set for `key`, or nullptr when absent — and on ANY
  /// failure (unreadable, truncated, corrupt): a broken tier entry must
  /// degrade to a cache miss, never into an exception on the sweep path.
  virtual std::shared_ptr<const CompiledConfigEngine::OrbitSet> load(
      const OrbitKey& key) = 0;
  /// Best-effort durable publish; failures are swallowed (the in-memory
  /// tier stays authoritative). Implementations must publish atomically
  /// (write-temp + rename) so concurrent writers of one key — identical
  /// payloads by content addressing — can never expose a torn file.
  virtual void store(
      const OrbitKey& key,
      const std::shared_ptr<const CompiledConfigEngine::OrbitSet>& set) = 0;
};

class OrbitCache {
 public:
  using OrbitSet = CompiledConfigEngine::OrbitSet;

  struct Stats {
    std::uint64_t hits = 0;       ///< acquire served a published set
    std::uint64_t misses = 0;     ///< acquire granted a claim
    std::uint64_t waits = 0;      ///< acquire blocked on another's claim
    std::uint64_t publishes = 0;  ///< sets accepted into the cache
    std::uint64_t rejects = 0;    ///< publishes dropped (budget/capacity)
    std::uint64_t tier_hits = 0;    ///< claims served by the backing tier
    std::uint64_t tier_stores = 0;  ///< publishes forwarded to the tier
  };

  /// `shard_count` is rounded up to a power of two (default 16);
  /// `capacity` is the total entry budget across shards (rounded so each
  /// shard's table is a power of two; default 2^17 entries ~ 1 MiB of
  /// slots); `max_bytes` caps the approximate footprint of published sets
  /// (default 2 GiB — far above the batteries' needs, so rejects only
  /// guard runaway workloads).
  explicit OrbitCache(unsigned shard_count = 16,
                      std::size_t capacity = std::size_t{1} << 17,
                      std::size_t max_bytes = std::size_t{1} << 31);
  ~OrbitCache();

  OrbitCache(const OrbitCache&) = delete;
  OrbitCache& operator=(const OrbitCache&) = delete;

  /// Attaches a durable backing tier (not owned; must outlive the
  /// cache). acquire() consults it before granting a claim — a tier hit
  /// is published into the memory table and served like any other hit —
  /// and publish() forwards accepted sets to it. NOT thread-safe: attach
  /// before the workers start, like the constructor parameters.
  void set_backing(OrbitStore* store) { backing_ = store; }

  /// The attached tier (or nullptr) — the shard runner reads its fault
  /// counters through this after a run.
  OrbitStore* backing() const { return backing_; }

  /// Lock-free on hit: the published set for `key` in the current epoch.
  /// On miss the backing tier (if any) is consulted — a tier hit is
  /// published and returned like a memory hit. Otherwise the caller
  /// becomes the key's PUBLISHER (returns nullptr) and must call
  /// publish() or abandon() for the same key — other workers asking for
  /// it block until then.
  std::shared_ptr<const OrbitSet> acquire(const OrbitKey& key);

  /// Non-claiming lock-free probe: the published set or nullptr, with no
  /// claim, no blocking and no stats. The raw pointer stays valid until
  /// advance_epoch() (entries are never freed within an epoch) — the
  /// prefetch hint path of the enumeration pipeline, not a substitute
  /// for acquire().
  const OrbitSet* peek(const OrbitKey& key) const;

  /// Publishes the claimed key's set and wakes its waiters. Over budget
  /// the set is dropped (waiters wake, re-contend, and one re-extracts).
  void publish(const OrbitKey& key, std::shared_ptr<const OrbitSet> set);

  /// Releases a claim without publishing (extraction failed); waiters
  /// re-contend for the claim.
  void abandon(const OrbitKey& key);

  /// Invalidates every entry and frees them. Requires quiescence: no
  /// concurrent acquire/publish, no outstanding claims.
  void advance_epoch();

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  std::size_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  Stats stats() const;

 private:
  struct Node {
    OrbitKey key;
    std::uint64_t epoch = 0;
    std::shared_ptr<const OrbitSet> set;
  };
  /// One probe slot: the key mirror lives next to the pointer so a probe
  /// costs one cache line, not a Node dereference per compared entry.
  /// The publisher writes hi/lo before the release store of node (under
  /// the shard mutex); readers only read them after an acquire load sees
  /// node != nullptr, so the mirrors are race-free.
  struct Slot {
    std::atomic<Node*> node{nullptr};
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
  };
  struct Shard {
    /// Open-addressed, linear-probed, power-of-two sized. Slots go from
    /// nullptr to a published Node exactly once per epoch (store-release
    /// under the shard mutex); readers probe with acquire loads only.
    std::vector<Slot> slots;
    std::size_t filled = 0;  ///< guarded by mu
    std::mutex mu;
    std::condition_variable cv;
    std::vector<OrbitKey> claimed;  ///< keys currently being extracted
  };

  /// The memory-table half of publish(): releases the claim, installs
  /// the entry, wakes waiters. publish() additionally forwards to the
  /// backing tier; the tier-hit path of acquire() must not (it would
  /// re-store the bytes it just loaded).
  void publish_local(const OrbitKey& key, std::shared_ptr<const OrbitSet> set);

  Shard& shard_for(const OrbitKey& key);
  const Shard& shard_for(const OrbitKey& key) const;
  static std::size_t probe_start(const Shard& sh, const OrbitKey& key);
  /// Lock-free probe for `key`; returns the node or nullptr.
  static const Node* find(const Shard& sh, const OrbitKey& key,
                          std::uint64_t epoch);

  std::vector<Shard> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t max_bytes_ = 0;
  OrbitStore* backing_ = nullptr;
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, waits_{0}, publishes_{0},
      rejects_{0}, tier_hits_{0}, tier_stores_{0};
};

}  // namespace rvt::sim
