#include "sim/orbit_cache.hpp"

#include <algorithm>
#include <bit>

namespace rvt::sim {

OrbitKey tree_orbit_key(const tree::Tree& t) {
  OrbitKeyHasher h;
  const tree::NodeId n = t.node_count();
  h.feed(static_cast<std::uint64_t>(n));
  for (tree::NodeId v = 0; v < n; ++v) {
    const int d = t.degree(v);
    h.feed(static_cast<std::uint64_t>(d));
    for (tree::Port p = 0; p < d; ++p) {
      h.feed((static_cast<std::uint64_t>(t.neighbor(v, p)) << 16) |
             static_cast<std::uint64_t>(t.reverse_port(v, p)));
    }
  }
  return h.key();
}

OrbitKey automaton_orbit_key(const TabularAutomaton& a) {
  OrbitKeyHasher h;
  h.feed(static_cast<std::uint64_t>(a.initial));
  h.feed(static_cast<std::uint64_t>(a.max_degree));
  h.feed(static_cast<std::uint64_t>(a.delta.size()));
  for (const int x : a.delta) {
    h.feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
  }
  for (const int x : a.lambda) {
    h.feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)) ^
           0xa5a5a5a5a5a5a5a5ull);
  }
  return h.key();
}

OrbitKey canonical_automaton_key(const TabularAutomaton& a) {
  return automaton_orbit_key(canonical_reachable_form(a));
}

OrbitKey combine_orbit_keys(const OrbitKey& tree, const OrbitKey& automaton) {
  OrbitKeyHasher h;
  h.feed(tree.hi);
  h.feed(tree.lo);
  h.feed(automaton.hi);
  h.feed(automaton.lo);
  return h.key();
}

OrbitCache::OrbitCache(unsigned shard_count, std::size_t capacity,
                       std::size_t max_bytes)
    : shards_(std::bit_ceil(std::max<std::size_t>(shard_count, 1))),
      shard_mask_(shards_.size() - 1),
      max_bytes_(max_bytes) {
  const std::size_t per_shard = std::bit_ceil(
      std::max<std::size_t>(capacity / shards_.size(), 8));
  for (Shard& sh : shards_) {
    sh.slots = std::vector<Slot>(per_shard);
  }
}

OrbitCache::~OrbitCache() {
  for (Shard& sh : shards_) {
    for (Slot& slot : sh.slots) {
      delete slot.node.load(std::memory_order_relaxed);
    }
  }
}

OrbitCache::Shard& OrbitCache::shard_for(const OrbitKey& key) {
  return shards_[static_cast<std::size_t>(key.lo >> 53) & shard_mask_];
}

const OrbitCache::Shard& OrbitCache::shard_for(const OrbitKey& key) const {
  return shards_[static_cast<std::size_t>(key.lo >> 53) & shard_mask_];
}

const OrbitCache::OrbitSet* OrbitCache::peek(const OrbitKey& key) const {
  const Node* n =
      find(shard_for(key), key, epoch_.load(std::memory_order_acquire));
  return n != nullptr ? n->set.get() : nullptr;
}

std::size_t OrbitCache::probe_start(const Shard& sh, const OrbitKey& key) {
  return static_cast<std::size_t>(key.hi) & (sh.slots.size() - 1);
}

const OrbitCache::Node* OrbitCache::find(const Shard& sh,
                                         const OrbitKey& key,
                                         std::uint64_t epoch) {
  const std::size_t mask = sh.slots.size() - 1;
  for (std::size_t i = probe_start(sh, key);;
       i = (i + 1) & mask) {
    const Slot& slot = sh.slots[i];
    const Node* n = slot.node.load(std::memory_order_acquire);
    if (n == nullptr) return nullptr;  // key absent: slots fill front-first
    if (slot.hi == key.hi && slot.lo == key.lo && n->epoch == epoch) {
      return n;
    }
  }
}

std::shared_ptr<const OrbitCache::OrbitSet> OrbitCache::acquire(
    const OrbitKey& key) {
  Shard& sh = shard_for(key);
  const std::uint64_t ep = epoch_.load(std::memory_order_acquire);
  // Hit fast path: slots go empty -> published exactly once per epoch and
  // entries are immutable, so a lock-free linear probe suffices.
  if (const Node* n = find(sh, key, ep); n != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return n->set;
  }
  std::unique_lock<std::mutex> lk(sh.mu);
  for (;;) {
    // Re-check under the lock: a publisher may have finished while we
    // queued on the mutex (or while we waited on the condvar).
    if (const Node* n = find(sh, key, ep); n != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return n->set;
    }
    const auto claim =
        std::find(sh.claimed.begin(), sh.claimed.end(), key);
    if (claim == sh.claimed.end()) {
      sh.claimed.push_back(key);
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (backing_ != nullptr) {
        // Consult the durable tier WITH the claim held (and the shard
        // unlocked — the load is IO): workers racing for this key block
        // on the condvar exactly as for a local extraction, so one
        // process-wide load serves them all.
        lk.unlock();
        std::shared_ptr<const OrbitSet> set = backing_->load(key);
        if (set != nullptr) {
          tier_hits_.fetch_add(1, std::memory_order_relaxed);
          // Install for the waiters (publish_local releases the claim;
          // a budget reject only means the table stays cold) and serve
          // the caller directly from the loaded set either way.
          publish_local(key, set);
          return set;
        }
        return nullptr;  // tier miss: caller extracts and publishes
      }
      return nullptr;  // caller is now the publisher
    }
    waits_.fetch_add(1, std::memory_order_relaxed);
    sh.cv.wait(lk);
  }
}

void OrbitCache::publish(const OrbitKey& key,
                         std::shared_ptr<const OrbitSet> set) {
  // Forward to the durable tier BEFORE the local install wakes waiters:
  // the store is IO and nothing blocks on it, while waiters woken first
  // would race ahead of the bytes other processes need.
  if (backing_ != nullptr && set != nullptr) {
    backing_->store(key, set);
    tier_stores_.fetch_add(1, std::memory_order_relaxed);
  }
  publish_local(key, std::move(set));
}

void OrbitCache::publish_local(const OrbitKey& key,
                               std::shared_ptr<const OrbitSet> set) {
  Shard& sh = shard_for(key);
  {
    const std::lock_guard<std::mutex> lk(sh.mu);
    const auto claim =
        std::find(sh.claimed.begin(), sh.claimed.end(), key);
    if (claim != sh.claimed.end()) sh.claimed.erase(claim);
    const std::size_t sz = set != nullptr ? set->bytes : 0;
    // Keep the probe table under 7/8 load so lookups stay short.
    const bool fits =
        set != nullptr &&
        bytes_.load(std::memory_order_relaxed) + sz <= max_bytes_ &&
        sh.filled + 1 <= sh.slots.size() - sh.slots.size() / 8;
    if (fits) {
      const std::size_t mask = sh.slots.size() - 1;
      std::size_t i = probe_start(sh, key);
      while (sh.slots[i].node.load(std::memory_order_relaxed) != nullptr) {
        i = (i + 1) & mask;
      }
      Node* node = new Node{key, epoch_.load(std::memory_order_relaxed),
                            std::move(set)};
      sh.slots[i].hi = key.hi;
      sh.slots[i].lo = key.lo;
      sh.slots[i].node.store(node, std::memory_order_release);
      ++sh.filled;
      bytes_.fetch_add(sz, std::memory_order_relaxed);
      publishes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      rejects_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  sh.cv.notify_all();
}

void OrbitCache::abandon(const OrbitKey& key) {
  Shard& sh = shard_for(key);
  {
    const std::lock_guard<std::mutex> lk(sh.mu);
    const auto claim =
        std::find(sh.claimed.begin(), sh.claimed.end(), key);
    if (claim != sh.claimed.end()) sh.claimed.erase(claim);
  }
  sh.cv.notify_all();
}

void OrbitCache::advance_epoch() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (Shard& sh : shards_) {
    const std::lock_guard<std::mutex> lk(sh.mu);
    for (Slot& slot : sh.slots) {
      delete slot.node.exchange(nullptr, std::memory_order_acq_rel);
      slot.hi = 0;
      slot.lo = 0;
    }
    sh.filled = 0;
  }
  bytes_.store(0, std::memory_order_relaxed);
}

OrbitCache::Stats OrbitCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed),
          waits_.load(std::memory_order_relaxed),
          publishes_.load(std::memory_order_relaxed),
          rejects_.load(std::memory_order_relaxed),
          tier_hits_.load(std::memory_order_relaxed),
          tier_stores_.load(std::memory_order_relaxed)};
}

}  // namespace rvt::sim
