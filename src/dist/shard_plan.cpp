#include "dist/shard_plan.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace rvt::dist {

namespace {

/// Two independent FNV-1a streams fed the same words — the same
/// construction as the orbit cache's content keys.
struct Hash2 {
  std::uint64_t hi = 0xcbf29ce484222325ull;
  std::uint64_t lo = 0x9e3779b97f4a7c15ull;
  void feed(std::uint64_t word) {
    hi = (hi ^ word) * 0x100000001b3ull;
    lo = (lo ^ (word * 0xff51afd7ed558ccdull)) * 0xc4ceb9fe1a85ec53ull;
    lo ^= lo >> 33;
  }
  void feed_str(const std::string& s) {
    feed(s.size());
    for (const char c : s) feed(static_cast<std::uint8_t>(c));
  }
  ShardId id() const { return {hi, lo}; }
};

ShardId derive_shard_id(const ShardId& fingerprint, std::uint64_t begin,
                        std::uint64_t end) {
  Hash2 h;
  h.feed(fingerprint.hi);
  h.feed(fingerprint.lo);
  h.feed(begin);
  h.feed(end);
  return h.id();
}

}  // namespace

std::string shard_id_hex(const ShardId& id) { return hex128(id.hi, id.lo); }

ShardId workload_fingerprint(const EnumWorkload& w) {
  RVT_OBS_SPAN("dist.shard_plan.fingerprint");
  Hash2 h;
  h.feed(kWireVersion);  // the code schema: bump invalidates every plan
  h.feed_str(w.spec());
  h.feed(w.count());
  h.feed(w.max_rounds());
  for (const sim::EnumGrid& g : w.grids()) {
    const sim::OrbitKey tk = sim::tree_orbit_key(*g.tree);
    h.feed(tk.hi);
    h.feed(tk.lo);
    h.feed(g.agents);
    h.feed(g.starts.size());
    for (const tree::NodeId s : g.starts) {
      h.feed(static_cast<std::uint64_t>(s));
    }
    for (const std::uint64_t d : g.delays) h.feed(d);
  }
  return h.id();
}

ShardPlan make_shard_plan(const EnumWorkload& w, unsigned shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("make_shard_plan: shard_count must be >= 1");
  }
  const std::uint64_t count = w.count();
  if (count == 0) {
    throw std::invalid_argument("make_shard_plan: empty workload");
  }
  ShardPlan plan;
  plan.workload_spec = w.spec();
  plan.count = count;
  plan.max_rounds = w.max_rounds();
  plan.fingerprint = workload_fingerprint(w);
  const std::uint64_t shards =
      std::min<std::uint64_t>(shard_count, count);
  for (std::uint64_t i = 0; i < shards; ++i) {
    ShardSpec spec;
    spec.begin = count * i / shards;
    spec.end = count * (i + 1) / shards;
    spec.id = derive_shard_id(plan.fingerprint, spec.begin, spec.end);
    plan.shards.push_back(spec);
  }
  return plan;
}

std::vector<std::uint8_t> serialize_plan(const ShardPlan& plan) {
  WireWriter w;
  w.str(plan.workload_spec);
  w.u64(plan.count);
  w.u64(plan.max_rounds);
  w.u64(plan.fingerprint.hi);
  w.u64(plan.fingerprint.lo);
  w.u32(static_cast<std::uint32_t>(plan.shards.size()));
  for (const ShardSpec& s : plan.shards) {
    w.u64(s.begin);
    w.u64(s.end);
    w.u64(s.id.hi);
    w.u64(s.id.lo);
  }
  return w.take();
}

ShardPlan deserialize_plan(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  ShardPlan plan;
  plan.workload_spec = r.str();
  plan.count = r.u64();
  plan.max_rounds = r.u64();
  plan.fingerprint.hi = r.u64();
  plan.fingerprint.lo = r.u64();
  const std::uint32_t shards = r.u32();
  plan.shards.resize(shards);
  for (ShardSpec& s : plan.shards) {
    s.begin = r.u64();
    s.end = r.u64();
    s.id.hi = r.u64();
    s.id.lo = r.u64();
  }
  r.expect_end();
  // Structural validation: shards must partition [0, count) contiguously
  // and every id must re-derive from (fingerprint, range) — a plan that
  // fails either was tampered with or written by a foreign build.
  if (plan.shards.empty() || plan.count == 0) {
    throw SerializeError("shard plan: empty");
  }
  std::uint64_t expect = 0;
  for (const ShardSpec& s : plan.shards) {
    if (s.begin != expect || s.end <= s.begin || s.end > plan.count) {
      throw SerializeError("shard plan: shards do not partition [0, count)");
    }
    if (!(s.id == derive_shard_id(plan.fingerprint, s.begin, s.end))) {
      throw SerializeError("shard plan: shard id does not re-derive");
    }
    expect = s.end;
  }
  if (expect != plan.count) {
    throw SerializeError("shard plan: shards do not cover count");
  }
  return plan;
}

void write_plan(const std::string& path, const ShardPlan& plan) {
  const std::vector<std::uint8_t> framed =
      frame_payload(WireKind::kShardPlan, serialize_plan(plan));
  if (!write_file_atomic(path, framed)) {
    throw SerializeError("shard plan: cannot write " + path);
  }
}

ShardPlan load_plan(const std::string& path) {
  RVT_OBS_SPAN("dist.shard_plan.load");
  const auto bytes = read_file(path);
  if (!bytes.has_value()) {
    throw SerializeError("shard plan: cannot read " + path);
  }
  return deserialize_plan(unframe_payload(WireKind::kShardPlan, *bytes));
}

}  // namespace rvt::dist
