#include "dist/serialize.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "util/failpoint.hpp"

static_assert(std::endian::native == std::endian::little,
              "wire codec assumes a little-endian host");

namespace rvt::dist {

namespace {

/// 32-byte frame header. Raw-copied — keep trivially copyable and
/// padding-free.
struct WireHeader {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t kind = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
  std::uint64_t reserved = 0;
};
static_assert(sizeof(WireHeader) == 32);

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

void WireWriter::u16(std::uint16_t v) { raw(&v, sizeof(v)); }
void WireWriter::u32(std::uint32_t v) { raw(&v, sizeof(v)); }
void WireWriter::u64(std::uint64_t v) { raw(&v, sizeof(v)); }

void WireWriter::raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  bytes_.insert(bytes_.end(), b, b + n);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

std::uint8_t WireReader::u8() {
  std::uint8_t v;
  raw(&v, sizeof(v));
  return v;
}
std::uint16_t WireReader::u16() {
  std::uint16_t v;
  raw(&v, sizeof(v));
  return v;
}
std::uint32_t WireReader::u32() {
  std::uint32_t v;
  raw(&v, sizeof(v));
  return v;
}
std::uint64_t WireReader::u64() {
  std::uint64_t v;
  raw(&v, sizeof(v));
  return v;
}

void WireReader::raw(void* p, std::size_t n) {
  if (n > b_.size() - pos_) {
    throw SerializeError("wire: read past end of payload");
  }
  // An empty destination vector passes p == nullptr, which memcpy's
  // contract forbids even for n == 0.
  if (n != 0) std::memcpy(p, b_.data() + pos_, n);
  pos_ += n;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  if (n > b_.size() - pos_) {
    throw SerializeError("wire: string length past end of payload");
  }
  std::string s(reinterpret_cast<const char*>(b_.data() + pos_), n);
  pos_ += n;
  return s;
}

void WireReader::expect_end() const {
  if (pos_ != b_.size()) {
    throw SerializeError("wire: trailing bytes after payload");
  }
}

std::vector<std::uint8_t> frame_payload(
    WireKind kind, std::span<const std::uint8_t> payload) {
  WireHeader h;
  h.magic = kWireMagic;
  h.version = kWireVersion;
  h.kind = static_cast<std::uint16_t>(kind);
  h.payload_bytes = payload.size();
  h.payload_checksum = fnv1a64(payload);
  std::vector<std::uint8_t> out(sizeof(WireHeader) + payload.size());
  std::memcpy(out.data(), &h, sizeof(h));
  if (!payload.empty()) {
    // Empty payloads are legal frames (several service-tier messages are
    // header-only) and an empty span's data() may be null.
    std::memcpy(out.data() + sizeof(h), payload.data(), payload.size());
  }
  return out;
}

FrameInfo validate_frame_header(std::span<const std::uint8_t> header) {
  static_assert(sizeof(WireHeader) == kWireFrameBytes);
  if (header.size() < sizeof(WireHeader)) {
    throw SerializeError("wire: file shorter than header");
  }
  WireHeader h;
  std::memcpy(&h, header.data(), sizeof(h));
  if (h.magic != kWireMagic) {
    throw SerializeError("wire: bad magic");
  }
  if (h.version != kWireVersion) {
    throw WireVersionError("wire: format version " +
                           std::to_string(h.version) +
                           " (this build speaks " +
                           std::to_string(kWireVersion) + ")");
  }
  if (h.reserved != 0) {
    throw SerializeError("wire: reserved header bytes set");
  }
  if (h.payload_bytes > kMaxWirePayloadBytes) {
    throw SerializeError("wire: payload length " +
                         std::to_string(h.payload_bytes) +
                         " exceeds the " +
                         std::to_string(kMaxWirePayloadBytes) +
                         "-byte limit");
  }
  return {static_cast<WireKind>(h.kind), h.payload_bytes,
          h.payload_checksum};
}

std::span<const std::uint8_t> unframe_payload(
    WireKind kind, std::span<const std::uint8_t> file) {
  if (util::failpoint_error("wire.unframe")) {
    throw SerializeError("wire: injected frame-decode fault (wire.unframe)");
  }
  const FrameInfo info = validate_frame_header(file);
  if (info.kind != kind) {
    throw SerializeError("wire: wrong payload kind");
  }
  if (info.payload_bytes != file.size() - kWireFrameBytes) {
    throw SerializeError("wire: payload length mismatch (truncated file?)");
  }
  const std::span<const std::uint8_t> payload =
      file.subspan(kWireFrameBytes);
  if (fnv1a64(payload) != info.payload_checksum) {
    throw SerializeError("wire: payload checksum mismatch");
  }
  return payload;
}

// ---- OrbitSet codec -------------------------------------------------------

std::vector<std::uint8_t> serialize_orbit_set(
    const sim::CompiledConfigEngine::OrbitSet& set) {
  using Orbit = sim::CompiledConfigEngine::Orbit;
  WireWriter w;
  const std::size_t n = set.orbits.size();
  w.u32(static_cast<std::uint32_t>(n));
  w.raw(set.has_orbit.data(), set.has_orbit.size());
  // Per-orbit headers, then the three payload streams back to back.
  // Snapshot and deserialized sets keep each stream in ONE arena, so the
  // stream writes below are (per present orbit) straight memcpys of
  // adjacent windows — near-memcpy serialization is the arena's point.
  std::uint64_t nodes = 0, ports = 0, visits = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (!set.has_orbit[s]) continue;
    const Orbit& o = set.orbits[s];
    w.u64(o.mu);
    w.u64(o.lambda);
    w.u64(o.sn_mu);
    w.u32(o.cycle_root);
    w.u64(o.cycle_phase);
    w.u32(static_cast<std::uint32_t>(o.node.size()));
    w.u32(static_cast<std::uint32_t>(o.in_port.size()));
    w.u32(static_cast<std::uint32_t>(o.first_visit.size()));
    nodes += o.node.size();
    ports += o.in_port.size();
    visits += o.first_visit.size();
  }
  w.u64(nodes);
  w.u64(ports);
  w.u64(visits);
  for (std::size_t s = 0; s < n; ++s) {
    if (set.has_orbit[s]) {
      w.raw(set.orbits[s].node.data(),
            set.orbits[s].node.size() * sizeof(tree::NodeId));
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (set.has_orbit[s]) {
      w.raw(set.orbits[s].in_port.data(),
            set.orbits[s].in_port.size() * sizeof(std::int16_t));
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (set.has_orbit[s]) {
      w.raw(set.orbits[s].first_visit.data(),
            set.orbits[s].first_visit.size() * sizeof(std::uint32_t));
    }
  }
  w.u32(static_cast<std::uint32_t>(set.collisions.size()));
  for (const auto& p : set.collisions) {
    w.u32(p.root_a);
    w.u32(p.root_b);
    w.u32(static_cast<std::uint32_t>(p.table.size()));
    w.raw(p.table.data(), p.table.size());
  }
  w.u8(set.collision_index.empty() ? 0 : 1);
  if (!set.collision_index.empty()) {
    w.u64(set.collision_index.size());
    w.raw(set.collision_index.data(),
          set.collision_index.size() * sizeof(std::int32_t));
  }
  return w.take();
}

std::shared_ptr<const sim::CompiledConfigEngine::OrbitSet>
deserialize_orbit_set(std::span<const std::uint8_t> payload) {
  using Orbit = sim::CompiledConfigEngine::Orbit;
  using OrbitSet = sim::CompiledConfigEngine::OrbitSet;
  WireReader r(payload);
  auto set = std::make_shared<OrbitSet>();
  const std::uint32_t n = r.u32();
  // Bound every size field against the bytes actually present BEFORE
  // allocating from it: a forged count must throw SerializeError here,
  // not length_error/bad_alloc out of a resize (FsOrbitStore::load turns
  // SerializeError into a cache miss; anything else would escape with
  // the cache claim held).
  if (n > r.remaining()) {
    throw SerializeError("orbit set: orbit count exceeds payload");
  }
  set->orbits.resize(n);
  set->has_orbit.resize(n);
  r.raw(set->has_orbit.data(), n);
  for (const std::uint8_t h : set->has_orbit) {
    if (h > 1) throw SerializeError("orbit set: has_orbit flag not 0/1");
  }
  struct Sizes {
    std::uint32_t node, port, visit;
  };
  std::vector<Sizes> sizes(n, {0, 0, 0});
  std::uint64_t nodes = 0, ports = 0, visits = 0;
  std::size_t bytes = sizeof(OrbitSet) + n * (sizeof(Orbit) + 1);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!set->has_orbit[s]) continue;
    Orbit& o = set->orbits[s];
    o.mu = r.u64();
    o.lambda = r.u64();
    o.sn_mu = r.u64();
    o.cycle_root = r.u32();
    o.cycle_phase = r.u64();
    sizes[s] = {r.u32(), r.u32(), r.u32()};
    // The rho shape every producer writes: node/in_port hold the tail
    // plus one cycle (mu + lambda entries, mu >= 1 — the initial
    // configuration cannot recur); a violated invariant means a corrupt
    // or forged payload, which must not reach the verdict loops. The
    // mu check is phrased subtraction-side so a forged mu near 2^64
    // cannot wrap `mu + lambda` back into range.
    if (o.lambda == 0 || o.mu == 0 || sizes[s].node < o.lambda ||
        o.mu != sizes[s].node - o.lambda ||
        sizes[s].port != sizes[s].node || sizes[s].visit != n ||
        o.sn_mu > o.mu || o.cycle_root >= n || o.cycle_phase >= o.lambda) {
      throw SerializeError("orbit set: inconsistent orbit header");
    }
    nodes += sizes[s].node;
    ports += sizes[s].port;
    visits += sizes[s].visit;
  }
  if (nodes != r.u64() || ports != r.u64() || visits != r.u64()) {
    throw SerializeError("orbit set: arena totals disagree with headers");
  }
  if (nodes * sizeof(tree::NodeId) > r.remaining() ||
      ports * sizeof(std::int16_t) > r.remaining() ||
      visits * sizeof(std::uint32_t) > r.remaining()) {
    throw SerializeError("orbit set: arena sizes exceed payload");
  }
  set->node_arena.resize(nodes);
  set->port_arena.resize(ports);
  set->visit_arena.resize(visits);
  r.raw(set->node_arena.data(), nodes * sizeof(tree::NodeId));
  r.raw(set->port_arena.data(), ports * sizeof(std::int16_t));
  r.raw(set->visit_arena.data(), visits * sizeof(std::uint32_t));
  std::size_t no = 0, po = 0, vo = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!set->has_orbit[s]) continue;
    Orbit& o = set->orbits[s];
    o.node.bind_external(set->node_arena.data() + no, sizes[s].node);
    no += sizes[s].node;
    o.in_port.bind_external(set->port_arena.data() + po, sizes[s].port);
    po += sizes[s].port;
    o.first_visit.bind_external(set->visit_arena.data() + vo,
                                sizes[s].visit);
    vo += sizes[s].visit;
    for (const tree::NodeId v : o.node) {
      if (v < 0 || static_cast<std::uint32_t>(v) >= n) {
        throw SerializeError("orbit set: node id out of range");
      }
    }
    bytes += sizes[s].node * sizeof(tree::NodeId) +
             sizes[s].port * sizeof(std::int16_t) +
             sizes[s].visit * sizeof(std::uint32_t);
  }
  const std::uint32_t pairs = r.u32();
  if (static_cast<std::uint64_t>(pairs) * 12 > r.remaining()) {
    throw SerializeError("orbit set: collision count exceeds payload");
  }
  set->collisions.resize(pairs);
  // Tables land in one arena and are bound as windows into it, like the
  // orbit payloads, once it has stopped growing.
  std::vector<std::uint8_t>& tables = set->collision_arena;
  std::vector<std::uint32_t> lens(pairs);
  for (std::uint32_t i = 0; i < pairs; ++i) {
    auto& p = set->collisions[i];
    p.root_a = r.u32();
    p.root_b = r.u32();
    if (p.root_a >= n || p.root_b >= n) {
      throw SerializeError("orbit set: collision root out of range");
    }
    lens[i] = r.u32();
    if (lens[i] > r.remaining()) {
      throw SerializeError("orbit set: collision table exceeds payload");
    }
    if (lens[i] > 0) {
      const std::size_t at = tables.size();
      tables.resize(at + lens[i]);
      r.raw(tables.data() + at, lens[i]);
    }
    bytes += sizeof(sim::CompiledConfigEngine::CyclePair) + lens[i];
  }
  tables.shrink_to_fit();
  for (std::size_t i = 0, co = 0; i < pairs; co += lens[i], ++i) {
    set->collisions[i].table.bind_external(tables.data() + co, lens[i]);
  }
  if (r.u8() != 0) {
    const std::uint64_t entries = r.u64();
    if (entries != static_cast<std::uint64_t>(n) * n ||
        entries * sizeof(std::int32_t) > r.remaining()) {
      throw SerializeError("orbit set: collision index size mismatch");
    }
    set->collision_index.resize(entries);
    r.raw(set->collision_index.data(), entries * sizeof(std::int32_t));
    for (const std::int32_t idx : set->collision_index) {
      if (idx < -1 || idx >= static_cast<std::int32_t>(pairs)) {
        throw SerializeError("orbit set: collision index out of range");
      }
    }
    bytes += entries * sizeof(std::int32_t);
  }
  r.expect_end();
  set->bytes = bytes;
  return set;
}

// ---- file helpers ---------------------------------------------------------

bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  // Unique temp name in the TARGET directory (rename is only atomic
  // within one filesystem); pid + address salt keeps concurrent writers
  // of one key from clobbering each other's temp file.
  char salt[48];
  std::snprintf(salt, sizeof(salt), ".tmp.%d.%p", static_cast<int>(getpid()),
                static_cast<const void*>(bytes.data()));
  const std::string tmp = path + salt;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  is.seekg(0, std::ios::end);
  const std::streamoff len = is.tellg();
  if (len < 0) return std::nullopt;
  is.seekg(0, std::ios::beg);
  bytes.resize(static_cast<std::size_t>(len));
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!is.good() && !is.eof()) return std::nullopt;
  if (is.gcount() != static_cast<std::streamsize>(bytes.size())) {
    return std::nullopt;
  }
  return bytes;
}

// ---- the filesystem cache tier --------------------------------------------

std::string hex128(std::uint64_t hi, std::uint64_t lo) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::string orbit_key_hex(const sim::OrbitKey& key) {
  return hex128(key.hi, key.lo);
}

FsOrbitStore::FsOrbitStore(std::string dir, util::RetryPolicy retry)
    : dir_(std::move(dir)), retry_(std::move(retry)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort
}

std::string FsOrbitStore::path_for(const sim::OrbitKey& key) const {
  return dir_ + "/" + orbit_key_hex(key) + ".orbs";
}

void FsOrbitStore::note_exhausted() {
  exhausted_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t streak =
      failure_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= kDegradeAfter) {
    degraded_.store(true, std::memory_order_relaxed);
  }
}

void FsOrbitStore::note_ok() {
  failure_streak_.store(0, std::memory_order_relaxed);
}

void FsOrbitStore::quarantine(const std::string& path) {
  // A unique suffix per quarantine keeps successive corruptions of a
  // re-published key from clobbering each other's evidence; rename stays
  // within the directory so it is atomic, and a losing racer's failure
  // is fine — the file is gone either way.
  const std::uint64_t n =
      quarantined_.fetch_add(1, std::memory_order_relaxed);
  const std::string aside = path + ".quarantined-" + std::to_string(n);
  std::error_code ec;
  std::filesystem::rename(path, aside, ec);
  if (ec) {
    quarantined_.fetch_sub(1, std::memory_order_relaxed);
    std::filesystem::remove(path, ec);  // last resort: stop the re-fail loop
  }
}

std::shared_ptr<const sim::CompiledConfigEngine::OrbitSet> FsOrbitStore::load(
    const sim::OrbitKey& key) {
  if (degraded_.load(std::memory_order_relaxed)) return nullptr;
  const std::string path = path_for(key);
  loads_.fetch_add(1, std::memory_order_relaxed);
  // Transient-failure half: distinguish ABSENT (a genuine miss — no
  // retry, the common case) from an EXISTING file that cannot be read
  // (retried on the backoff schedule).
  std::optional<std::vector<std::uint8_t>> bytes;
  util::RetryStats rs;
  const bool ok = util::retry_bool(retry_, &rs, [&] {
    if (util::failpoint_error("fs_store.load")) return false;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      bytes.reset();
      return true;  // miss, not a failure
    }
    bytes = read_file(path);
    return bytes.has_value();
  });
  retries_.fetch_add(rs.retries, std::memory_order_relaxed);
  if (!ok) {
    read_failures_.fetch_add(1, std::memory_order_relaxed);
    note_exhausted();
    return nullptr;
  }
  // A genuine miss is NEUTRAL for the degradation streak: exists()
  // succeeding proves nothing about read/write health, and the common
  // load-miss / store-fail alternation of a write-dead tier must not
  // keep resetting the streak below the threshold.
  if (!bytes.has_value()) return nullptr;
  note_ok();
  try {
    if (util::failpoint_error("fs_store.load.decode")) {
      throw SerializeError("injected decode fault (fs_store.load.decode)");
    }
    return deserialize_orbit_set(
        unframe_payload(WireKind::kOrbitSet, *bytes));
  } catch (const std::exception&) {
    // Torn/corrupt/foreign-version file == tier miss. The codec throws
    // SerializeError for everything it detects, but the contract — a
    // broken tier entry must never escape into the sweep with the cache
    // claim held — is worth the belt-and-suspenders catch (bad_alloc
    // from a forged size the checks missed, filesystem surprises).
    // Decoding is deterministic, so the file can never serve this key:
    // quarantine it instead of re-reading and re-failing on every miss.
    decode_failures_.fetch_add(1, std::memory_order_relaxed);
    quarantine(path);
    return nullptr;
  }
}

void FsOrbitStore::store(
    const sim::OrbitKey& key,
    const std::shared_ptr<const sim::CompiledConfigEngine::OrbitSet>& set) {
  if (set == nullptr || degraded_.load(std::memory_order_relaxed)) return;
  const std::vector<std::uint8_t> framed =
      frame_payload(WireKind::kOrbitSet, serialize_orbit_set(*set));
  const std::string path = path_for(key);
  stores_.fetch_add(1, std::memory_order_relaxed);
  util::RetryStats rs;
  const bool ok = util::retry_bool(retry_, &rs, [&] {
    if (util::failpoint_error("fs_store.store")) return false;
    return write_file_atomic(path, framed);
  });
  retries_.fetch_add(rs.retries, std::memory_order_relaxed);
  if (!ok) {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
    note_exhausted();
    return;  // best effort: the in-memory tier stays authoritative
  }
  note_ok();
}

FsOrbitStore::Stats FsOrbitStore::stats() const {
  Stats s;
  s.loads = loads_.load(std::memory_order_relaxed);
  s.read_failures = read_failures_.load(std::memory_order_relaxed);
  s.decode_failures = decode_failures_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.store_failures = store_failures_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.exhausted = exhausted_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  return s;
}

sim::OrbitTierFaultStats FsOrbitStore::fault_stats() const {
  const Stats s = stats();
  return {s.retries, s.exhausted, s.quarantined, s.degraded};
}

}  // namespace rvt::dist
