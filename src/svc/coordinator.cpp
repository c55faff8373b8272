#include "svc/coordinator.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <variant>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/protocol.hpp"
#include "util/bench_report.hpp"

namespace rvt::svc {

namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

double seconds_since(std::chrono::steady_clock::time_point t,
                     std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - t).count();
}

std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// One scalar of a ServiceReport as both renderings show it. Integers
/// render as integers in JSON; a Prometheus gauge renders its value as a
/// real, a counter as an integer.
struct ReportRow {
  enum Type : std::uint8_t { kCounter, kGauge };
  const char* json;
  std::variant<std::uint64_t, double> value;
  const char* prom = nullptr;  ///< nullptr for a JSON-only row
  Type type = kGauge;
  /// Prometheus leads with the run's identity (uptime, campaign id).
  bool prom_first = false;
};

/// The scalars of `r`, in JSON order.
std::vector<ReportRow> report_rows(const ServiceReport& r) {
  constexpr auto C = ReportRow::kCounter, G = ReportRow::kGauge;
  const double first_survivor_ms =
      r.delay.time_to_first_survivor_ns < 0
          ? -1.0
          : static_cast<double>(r.delay.time_to_first_survivor_ns) / 1e6;
  return {
      {"shards_total", r.shards_total, "rvt_shards_total", G},
      {"shards_completed", r.shards_completed, "rvt_shards_completed", G},
      {"shards_leased", r.shards_leased, "rvt_shards_leased", G},
      {"shards_pending", r.shards_pending, "rvt_shards_pending", G},
      {"shards_requeued", r.shards_requeued, "rvt_shards_requeued", C},
      {"shards_quarantined", r.shards_quarantined, "rvt_shards_quarantined", C},
      {"leases_granted", r.leases_granted, "rvt_leases_granted", C},
      {"lease_expiries", r.lease_expiries, "rvt_lease_expiries", C},
      {"runners_seen", r.runners_seen, "rvt_runners_seen", C},
      {"total_indices", r.total_indices},
      {"committed_indices", r.committed_indices, "rvt_committed_indices", C},
      {"committed_defeats", r.committed_defeats, "rvt_committed_defeats", C},
      {"journal_bytes_streamed", r.journal_bytes_streamed,
       "rvt_journal_bytes_streamed", C},
      {"cache_tier_gets", r.tier_gets},
      {"cache_tier_hits", r.tier_hits},
      {"cache_tier_stores", r.tier_stores},
      {"cache_tier_retries", r.tier_faults.retries},
      {"cache_tier_exhausted", r.tier_faults.exhausted},
      {"cache_tier_quarantined", r.tier_faults.quarantined},
      {"cache_tier_degraded", std::uint64_t{r.tier_faults.degraded}},
      {"recovery_resumed", r.resumed, "rvt_recovery_resumes", C},
      {"recovery_ledger_epoch", r.ledger_epoch},
      {"recovery_ledger_records_replayed", r.ledger_records_replayed,
       "rvt_recovery_ledger_records_replayed", C},
      {"recovery_ledger_records_appended", r.ledger_records_appended},
      {"recovery_ledger_torn_bytes_truncated", r.ledger_torn_bytes_truncated},
      {"recovery_leases_regranted", r.leases_regranted,
       "rvt_recovery_leases_regranted", C},
      {"recovery_stale_tokens_fenced", r.stale_tokens_fenced,
       "rvt_recovery_stale_tokens_fenced", C},
      {"recovery_worker_reconnects", r.worker_reconnects,
       "rvt_recovery_worker_reconnects", C},
      {"uptime_seconds", r.uptime_seconds},
      {"shards_per_second", r.shards_per_second},
      {"time_to_first_record_seconds", r.time_to_first_record_seconds},
      {"time_to_first_sealed_shard_seconds",
       r.time_to_first_sealed_shard_seconds},
      {"uptime_ms", r.uptime_ms, "rvt_uptime_ms", G, true},
      {"campaign_id", r.campaign_id, "rvt_campaign_id", C, true},
      {"survivors", r.delay.survivors, "rvt_survivors", C},
      {"survivors_per_second", r.delay.survivors_per_second(),
       "rvt_survivors_per_second", G},
      {"time_to_first_survivor_ms", first_survivor_ms,
       "rvt_time_to_first_survivor_ms", G},
      {"inter_result_delay_p50_ms", r.delay.delay_quantile_ms(0.50)},
      {"inter_result_delay_p99_ms", r.delay.delay_quantile_ms(0.99)},
  };
}

}  // namespace

std::string service_json(const ServiceReport& r,
                         const std::string& workload_spec) {
  std::string j = "{\n";
  j += "  \"kind\": \"service_metrics\",\n";
  j += "  \"workload\": \"" + util::json_escape(workload_spec) + "\",\n";
  for (const ReportRow& row : report_rows(r)) {
    const auto* u = std::get_if<std::uint64_t>(&row.value);
    j += std::string("  \"") + row.json + "\": " +
         (u ? std::to_string(*u) : fixed6(std::get<double>(row.value))) +
         ",\n";
  }
  j += "  \"last_journal_growth_ms\": [";
  for (std::size_t i = 0; i < r.last_journal_growth_ms.size(); ++i) {
    j += std::string(i == 0 ? "" : ", ") +
         std::to_string(r.last_journal_growth_ms[i]);
  }
  j += "],\n";
  j += "  \"runners\": [";
  for (std::size_t i = 0; i < r.runners.size(); ++i) {
    const RunnerHealth& h = r.runners[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", h.last_heartbeat_age_seconds);
    j += std::string(i == 0 ? "\n" : ",\n") + "    {\"name\": \"" +
         util::json_escape(h.name) + "\", \"role\": \"" +
         util::json_escape(h.role) +
         "\", \"connected\": " + (h.connected ? "true" : "false") +
         ", \"last_heartbeat_age_seconds\": " + buf +
         ", \"shards_sealed\": " + std::to_string(h.shards_sealed) +
         ", \"records_streamed\": " + std::to_string(h.records_streamed) +
         "}";
  }
  j += r.runners.empty() ? "]\n" : "\n  ]\n";
  j += "}\n";
  return j;
}

std::string service_prometheus(const ServiceReport& r) {
  std::string t;
  const std::vector<ReportRow> rows = report_rows(r);
  for (const bool first : {true, false}) {
    for (const ReportRow& row : rows) {
      if (row.prom == nullptr || row.prom_first != first) continue;
      const auto* u = std::get_if<std::uint64_t>(&row.value);
      const bool counter = row.type == ReportRow::kCounter;
      t += std::string("# TYPE ") + row.prom +
           (counter ? " counter\n" : " gauge\n");
      t += std::string(row.prom) + " " +
           (counter ? std::to_string(std::get<std::uint64_t>(row.value))
                    : fixed6(u ? static_cast<double>(*u)
                               : std::get<double>(row.value))) +
           "\n";
    }
  }
  t += obs::prometheus_histogram("rvt_inter_result_delay_ns",
                                 r.delay.inter_result_delay_ns);
  t += "# TYPE rvt_shard_last_journal_growth_ms gauge\n";
  for (std::size_t i = 0; i < r.last_journal_growth_ms.size(); ++i) {
    t += "rvt_shard_last_journal_growth_ms{shard=\"" + std::to_string(i) +
         "\"} " + std::to_string(r.last_journal_growth_ms[i]) + "\n";
  }
  return t;
}

Coordinator::Coordinator(dist::ShardPlan plan, CoordinatorConfig cfg)
    : plan_(std::move(plan)), cfg_(std::move(cfg)) {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.journal_dir, ec);
  if (ec) {
    throw dist::SerializeError("coordinator: cannot create journal dir " +
                               cfg_.journal_dir);
  }
  if (!cfg_.cache_dir.empty()) {
    fs_store_ = std::make_unique<dist::FsOrbitStore>(cfg_.cache_dir);
  }
  shards_.resize(plan_.shards.size());
  // Scan every journal once: the DATA authority both the plain adoption
  // path and the ledger replay cross-check read from.
  std::vector<std::optional<dist::JournalState>> journals(plan_.shards.size());
  for (std::size_t i = 0; i < plan_.shards.size(); ++i) {
    // An unusable or foreign journal is recreated on first grant.
    const dist::ShardSpec& spec = plan_.shards[i];
    journals[i] =
        dist::read_bound_journal(dist::journal_path(cfg_.journal_dir, spec),
                                 dist::journal_header(plan_, spec));
  }
  // The CONTROL authority: with --resume the run ledger is required and
  // replayed; a fresh campaign truncates whatever ledger a previous
  // campaign in this directory left behind.
  const std::string lpath = dist::ledger_path(cfg_.journal_dir);
  const dist::LedgerHeader lhdr{plan_.fingerprint, plan_.shards.size()};
  std::optional<dist::LedgerState> ls;
  if (cfg_.resume) {
    ls = dist::read_ledger(lpath);  // corrupt preamble throws — a refusal
    if (!ls) {
      throw dist::SerializeError(
          "coordinator: --resume needs a run ledger (none at " + lpath + ")");
    }
    if (ls->header != lhdr) {
      throw dist::SerializeError(
          "coordinator: run ledger belongs to a different campaign "
          "(fingerprint/shard-count mismatch)");
    }
    ledger_torn_bytes_ = ls->file_bytes - ls->valid_bytes;
  }
  // Adopt journal data: sealed shards need no lease, partial ones count
  // their committed prefix and resume from it.
  for (std::size_t i = 0; i < plan_.shards.size(); ++i) {
    const dist::ShardSpec& spec = plan_.shards[i];
    const auto& js = journals[i];
    if (js && js->complete) {
      shards_[i].phase = ShardPhase::kSealed;
      shards_[i].sealed_sum = js->sum;
      ++sealed_total_;
      committed_indices_ += spec.end - spec.begin;
      committed_defeats_ += js->sum;
    } else if (js) {
      committed_indices_ += js->next_index - spec.begin;
      committed_defeats_ += js->sum;
    }
  }
  if (cfg_.resume) {
    replay_ledger(*ls, journals);
    resumed_ = true;
    ledger_ = dist::LedgerWriter::resume(lpath, lhdr, *ls);
  } else {
    ledger_ = dist::LedgerWriter::create(lpath, lhdr);
  }
  // Every start opens a new token epoch, durably: tokens granted by ANY
  // earlier incarnation are below next_token_ and resumed shards carry
  // token 0, so a pre-crash leaseholder's chunks and seals fence.
  ledger_->append({dist::LedgerEvent::kEpoch, ledger_epoch_, next_token_});
  ++ledger_records_appended_;
  // Work queue last, in plan order, from the reconstructed phases.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].phase == ShardPhase::kPending) pending_.push_back(i);
  }
  // Campaign/trace id: a deterministic mix of the plan fingerprint, so
  // a resumed coordinator mints the SAME id and spans recorded before
  // and after a crash stitch under one timeline. Never 0 (0 means "no
  // campaign" on the wire).
  campaign_id_ =
      plan_.fingerprint.hi ^ (plan_.fingerprint.lo * 0x9e3779b97f4a7c15ULL);
  if (campaign_id_ == 0) campaign_id_ = 1;
  obs::set_campaign_id(campaign_id_);
  start_ = std::chrono::steady_clock::now();
  listener_ = std::make_unique<net::TcpListener>(cfg_.port);
  metrics_listener_ = std::make_unique<net::TcpListener>(cfg_.metrics_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
  metrics_thread_ = std::thread([this] { metrics_loop(); });
  reaper_thread_ = std::thread([this] { reaper_loop(); });
}

void Coordinator::replay_ledger(
    const dist::LedgerState& ls,
    const std::vector<std::optional<dist::JournalState>>& journals) {
  struct Replayed {
    bool open = false;         ///< granted and neither failed nor closed
    unsigned attempts = 0;
    bool quarantined = false;
    bool sealed = false;
    std::uint64_t sealed_sum = 0;
  };
  std::vector<Replayed> rs(shards_.size());
  std::uint64_t max_epoch = 0;
  std::uint64_t max_token = 0;
  std::uint64_t epoch_token_floor = 1;
  std::uint64_t ck_indices = 0, ck_defeats = 0;
  bool has_checkpoint = false;
  for (const dist::LedgerRecord& rec : ls.records) {
    ++ledger_records_replayed_;
    const std::size_t i = static_cast<std::size_t>(rec.a);
    const bool shard_event = rec.event == dist::LedgerEvent::kGrant ||
                             rec.event == dist::LedgerEvent::kFail ||
                             rec.event == dist::LedgerEvent::kSeal ||
                             rec.event == dist::LedgerEvent::kQuarantine;
    if (shard_event && i >= shards_.size()) {
      throw dist::SerializeError(
          "coordinator: ledger names shard " + std::to_string(rec.a) +
          " of a " + std::to_string(shards_.size()) + "-shard plan");
    }
    switch (rec.event) {
      case dist::LedgerEvent::kEpoch:
        max_epoch = std::max(max_epoch, rec.a);
        epoch_token_floor = std::max(epoch_token_floor, rec.b);
        break;
      case dist::LedgerEvent::kGrant:
        rs[i].open = true;
        ++rs[i].attempts;
        max_token = std::max(max_token, rec.b);
        break;
      case dist::LedgerEvent::kFail:
        rs[i].open = false;
        rs[i].attempts = std::max(rs[i].attempts,
                                  static_cast<unsigned>(rec.b));
        break;
      case dist::LedgerEvent::kSeal:
        rs[i].open = false;
        rs[i].sealed = true;
        rs[i].sealed_sum = rec.b;
        break;
      case dist::LedgerEvent::kQuarantine:
        rs[i].open = false;
        rs[i].quarantined = true;
        rs[i].attempts = std::max(rs[i].attempts,
                                  static_cast<unsigned>(rec.b));
        break;
      case dist::LedgerEvent::kCheckpoint:
        ck_indices = rec.a;
        ck_defeats = rec.b;
        has_checkpoint = true;
        break;
    }
  }
  ledger_epoch_ = max_epoch + 1;
  next_token_ = std::max(max_token + 1, epoch_token_floor);
  // Cross-check control against data, refusing disagreement instead of
  // guessing. The one tolerated asymmetry: a journal sealed without a
  // ledger kSeal is the crash window between the journal's DONE record
  // and the ledger append — the journal is the data authority, adopt it.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardState& s = shards_[i];
    const auto& js = journals[i];
    if (rs[i].sealed) {
      if (!js || !js->complete) {
        throw dist::SerializeError(
            "coordinator: ledger records a seal for shard " +
            std::to_string(i) + " but its journal is not sealed on disk");
      }
      if (js->sum != rs[i].sealed_sum) {
        throw dist::SerializeError(
            "coordinator: shard " + std::to_string(i) + " sealed sum " +
            std::to_string(js->sum) + " on disk, " +
            std::to_string(rs[i].sealed_sum) + " in the ledger");
      }
    }
    s.attempts = rs[i].attempts;
    if (s.phase == ShardPhase::kSealed) continue;
    if (rs[i].quarantined) {
      s.phase = ShardPhase::kQuarantined;
      s.diagnostics.push_back("quarantined before restart (run ledger, " +
                              std::to_string(s.attempts) + " attempts)");
    } else if (rs[i].open) {
      // Out on lease when the previous incarnation died: pending again,
      // the re-grant resumes from the journal's committed prefix.
      s.interrupted = true;
    }
  }
  // The running-merge checkpoint can never be ahead of what the
  // journals actually hold — if it is, the data half lost fsynced
  // history (journals are fflushed, not fsynced: a host reboot can do
  // this) and resuming would silently recompute under a lie.
  if (has_checkpoint &&
      (committed_indices_ < ck_indices ||
       (committed_indices_ == ck_indices && committed_defeats_ != ck_defeats))) {
    throw dist::SerializeError(
        "coordinator: run ledger checkpoint (" + std::to_string(ck_indices) +
        " indices, " + std::to_string(ck_defeats) +
        " defeats) is ahead of the journals (" +
        std::to_string(committed_indices_) + ", " +
        std::to_string(committed_defeats_) +
        ") — journal history was lost; refusing to resume");
  }
}

void Coordinator::ledger_append_nothrow_locked(const dist::LedgerRecord& rec) {
  if (!ledger_) return;
  try {
    ledger_->append(rec);
    ++ledger_records_appended_;
  } catch (const dist::SerializeError&) {
    // The durable fact lives in a journal (seal) or is safe to lose
    // (requeue: replay re-grants an open lease as pending anyway).
  }
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::stop() {
  const bool was_stopped = stop_.exchange(true);
  if (!was_stopped) {
    listener_->close();
    metrics_listener_->close();
    // Taking mu_ orders the flag before any waiter's predicate check, so
    // a held lease request or wait_complete() cannot miss the wake-up.
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Joined after the accept loop so no new session can appear.
    std::vector<std::thread> sessions;
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      sessions.swap(sessions_);
    }
    for (std::thread& t : sessions) {
      if (t.joinable()) t.join();
    }
  }
  if (metrics_thread_.joinable()) metrics_thread_.join();
  if (reaper_thread_.joinable()) reaper_thread_.join();
}

std::chrono::milliseconds Coordinator::lease_hold() const {
  return std::max(std::chrono::milliseconds(50), cfg_.poll_interval * 10);
}

bool Coordinator::done_locked() const {
  for (const ShardState& s : shards_) {
    if (s.phase != ShardPhase::kSealed && s.phase != ShardPhase::kQuarantined) {
      return false;
    }
  }
  return true;
}

bool Coordinator::wait_complete(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto pred = [this] { return done_locked() || stop_.load(); };
  if (timeout == std::chrono::milliseconds::max()) {
    cv_.wait(lk, pred);
  } else {
    cv_.wait_for(lk, timeout, pred);
  }
  return done_locked();
}

void Coordinator::fail_attempt_locked(std::size_t shard,
                                      const std::string& reason) {
  ShardState& s = shards_[shard];
  s.diagnostics.push_back(
      "attempt " + std::to_string(s.attempts) + " (" +
      (s.holder.empty() ? std::string("?") : s.holder) + "): " + reason);
  s.token = 0;  // fence: the stale holder's chunks/seals now refuse
  s.holder.clear();
  s.session = 0;
  if (s.attempts >= cfg_.max_attempts) {
    s.phase = ShardPhase::kQuarantined;
    s.writer.reset();
    ledger_append_nothrow_locked(
        {dist::LedgerEvent::kQuarantine, shard, s.attempts});
  } else {
    s.phase = ShardPhase::kPending;
    pending_.push_back(shard);
    ++requeues_;
    ledger_append_nothrow_locked({dist::LedgerEvent::kFail, shard, s.attempts});
  }
  // Wakes wait_complete() and any held lease request.
  cv_.notify_all();
}

void Coordinator::release_if_held_locked(std::uint64_t session_id,
                                         std::size_t shard,
                                         const std::string& reason) {
  if (shard == kNoShard || shard >= shards_.size()) return;
  ShardState& s = shards_[shard];
  if (s.phase == ShardPhase::kLeased && s.session == session_id) {
    fail_attempt_locked(shard, reason);
  }
}

std::vector<std::uint8_t> Coordinator::grant_lease_locked(
    std::uint64_t session_id, const std::string& name, std::size_t* leased) {
  *leased = kNoShard;
  LeaseGrant g;
  if (done_locked()) {
    g.status = LeaseStatus::kDrained;
    return encode(g);
  }
  if (pending_.empty()) {
    g.status = LeaseStatus::kWait;
    g.retry_ms = static_cast<std::uint64_t>(lease_hold().count());
    return encode(g);
  }
  const std::size_t i = pending_.front();
  pending_.pop_front();
  ShardState& s = shards_[i];
  const dist::ShardSpec& spec = plan_.shards[i];
  if (!s.writer) {
    const std::string path = dist::journal_path(cfg_.journal_dir, spec);
    const dist::JournalHeader hdr = dist::journal_header(plan_, spec);
    const std::optional<dist::JournalState> js =
        dist::read_bound_journal(path, hdr);
    const bool bound = js && !js->complete;
    try {
      s.writer = bound ? dist::JournalWriter::resume(path, hdr, *js)
                       : dist::JournalWriter::create(path, hdr);
    } catch (const dist::SerializeError&) {
      // Unusable journal dir: the session loop answers kError, but the
      // shard must not silently fall out of the rotation.
      pending_.push_back(i);
      throw;
    }
  }
  // Write-ahead: the grant (and its fencing token) must be durable
  // BEFORE the reply leaves — a coordinator killed right after sending
  // the grant must replay it, or a resumed incarnation could mint the
  // same token for someone else.
  if (ledger_) {
    try {
      ledger_->append({dist::LedgerEvent::kGrant, i, next_token_});
      ++ledger_records_appended_;
    } catch (const dist::SerializeError&) {
      pending_.push_back(i);
      throw;
    }
  }
  ++s.attempts;
  s.phase = ShardPhase::kLeased;
  s.token = next_token_++;
  s.holder = name;
  s.session = session_id;
  s.last_progress = std::chrono::steady_clock::now();
  ++leases_granted_;
  if (s.interrupted) {
    s.interrupted = false;
    ++leases_regranted_;
  }
  g.status = LeaseStatus::kGranted;
  g.shard_index = i;
  g.shard_id = spec.id;
  g.begin = spec.begin;
  g.end = spec.end;
  g.next_index = s.writer->next_index();
  g.resume_sum = s.writer->sum();
  g.token = s.token;
  g.campaign_id = campaign_id_;
  *leased = i;
  return encode(g);
}

void Coordinator::accept_loop() {
  std::uint64_t next_session = 0;
  while (!stop_.load()) {
    std::unique_ptr<net::TcpStream> s;
    try {
      s = listener_->accept();
    } catch (const net::NetError&) {
      break;
    }
    if (!s) break;
    const std::uint64_t sid = next_session++;
    {
      std::lock_guard<std::mutex> lk(mu_);
      runners_.push_back({"session-" + std::to_string(sid), "?",
                          std::chrono::steady_clock::now(), 0, 0, true});
    }
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions_.emplace_back(
        [this, sid, stream = std::move(s)]() mutable {
          handle_session(std::move(stream), sid);
        });
  }
}

void Coordinator::handle_session(std::unique_ptr<net::TcpStream> stream,
                                 std::uint64_t session_id) {
  stream->set_read_timeout_ms(
      static_cast<unsigned>(cfg_.session_read_timeout.count()));
  std::size_t my_shard = kNoShard;
  std::string name;
  const auto send = [&](dist::WireKind kind,
                        const std::vector<std::uint8_t>& payload) {
    net::send_frame(*stream, kind, payload);
  };
  const auto send_error = [&](ErrorCode code, const std::string& msg) {
    try {
      send(dist::WireKind::kError, encode(ErrorReply{code, msg}));
    } catch (const net::NetError&) {
    }
  };
  try {
    // ---- handshake ----
    net::Frame f;
    for (;;) {
      const net::RecvStatus st = net::recv_frame(*stream, f, true);
      if (st == net::RecvStatus::kIdle) {
        if (stop_.load()) return;
        continue;
      }
      if (st == net::RecvStatus::kEof) return;
      break;
    }
    if (f.kind != dist::WireKind::kHello) {
      send_error(ErrorCode::kBadRequest, "expected hello");
      return;
    }
    const HelloRequest hello = decode_hello_request(f.payload);
    name = hello.name.empty() ? "session-" + std::to_string(session_id)
                              : hello.name;
    {
      std::lock_guard<std::mutex> lk(mu_);
      runners_[session_id].name = name;
      runners_[session_id].role = hello.role;
      runners_[session_id].reconnects = hello.reconnects;
      runners_[session_id].last_seen = std::chrono::steady_clock::now();
    }
    if (hello.protocol != kServiceProtocolVersion) {
      send_error(ErrorCode::kVersion,
                 "service protocol " + std::to_string(hello.protocol) +
                     " (this coordinator speaks " +
                     std::to_string(kServiceProtocolVersion) + ")");
      return;
    }
    if (hello.role != "worker" && hello.role != "store") {
      send_error(ErrorCode::kRefused, "unknown role '" + hello.role + "'");
      return;
    }
    // A nonzero hello fingerprint is a RE-hello: the runner is already
    // bound to a plan and must not reconnect into a different campaign
    // (a restarted coordinator serving another plan on the same port).
    if ((hello.fingerprint.hi != 0 || hello.fingerprint.lo != 0) &&
        !(hello.fingerprint == plan_.fingerprint)) {
      send_error(ErrorCode::kRefused,
                 "reconnected into a different campaign (plan fingerprint "
                 "mismatch)");
      return;
    }
    HelloReply ack;
    ack.fingerprint = plan_.fingerprint;
    ack.workload_spec = plan_.workload_spec;
    ack.index_count = plan_.count;
    ack.max_rounds = plan_.max_rounds;
    ack.shard_count = plan_.shards.size();
    ack.orbit_store = fs_store_ != nullptr;
    send(dist::WireKind::kHello, encode(ack));

    // ---- message loop ----
    for (;;) {
      const net::RecvStatus st = net::recv_frame(*stream, f, true);
      if (st == net::RecvStatus::kIdle) {
        if (stop_.load()) break;
        continue;
      }
      if (st == net::RecvStatus::kEof) break;
      // A stopping coordinator stops SERVING, not just accepting: the
      // frame goes unanswered, exactly as a crash would leave it — so
      // runners experience the restart instead of quietly draining the
      // campaign through a dying process. The one exception is a lease
      // request to a DONE campaign, answered kDrained below: the end of
      // a campaign is not a crash, and its workers exit 0.
      if (stop_.load() && f.kind != dist::WireKind::kLeaseRequest) break;
      dist::WireKind reply_kind = f.kind;
      std::vector<std::uint8_t> reply;
      bool unanswered = false;
      switch (f.kind) {
        case dist::WireKind::kLeaseRequest: {
          std::unique_lock<std::mutex> lk(mu_);
          runners_[session_id].last_seen = std::chrono::steady_clock::now();
          // An idle request is HELD until a shard is pending (a requeue),
          // the campaign is done or the coordinator stops — so a worker
          // idling when the last seal lands hears kDrained at once.
          cv_.wait_for(lk, lease_hold(), [this] {
            return !pending_.empty() || done_locked() || stop_.load();
          });
          if (stop_.load() && !done_locked()) {
            unanswered = true;
            break;
          }
          std::size_t leased = kNoShard;
          try {
            reply = grant_lease_locked(session_id, name, &leased);
          } catch (const dist::SerializeError& e) {
            reply_kind = dist::WireKind::kError;
            reply = encode(ErrorReply{ErrorCode::kRefused,
                                      std::string("journal: ") + e.what()});
          }
          if (leased != kNoShard) my_shard = leased;
          reply_kind = reply_kind == dist::WireKind::kError
                           ? reply_kind
                           : dist::WireKind::kLeaseGrant;
          break;
        }
        case dist::WireKind::kJournalChunk: {
          const JournalChunk chunk = decode_journal_chunk(f.payload);
          std::lock_guard<std::mutex> lk(mu_);
          runners_[session_id].last_seen = std::chrono::steady_clock::now();
          ChunkReply cr;
          if (chunk.shard_index < shards_.size() && chunk.token != 0 &&
              shards_[chunk.shard_index].token == chunk.token &&
              shards_[chunk.shard_index].phase == ShardPhase::kLeased) {
            ShardState& s = shards_[chunk.shard_index];
            // A valid token identifies the lease, not the TCP session:
            // a worker that reconnected mid-lease (coordinator restart
            // healed, partition cleared) adopts the lease into its new
            // session, so the OLD session's teardown no longer requeues
            // the shard out from under it.
            s.session = session_id;
            s.holder = name;
            my_shard = chunk.shard_index;
            try {
              std::uint64_t chunk_survivors = 0;
              for (const JournalRecord& rec : chunk.records) {
                s.writer->record(rec.index, rec.value);
                ++committed_indices_;
                committed_defeats_ += rec.value;
                if (rec.value == 0) ++chunk_survivors;
              }
              s.last_progress = std::chrono::steady_clock::now();
              journal_bytes_streamed_ += f.payload.size();
              runners_[session_id].records_streamed += chunk.records.size();
              if (!first_record_at_ && !chunk.records.empty()) {
                first_record_at_ = s.last_progress;
              }
              // Enumeration-delay observation: the chunk gap, spread
              // evenly over the chunk's records (the coordinator sees
              // batches, not individual results — see ServiceReport).
              if (!chunk.records.empty()) {
                const std::uint64_t now_off = static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        s.last_progress - start_)
                        .count());
                const std::uint64_t per =
                    (now_off - s.last_chunk_off_ns) / chunk.records.size();
                for (std::size_t n = 0; n < chunk.records.size(); ++n) {
                  s.delay.inter_result_delay_ns.record(per);
                }
                s.delay.results += chunk.records.size();
                if (s.delay.time_to_first_result_ns < 0) {
                  s.delay.time_to_first_result_ns =
                      static_cast<std::int64_t>(now_off);
                }
                s.delay.survivors += chunk_survivors;
                if (chunk_survivors > 0 &&
                    s.delay.time_to_first_survivor_ns < 0) {
                  s.delay.time_to_first_survivor_ns =
                      static_cast<std::int64_t>(now_off);
                }
                s.last_chunk_off_ns = now_off;
              }
              cr.accepted = true;
              cr.next_index = s.writer->next_index();
            } catch (const dist::SerializeError& e) {
              // Out-of-order or unappendable records: this attempt is
              // bad; the committed prefix stays, the shard requeues.
              fail_attempt_locked(chunk.shard_index,
                                  std::string("bad chunk: ") + e.what());
              cr.accepted = false;
            }
          } else {
            cr.accepted = false;  // stale token: lease was revoked
            if (chunk.token != 0) ++stale_tokens_fenced_;
          }
          reply = encode(cr);
          break;
        }
        case dist::WireKind::kSeal: {
          const Seal seal = decode_seal(f.payload);
          std::lock_guard<std::mutex> lk(mu_);
          runners_[session_id].last_seen = std::chrono::steady_clock::now();
          SealReply sr;
          if (seal.shard_index < shards_.size() && seal.token != 0 &&
              shards_[seal.shard_index].token == seal.token &&
              shards_[seal.shard_index].phase == ShardPhase::kLeased) {
            ShardState& s = shards_[seal.shard_index];
            if (seal.total != s.writer->sum()) {
              fail_attempt_locked(
                  seal.shard_index,
                  "seal total " + std::to_string(seal.total) +
                      " != journaled sum " + std::to_string(s.writer->sum()));
            } else {
              try {
                s.writer->finish(seal.total);
                s.writer.reset();
                s.phase = ShardPhase::kSealed;
                s.sealed_sum = seal.total;
                s.token = 0;
                s.holder.clear();
                s.session = 0;
                ++sealed_total_;
                ++sealed_this_run_;
                ++runners_[session_id].shards_sealed;
                if (!first_seal_at_) {
                  first_seal_at_ = std::chrono::steady_clock::now();
                }
                // Journal DONE record first (data), then the durable
                // control-state commit + merge checkpoint, then the
                // reply. A crash in between leaves a sealed journal
                // without a ledger seal — the one tolerated asymmetry
                // the resume path adopts from the journal.
                ledger_append_nothrow_locked(
                    {dist::LedgerEvent::kSeal, seal.shard_index, seal.total});
                ledger_append_nothrow_locked({dist::LedgerEvent::kCheckpoint,
                                              committed_indices_,
                                              committed_defeats_});
                sr.accepted = true;
                my_shard = kNoShard;
              } catch (const dist::SerializeError& e) {
                fail_attempt_locked(seal.shard_index,
                                    std::string("seal refused: ") + e.what());
              }
            }
            cv_.notify_all();
          } else if (seal.token != 0) {
            ++stale_tokens_fenced_;
          }
          sr.campaign_done = done_locked();
          reply = encode(sr);
          break;
        }
        case dist::WireKind::kHeartbeat: {
          const Heartbeat hb = decode_heartbeat(f.payload);
          std::lock_guard<std::mutex> lk(mu_);
          runners_[session_id].last_seen = std::chrono::steady_clock::now();
          HeartbeatReply hr;
          // NOTE: a heartbeat proves the runner is alive, not that it is
          // making progress — it never renews the lease. Journal growth
          // (chunks) is the only renewal.
          hr.lease_valid =
              hb.token == 0 ||
              (hb.shard_index < shards_.size() &&
               shards_[hb.shard_index].token == hb.token &&
               shards_[hb.shard_index].phase == ShardPhase::kLeased);
          reply = encode(hr);
          break;
        }
        case dist::WireKind::kOrbitGet: {
          const OrbitGet get = decode_orbit_get(f.payload);
          OrbitGetReply gr;
          // fs_store_ is internally synchronized — no mu_ during IO.
          if (fs_store_) {
            const auto set = fs_store_->load(get.key);
            if (set) {
              gr.found = true;
              gr.payload = dist::serialize_orbit_set(*set);
            }
          }
          {
            std::lock_guard<std::mutex> lk(mu_);
            runners_[session_id].last_seen = std::chrono::steady_clock::now();
            ++tier_gets_;
            if (gr.found) ++tier_hits_;
          }
          reply = encode(gr);
          break;
        }
        case dist::WireKind::kOrbitPut: {
          const OrbitPut put = decode_orbit_put(f.payload);
          OrbitPutReply pr;
          pr.accepted = true;  // best-effort, like FsOrbitStore::store
          if (fs_store_) {
            try {
              // Deserialize first: a malformed payload must never be
              // published into the content-addressed tier.
              fs_store_->store(put.key, dist::deserialize_orbit_set(
                                            put.payload));
            } catch (const dist::SerializeError&) {
              pr.accepted = false;
            }
          }
          {
            std::lock_guard<std::mutex> lk(mu_);
            runners_[session_id].last_seen = std::chrono::steady_clock::now();
            if (pr.accepted && fs_store_) ++tier_stores_;
          }
          reply = encode(pr);
          break;
        }
        default:
          reply_kind = dist::WireKind::kError;
          reply = encode(
              ErrorReply{ErrorCode::kBadRequest, "unexpected message kind"});
      }
      if (unanswered) break;
      send(reply_kind, reply);
    }
  } catch (const dist::WireVersionError& e) {
    send_error(ErrorCode::kVersion, e.what());
  } catch (const dist::SerializeError& e) {
    send_error(ErrorCode::kBadRequest, e.what());
  } catch (const net::NetError&) {
    // broken or stalled transport — treated like a disconnect
  }
  std::lock_guard<std::mutex> lk(mu_);
  runners_[session_id].connected = false;
  // A session ending because the COORDINATOR is stopping is not a
  // runner failure: the lease stays open, so the run ledger records it
  // the way a crash would and a --resume re-grants it as interrupted
  // (requeueing into a dying process would burn an attempt for nothing).
  if (!stop_.load()) {
    release_if_held_locked(session_id, my_shard,
                           "runner disconnected unsealed");
  }
  cv_.notify_all();
}

void Coordinator::reaper_loop() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(cfg_.poll_interval);
    std::lock_guard<std::mutex> lk(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ShardState& s = shards_[i];
      if (s.phase == ShardPhase::kLeased &&
          now - s.last_progress > cfg_.lease_timeout) {
        ++lease_expiries_;
        fail_attempt_locked(
            i, "lease expired (no journal growth for " +
                   std::to_string(cfg_.lease_timeout.count()) + "ms)");
      }
    }
    if (done_locked()) cv_.notify_all();
  }
}

void Coordinator::metrics_loop() {
  while (!stop_.load()) {
    std::unique_ptr<net::TcpStream> s;
    try {
      s = metrics_listener_->accept();
    } catch (const net::NetError&) {
      break;
    }
    if (!s) break;
    try {
      s->set_read_timeout_ms(1000);
      std::string req;
      char buf[1024];
      while (req.find("\r\n\r\n") == std::string::npos && req.size() < 65536) {
        std::size_t n = 0;
        try {
          n = s->read_some(buf, sizeof(buf));
        } catch (const net::NetTimeout&) {
          break;
        }
        if (n == 0) break;
        req.append(buf, n);
      }
      std::string resp;
      if (req.compare(0, 4, "GET ") == 0) {
        // "GET <path> HTTP/1.x": /metrics serves Prometheus text
        // exposition, every other path the JSON snapshot (the original
        // single-document behavior, kept for existing scrapers).
        const std::size_t path_end = req.find(' ', 4);
        const std::string path =
            path_end == std::string::npos ? "/" : req.substr(4, path_end - 4);
        std::string body, content_type;
        if (path == "/metrics") {
          body = metrics_prometheus();
          content_type = "text/plain; version=0.0.4";
        } else {
          body = metrics_json();
          content_type = "application/json";
        }
        resp = "HTTP/1.0 200 OK\r\nContent-Type: " + content_type +
               "\r\nContent-Length: " + std::to_string(body.size()) +
               "\r\nConnection: close\r\n\r\n" + body;
      } else {
        resp = "HTTP/1.0 400 Bad Request\r\nConnection: close\r\n\r\n";
      }
      s->write_all(resp.data(), resp.size());
    } catch (const net::NetError&) {
      // one scraper's broken connection must not stop the endpoint
    }
  }
}

ServiceReport Coordinator::report_locked() const {
  ServiceReport r;
  const auto now = std::chrono::steady_clock::now();
  r.shards_total = shards_.size();
  for (const ShardState& s : shards_) {
    switch (s.phase) {
      case ShardPhase::kSealed:
        ++r.shards_completed;
        break;
      case ShardPhase::kLeased:
        ++r.shards_leased;
        break;
      case ShardPhase::kPending:
        ++r.shards_pending;
        break;
      case ShardPhase::kQuarantined:
        ++r.shards_quarantined;
        break;
    }
  }
  r.shards_requeued = requeues_;
  r.leases_granted = leases_granted_;
  r.lease_expiries = lease_expiries_;
  r.total_indices = plan_.count;
  r.committed_indices = committed_indices_;
  r.committed_defeats = committed_defeats_;
  r.journal_bytes_streamed = journal_bytes_streamed_;
  r.tier_gets = tier_gets_;
  r.tier_hits = tier_hits_;
  r.tier_stores = tier_stores_;
  if (fs_store_) r.tier_faults = fs_store_->fault_stats();
  r.uptime_seconds = seconds_since(start_, now);
  r.shards_per_second = r.uptime_seconds > 0
                            ? static_cast<double>(sealed_this_run_) /
                                  r.uptime_seconds
                            : 0;
  if (first_record_at_) {
    r.time_to_first_record_seconds = seconds_since(start_, *first_record_at_);
  }
  if (first_seal_at_) {
    r.time_to_first_sealed_shard_seconds =
        seconds_since(start_, *first_seal_at_);
  }
  r.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
          .count());
  r.campaign_id = campaign_id_;
  r.last_journal_growth_ms.reserve(shards_.size());
  for (const ShardState& s : shards_) {
    r.last_journal_growth_ms.push_back(
        s.phase == ShardPhase::kLeased
            ? std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - s.last_progress)
                  .count()
            : -1);
    r.delay.merge(s.delay);
  }
  // Merge stamps elapsed as the max of the inputs' (all zero — shard
  // stats are live accumulators); the campaign's clock is the
  // coordinator's own uptime.
  r.delay.elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
          .count());
  r.resumed = resumed_ ? 1 : 0;
  r.ledger_epoch = ledger_epoch_;
  r.ledger_records_replayed = ledger_records_replayed_;
  r.ledger_records_appended = ledger_records_appended_;
  r.ledger_torn_bytes_truncated = ledger_torn_bytes_;
  r.leases_regranted = leases_regranted_;
  r.stale_tokens_fenced = stale_tokens_fenced_;
  // Fleet reconnects: each worker self-reports a monotonically growing
  // count per hello; a worker reconnecting opens a NEW session, so take
  // the per-name maximum and sum across names.
  std::unordered_map<std::string, std::uint64_t> reconnects_by_name;
  for (const RunnerInfo& ri : runners_) {
    if (ri.role != "worker") continue;
    auto [it, inserted] =
        reconnects_by_name.try_emplace(ri.name, ri.reconnects);
    if (!inserted) it->second = std::max(it->second, ri.reconnects);
  }
  for (const auto& [_, n] : reconnects_by_name) r.worker_reconnects += n;
  for (const RunnerInfo& ri : runners_) {
    if (ri.role == "worker") ++r.runners_seen;
    RunnerHealth h;
    h.name = ri.name;
    h.role = ri.role;
    h.last_heartbeat_age_seconds = seconds_since(ri.last_seen, now);
    h.shards_sealed = ri.shards_sealed;
    h.records_streamed = ri.records_streamed;
    h.connected = ri.connected;
    r.runners.push_back(std::move(h));
  }
  return r;
}

ServiceReport Coordinator::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  return report_locked();
}

std::string Coordinator::metrics_json() const {
  return service_json(report(), plan_.workload_spec);
}

std::string Coordinator::metrics_prometheus() const {
  // The process's own registry rides along: empty unless this process
  // enabled obs (then the enumeration bind histograms appear here too).
  return service_prometheus(report()) + obs::Registry::instance().prometheus();
}

std::vector<Coordinator::ShardSnapshot> Coordinator::shard_snapshots() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardState& s = shards_[i];
    const dist::ShardSpec& spec = plan_.shards[i];
    ShardSnapshot snap;
    snap.phase = s.phase;
    snap.attempts = s.attempts;
    snap.token = s.token;
    snap.interrupted = s.interrupted;
    if (s.writer) {
      snap.next_index = s.writer->next_index();
      snap.sum = s.writer->sum();
    } else if (s.phase == ShardPhase::kSealed) {
      snap.next_index = spec.end;
      snap.sum = s.sealed_sum;
    } else {
      // No live writer: the committed prefix is whatever the journal
      // holds (a resumed-but-not-yet-regranted shard, or none at all).
      snap.next_index = spec.begin;
      const auto js =
          dist::read_bound_journal(dist::journal_path(cfg_.journal_dir, spec),
                                   dist::journal_header(plan_, spec));
      if (js) {
        snap.next_index = js->next_index;
        snap.sum = js->sum;
      }
    }
    out.push_back(snap);
  }
  return out;
}

dist::QuarantineManifest Coordinator::quarantine_manifest() const {
  std::lock_guard<std::mutex> lk(mu_);
  dist::QuarantineManifest m;
  m.fingerprint = plan_.fingerprint;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardState& s = shards_[i];
    if (s.phase != ShardPhase::kQuarantined) continue;
    dist::QuarantineEntry e;
    e.begin = plan_.shards[i].begin;
    e.end = plan_.shards[i].end;
    e.shard_id = plan_.shards[i].id;
    std::string diag;
    for (const std::string& d : s.diagnostics) {
      if (!diag.empty()) diag += "; ";
      diag += d;
    }
    e.diagnostics = diag;
    m.entries.push_back(std::move(e));
  }
  return m;
}

}  // namespace rvt::svc
