#include "dist/runner.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "obs/trace.hpp"

namespace rvt::dist {

namespace {

/// The satellite `--progress-interval-ms` line: one structured stderr
/// line an operator (or a log scraper) can follow mid-shard.
void emit_progress(std::size_t shard_index, std::uint64_t committed,
                   const obs::EnumDelayStats& d) {
  std::fprintf(stderr,
               "progress shard=%zu committed=%llu survivors=%llu "
               "inter_result_delay_p50_ms=%.3f inter_result_delay_p99_ms="
               "%.3f\n",
               shard_index, static_cast<unsigned long long>(committed),
               static_cast<unsigned long long>(d.survivors),
               d.delay_quantile_ms(0.50), d.delay_quantile_ms(0.99));
}

/// Opens `spec`'s journal under `journal_dir` for appending: resumes a
/// valid prefix of this shard's journal and starts over on anything
/// else. Returns nullopt, with the sealed sum in `stats`, when the shard
/// is already complete.
std::optional<JournalWriter> open_journal(const std::string& journal_dir,
                                          const ShardPlan& plan,
                                          const ShardSpec& spec,
                                          ShardRunStats& stats) {
  RVT_OBS_SPAN("dist.journal.open");
  std::error_code ec;
  std::filesystem::create_directories(journal_dir, ec);
  if (ec) {
    throw SerializeError("run_shard: cannot create journal dir " +
                         journal_dir + ": " + ec.message());
  }
  const std::string path = journal_path(journal_dir, spec);
  const JournalHeader header = journal_header(plan, spec);
  // An unusable journal, or one for a DIFFERENT shard under this shard's
  // filename (the content addressing makes that a deliberate overwrite
  // or a foreign artifact), is started over rather than spliced into.
  const std::optional<JournalState> state = read_bound_journal(path, header);
  if (state.has_value() && state->complete) {
    stats.already_complete = true;
    stats.committed_before = spec.end - spec.begin;
    stats.sum = state->sum;
    return std::nullopt;
  }
  return state.has_value() ? JournalWriter::resume(path, header, *state)
                           : JournalWriter::create(path, header);
}

}  // namespace

ShardRunStats run_shard(const EnumWorkload& w, const ShardPlan& plan,
                        std::size_t shard_index,
                        const std::string& journal_dir,
                        sim::OrbitCache* cache,
                        const ShardRunOptions& options) {
  if (shard_index >= plan.shards.size()) {
    throw std::invalid_argument("run_shard: shard index out of range");
  }
  if (!(plan.fingerprint == workload_fingerprint(w))) {
    throw std::invalid_argument(
        "run_shard: plan fingerprint does not match the workload (different "
        "battery, spec, or code schema version)");
  }
  const ShardSpec& spec = plan.shards[shard_index];
  ShardRunStats stats;
  std::optional<JournalWriter> opened =
      open_journal(journal_dir, plan, spec, stats);
  if (!opened) return stats;
  JournalWriter& writer = *opened;
  stats.committed_before = writer.next_index() - spec.begin;

  sim::EnumerationContext ctx(w.grids(), w.max_rounds(), cache);
  RVT_OBS_SPAN("dist.run_shard", shard_index,
               spec.end - writer.next_index());
  obs::EnumDelayTracker delay;
  const std::uint64_t progress_interval_ns =
      options.progress_interval_ms * 1'000'000;
  std::uint64_t next_progress_ns =
      progress_interval_ns == 0 ? UINT64_MAX
                                : delay.start_ns() + progress_interval_ns;
  const auto step = [&](std::uint64_t i) {
    const std::uint64_t v = w.defeats(ctx, i);
    writer.record(i, v);
    delay.note_result(v);
    ++stats.computed;
    if (progress_interval_ns != 0 && obs::now_ns() >= next_progress_ns) {
      emit_progress(shard_index, (i + 1) - spec.begin, delay.stats());
      next_progress_ns = obs::now_ns() + progress_interval_ns;
    }
  };
  std::uint64_t i = writer.next_index();
  if (i < spec.end) {
    // Time to first result ends here: the first record is written.
    RVT_OBS_SPAN("dist.run_shard.first_index", i);
    step(i++);
  }
  for (; i < spec.end; ++i) step(i);
  writer.finish(writer.sum());
  stats.sum = writer.sum();
  stats.telemetry = ctx.telemetry();
  stats.delay = delay.finish();
  if (cache != nullptr && cache->backing() != nullptr) {
    const sim::OrbitTierFaultStats fs = cache->backing()->fault_stats();
    stats.telemetry.tier_retries = fs.retries;
    stats.telemetry.tier_exhausted = fs.exhausted;
    stats.telemetry.tier_quarantined = fs.quarantined;
    stats.telemetry.tier_degraded = fs.degraded ? 1 : 0;
  }
  return stats;
}

}  // namespace rvt::dist
