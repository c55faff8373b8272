// The enumeration context's verdict memo (sim/enumeration.hpp):
// count_unmet() answers a repeated (grid content, canonical automaton)
// binding from a context-wide table. A memo answer must equal what a
// context that never saw the binding computes, and the memo must never
// serve a count across grids whose content differs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dist/workload.hpp"
#include "sim/automaton.hpp"
#include "sim/enumeration.hpp"
#include "sim/orbit_cache.hpp"
#include "tree/builders.hpp"
#include "util/rng.hpp"

namespace rvt::sim {
namespace {

/// Defeats of grid g under the bound automaton, counted over verify() —
/// the path the memo does not serve.
std::uint64_t unmet_via_verify(EnumerationContext& ctx, std::size_t g) {
  std::uint64_t unmet = 0;
  for (const Verdict& v : ctx.verify(g)) unmet += v.met ? 0 : 1;
  return unmet;
}

TEST(Enumeration, VerdictMemoMatchesFreshContexts) {
  const auto w = dist::EnumWorkload::parse("e10:8");
  // Long-lived contexts, the shape of a shard run: one without a cache
  // (memo only) and one over an orbit cache (memo in front of it).
  EnumerationContext plain(w->grids(), w->max_rounds());
  OrbitCache cache;
  EnumerationContext cached(w->grids(), w->max_rounds(), &cache);
  for (std::uint64_t i = 0; i < w->count(); ++i) {
    // A fresh context per index answers every grid through verify():
    // nothing it returns can come from a memo entry.
    EnumerationContext fresh(w->grids(), w->max_rounds());
    const TabularAutomaton a = w->automaton_at(i);
    fresh.bind(a);
    std::uint64_t want = 0;
    for (std::size_t g = 0; g < fresh.grid_count(); ++g) {
      want += unmet_via_verify(fresh, g);
    }
    ASSERT_EQ(w->defeats(plain, i), want) << "index " << i;
    ASSERT_EQ(w->defeats(cached, i), want) << "index " << i;
  }
  for (const EnumerationContext* ctx : {&plain, &cached}) {
    const EnumTelemetry t = ctx->telemetry();
    EXPECT_GT(t.memo_hits, 0u);
    // A memo hit prepares nothing: every binding is a cache hit or miss.
    EXPECT_EQ(t.memo_hits + t.bindings,
              w->count() * static_cast<std::uint64_t>(w->grids().size()));
  }
  EXPECT_EQ(plain.telemetry().cache_hits + plain.telemetry().cache_misses,
            0u);
  EXPECT_EQ(cached.telemetry().cache_hits + cached.telemetry().cache_misses,
            cached.telemetry().bindings);
}

/// Pair grid over every start pair of `t`, all queries with delays
/// (delay_a, 0).
EnumGrid all_pairs(const tree::Tree& t, std::uint64_t delay_a) {
  EnumGrid grid(&t, 2);
  for (tree::NodeId u = 0; u < t.node_count(); ++u) {
    for (tree::NodeId v = u + 1; v < t.node_count(); ++v) {
      grid.push(PairQuery{u, v, delay_a, 0});
    }
  }
  return grid;
}

TEST(Enumeration, VerdictMemoKeysOnGridContent) {
  const tree::Tree t = tree::line_edge_colored(7, 0);
  const tree::Tree twin = tree::line_edge_colored(7, 0);  // same content
  constexpr std::uint64_t kRounds = 100000;
  // Grid 0 and 1 differ only in their delays; grid 2 repeats grid 0's
  // content over a distinct Tree object.
  const std::vector<EnumGrid> grids = {all_pairs(t, 0), all_pairs(t, 5),
                                       all_pairs(twin, 0)};

  EXPECT_NE(enum_grid_key(grids[0], kRounds), enum_grid_key(grids[1], kRounds));
  EXPECT_NE(enum_grid_key(grids[0], kRounds),
            enum_grid_key(grids[0], kRounds + 1));
  EXPECT_EQ(enum_grid_key(grids[0], kRounds), enum_grid_key(grids[2], kRounds));

  // Behaviourally: an automaton whose defeat count differs between the
  // two delay grids must get each grid's own count, with no memo hit
  // between them — while the equal-content grid is a hit.
  util::Rng rng(0x3e30);
  bool found = false;
  for (int rep = 0; rep < 200 && !found; ++rep) {
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
            .tabular();
    EnumerationContext reference(grids, kRounds);
    reference.bind(a);
    const std::uint64_t want0 = unmet_via_verify(reference, 0);
    const std::uint64_t want1 = unmet_via_verify(reference, 1);
    if (want0 == want1) continue;
    found = true;
    EnumerationContext ctx(grids, kRounds);
    ctx.bind(a);
    EXPECT_EQ(ctx.count_unmet(0), want0);
    EXPECT_EQ(ctx.count_unmet(1), want1);
    EXPECT_EQ(ctx.telemetry().memo_hits, 0u);
    EXPECT_EQ(ctx.count_unmet(2), want0);
    EXPECT_EQ(ctx.telemetry().memo_hits, 1u);
  }
  ASSERT_TRUE(found) << "no automaton separates the two delay grids";
}

}  // namespace
}  // namespace rvt::sim
