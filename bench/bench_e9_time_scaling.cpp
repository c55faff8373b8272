// E9 (supplementary) — time scaling of the Theorem 4.1 agent.
//
// The paper optimizes memory, not time; its companion work (Czyzowicz,
// Kosowski, Pelc: "Time vs. space trade-offs for rendezvous in trees",
// [15]) studies the other axis. This bench records how rounds-to-meet grow
// on the two extreme regimes:
//   * lines (l = 2, symmetric contraction — the prime machinery runs):
//     rounds grow roughly linearly in n (|P| = Theta(n l)) for typical
//     pairs;
//   * spiders at fixed n with growing l (central node — agents just walk
//     and park): rounds stay O(n).
// It also records the worst outer-loop index i the agents ever needed —
// the paper bounds it by O(log(n l)); in practice i = 1 almost always.
#include <algorithm>

#include "bench_common.hpp"
#include "core/rendezvous_agent.hpp"
#include "sim/simulator.hpp"
#include "tree/builders.hpp"
#include "tree/canonical.hpp"

int main() {
  using namespace rvt;
  bench::header("E9 time scaling (supplementary; cf. [15])",
                "Rounds-to-meet by size, plus the largest Figure-2 outer "
                "index i ever needed.");

  util::Rng rng(bench::kDefaultSeed);
  util::Table table(
      {"family", "n", "l", "pairs", "met", "rounds(max)", "rounds(max)/n",
       "outer i(max)"});
  bool all_ok = true;

  auto sweep = [&](const std::string& name, const tree::Tree& t,
                   int samples) {
    int pairs = 0, met = 0;
    std::uint64_t worst = 0, worst_i = 0;
    const tree::PerfectSymmetrizability symmetrizable(t);
    for (int rep = 0; rep < samples * 4 && pairs < samples; ++rep) {
      const tree::NodeId u =
          static_cast<tree::NodeId>(rng.index(t.node_count()));
      const tree::NodeId v =
          static_cast<tree::NodeId>(rng.index(t.node_count()));
      if (u == v || symmetrizable(u, v)) continue;
      ++pairs;
      core::RendezvousAgent a(t, u), b(t, v);
      const auto r =
          sim::run_rendezvous(t, a, b, {u, v, 0, 0, 800000000ull});
      if (r.met) ++met;
      worst = std::max(worst, r.rounds_executed);
      worst_i = std::max({worst_i, a.outer_index(), b.outer_index()});
    }
    table.row(name, t.node_count(), t.leaf_count(), pairs, met, worst,
              static_cast<double>(worst) / t.node_count(), worst_i);
    all_ok = all_ok && met == pairs && pairs > 0;
  };

  for (tree::NodeId n : {64, 256, 1024, 4096, 16384}) {
    sweep("line", tree::line(n), 5);
  }
  for (int legs : {4, 16, 64}) {
    sweep("spider", tree::spider(legs, 1024 / legs), 5);
  }
  for (int lr : {3, 9, 27}) {
    sweep("double-broom", tree::double_broom(512, lr, lr), 5);
  }

  table.print(std::cout);
  bench::verdict(all_ok, "all sampled pairs met within the horizon");
  return all_ok ? 0 : 1;
}
