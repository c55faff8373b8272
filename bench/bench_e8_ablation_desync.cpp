// E8 — ablation: the Figure-2 inner bw(j)/cbw(j) loops are load-bearing.
//
// Claim 4.4 / Lemma 4.3: the inner loops perturb the agents' relative
// delay through the tree's degree-2 geometry; without them the delay at
// every prime(i) start is frozen at |t - t'|. On contraction-symmetric
// instances with t == t' (two different Theorem-4.3 side trees at
// equal-timing positions) the ablated agents reach their opposite anchors
// simultaneously and dance in lockstep forever, while the full algorithm
// meets. The table counts, per instance, equal-timing pairs where the full
// agent met and the ablated agent did not.
#include "bench_common.hpp"
#include "core/explo.hpp"
#include "core/rendezvous_agent.hpp"
#include "sim/simulator.hpp"
#include "tree/builders.hpp"
#include "tree/canonical.hpp"

int main() {
  using namespace rvt;
  bench::header("E8 desynchronization ablation (Fig. 2 inner loops)",
                "On equal-timing pairs the ablated agent fails; the full "
                "agent always meets.");

  util::Table table({"side trees (i,m1,m2)", "n", "eq-timing pairs",
                     "full met", "ablated failed", "contrast"});
  bool all_ok = true;
  int total_contrasts = 0;

  const std::pair<std::uint64_t, std::uint64_t> mask_pairs[] = {
      {0, 1}, {2, 3}, {1, 2}, {0, 3}};
  for (int i : {3, 4}) {
    for (const auto& [m1, m2] : mask_pairs) {
      if ((m1 | m2) >> (i - 1)) continue;
      const tree::Tree s1 = tree::side_tree(i, m1);
      const tree::Tree s2 = tree::side_tree(i, m2);
      const auto ts = tree::two_sided_tree(s1, s2, 2);
      const tree::Tree& t = ts.tree;
      const tree::PerfectSymmetrizability symmetrizable(t);
      const auto& cs = symmetrizable.split();
      if (!cs) continue;

      int eq_pairs = 0, full_met = 0, ablated_failed = 0, contrast = 0;
      for (tree::NodeId u = 0; u < t.node_count(); ++u) {
        const core::ExploInfo iu = core::explo(t, u);
        if (iu.kind != core::TreeKind::kCentralEdgeSymmetric) break;
        for (tree::NodeId v = 0; v < t.node_count(); ++v) {
          if (u >= v) continue;
          if (symmetrizable(u, v)) continue;
          const core::ExploInfo iv = core::explo(t, v);
          if (iu.v_hat == iv.v_hat) continue;
          if (cs->in_x_half[iu.v_hat] == cs->in_x_half[iv.v_hat]) continue;
          if (iu.steps_to_vhat + iu.tsteps_to_target !=
              iv.steps_to_vhat + iv.tsteps_to_target) {
            continue;
          }
          ++eq_pairs;
          bool full_ok, ablated_met;
          {
            core::RendezvousAgent a(t, u), b(t, v);
            full_ok =
                sim::run_rendezvous(t, a, b, {u, v, 0, 0, 80000000ull}).met;
          }
          {
            core::RendezvousOptions off;
            off.desync_inner_loops = false;
            core::RendezvousAgent a(t, u, off), b(t, v, off);
            ablated_met =
                sim::run_rendezvous(t, a, b, {u, v, 0, 0, 20000000ull}).met;
          }
          if (full_ok) ++full_met;
          if (!ablated_met) ++ablated_failed;
          if (full_ok && !ablated_met) ++contrast;
          all_ok = all_ok && full_ok;
        }
      }
      total_contrasts += contrast;
      table.row("(" + std::to_string(i) + "," + std::to_string(m1) + "," +
                    std::to_string(m2) + ")",
                t.node_count(), eq_pairs, full_met, ablated_failed, contrast);
    }
  }

  table.print(std::cout);
  all_ok = all_ok && total_contrasts > 0;
  bench::verdict(all_ok,
                 "full algorithm met on every equal-timing pair and at "
                 "least one pair separates it from the ablation");
  return all_ok ? 0 : 1;
}
