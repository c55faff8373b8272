// E2 — Theorem 4.1: two identical agents with O(log l + log log n) bits
// solve rendezvous with simultaneous start in every tree, from every non
// perfectly-symmetrizable start pair, under adversarial port labelings.
//
// We sweep tree families and sizes, run the full Stage-1/Stage-2 agent on
// sampled non-symmetrizable pairs with randomized labelings, require
// success everywhere, and report the agents' *measured* memory (metered
// counter widths + control bits) against the theorem's log l + log log n
// envelope. The paper's claim is the scaling shape: bits grow with log l
// and only doubly-logarithmically with n.
#include <algorithm>
#include <string>

#include "bench_common.hpp"
#include "core/rendezvous_agent.hpp"
#include "sim/simulator.hpp"
#include "tree/builders.hpp"
#include "tree/canonical.hpp"
#include "util/math.hpp"

namespace {

using namespace rvt;

struct Row {
  std::string family;
  tree::Tree t = tree::Tree::single_node();
};

struct Outcome {
  int pairs = 0;
  int met = 0;
  std::uint64_t max_bits = 0;
  std::uint64_t max_rounds = 0;
};

Outcome run_family(const tree::Tree& t, util::Rng& rng, int samples,
                   std::uint64_t horizon) {
  Outcome out;
  const tree::NodeId n = t.node_count();
  const tree::PerfectSymmetrizability symmetrizable(t);
  for (int s = 0; s < samples * 4 && out.pairs < samples; ++s) {
    const tree::NodeId u = static_cast<tree::NodeId>(rng.index(n));
    const tree::NodeId v = static_cast<tree::NodeId>(rng.index(n));
    if (u == v || symmetrizable(u, v)) continue;
    ++out.pairs;
    core::RendezvousAgent a(t, u), b(t, v);
    const auto r = sim::run_rendezvous(t, a, b, {u, v, 0, 0, horizon});
    if (r.met) ++out.met;
    out.max_bits = std::max({out.max_bits, r.memory_bits_a, r.memory_bits_b});
    out.max_rounds = std::max(out.max_rounds, r.rounds_executed);
  }
  return out;
}

}  // namespace

int main() {
  bench::header(
      "E2 simultaneous-start upper bound (Thm 4.1)",
      "The Stage-1/2 agent meets on every sampled non-symmetrizable pair;\n"
      "measured memory scales as log l + log log n.");

  util::Rng rng(bench::kDefaultSeed);
  util::Table table({"family", "n", "l", "pairs", "met", "bits",
                     "log l", "loglog n", "rounds(max)"});
  bool all_ok = true;

  std::vector<Row> rows;
  for (tree::NodeId n : {64, 256, 1024, 4096, 16384}) {
    rows.push_back({"line", tree::line(n)});
  }
  for (int legs : {4, 8, 16}) {
    for (int leg : {8, 64}) {
      rows.push_back({"spider", tree::spider(legs, leg)});
    }
  }
  for (int h : {4, 6, 8}) {
    rows.push_back({"complete-binary", tree::complete_binary(h)});
  }
  for (int k : {4, 5, 6}) {
    rows.push_back({"binomial", tree::binomial(k)});
  }
  {
    // Symmetric caterpillars: contraction-symmetric instances of the hard
    // Stage-2.2 kind, with few leaves and many degree-2 nodes.
    util::Rng trng(7);
    for (int size : {20, 60, 150}) {
      const tree::Tree half = tree::random_with_leaves(size, 4, trng);
      rows.push_back({"mirror-caterpillar",
                      tree::two_sided_tree(half, half, 4).tree});
    }
  }
  for (tree::NodeId n : {128, 512, 2048}) {
    for (tree::NodeId l : {4, 8, 32}) {
      util::Rng trng(static_cast<std::uint64_t>(n) * 131 + l);
      rows.push_back({"random",
                      tree::randomize_ports(
                          tree::random_with_leaves(n, l, trng), trng)});
    }
  }

  for (const auto& row : rows) {
    const auto& t = row.t;
    const std::uint64_t horizon = 400000000ull;
    const Outcome o = run_family(t, rng, 3, horizon);
    const unsigned logl = util::bit_width_for(
        static_cast<std::uint64_t>(t.leaf_count()));
    const unsigned loglogn = util::bit_width_for(util::bit_width_for(
        static_cast<std::uint64_t>(t.node_count())));
    table.row(row.family, t.node_count(), t.leaf_count(), o.pairs, o.met,
              o.max_bits, logl, loglogn, o.max_rounds);
    all_ok = all_ok && o.met == o.pairs && o.pairs > 0;
    // Concrete envelope for the theorem's bound.
    all_ok = all_ok && o.max_bits <= 12ull * logl + 10ull * loglogn + 40;
  }

  table.print(std::cout);
  bench::verdict(all_ok,
                 "all sampled pairs met; measured bits within the "
                 "12*log(l) + 10*loglog(n) + 40 envelope");
  return all_ok ? 0 : 1;
}
