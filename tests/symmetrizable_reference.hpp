// Perfect symmetrizability (Definition 1.2) decided one pair at a time:
// a central split and two marked topo_ids per call. An independent
// reference for tree::PerfectSymmetrizability, which decides every pair
// of a tree from one split and one set of marked ids.
#pragma once

#include <utility>

#include "tree/canonical.hpp"
#include "tree/tree.hpp"

namespace rvt::tree::reference {

inline bool per_pair_symmetrizable(const Tree& t, NodeId u, NodeId v) {
  const auto cs = central_split(t);
  if (!cs || cs->in_x_half[u] == cs->in_x_half[v]) return false;
  if (!cs->in_x_half[u]) std::swap(u, v);  // u in x's half, v in y's
  Canonizer cz;
  return cz.topo_id(t, cs->x, cs->y, u) == cz.topo_id(t, cs->y, cs->x, v);
}

}  // namespace rvt::tree::reference
