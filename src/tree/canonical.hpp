// Canonical forms, automorphisms and the symmetry predicates that decide
// rendezvous feasibility (paper Definitions 1.1/1.2 and Fact 1.1).
//
// Three notions, from strongest to weakest constraint on the adversary:
//
//  * symmetric_positions(T, u, v): there is an automorphism of T that
//    preserves the *given* port labeling and maps u to v. Rendezvous with
//    simultaneous start under this labeling is infeasible iff positions are
//    symmetric w.r.t. it (cf. [14]).
//  * tree_symmetric(T): some nontrivial automorphism preserves the given
//    labeling (paper §2.2: impossible when T has a central node).
//  * perfectly_symmetrizable(T, u, v): some *choice* of labeling admits a
//    label-preserving automorphism carrying u to v (Definition 1.2). This
//    is the paper's feasibility criterion (Fact 1.1): agents solve
//    rendezvous (for every labeling) iff their initial positions are NOT
//    perfectly symmetrizable.
//
// Structure exploited throughout: a nontrivial port-preserving automorphism
// can fix no node (ports at a fixed node are distinct, so all its edges
// would be fixed, forcing identity by induction), hence it swaps the
// endpoints of the central edge; in particular it is unique if it exists.
// Likewise, u != v are perfectly symmetrizable iff T has a central edge,
// u and v lie in different halves, and some (port-oblivious) isomorphism
// between the halves maps u to v — which a marked AHU canonical code
// detects. PerfectSymmetrizability decides that once per tree: one
// central split and one Canonizer give every node the marked id of its
// half, after which each pair is two lookups.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "tree/tree.hpp"

namespace rvt::tree {

/// Shared canonical-id space. Ids are only comparable when produced by the
/// same Canonizer instance.
class Canonizer {
 public:
  /// Port-oblivious (topological) canonical id of the subtree rooted at
  /// `root` hanging away from `parent` (-1: whole tree). Equal ids within
  /// one Canonizer <=> an isomorphism exists mapping root->root and, when
  /// marked >= 0, the marked node of one tree to the marked node of the
  /// other. At most one marked node per call.
  int topo_id(const Tree& t, NodeId root, NodeId parent, NodeId marked = -1);

  /// Port-respecting canonical id of the subtree rooted at `root`, where
  /// `parent_port` is the port at root of the edge toward its parent (-1
  /// for a global root). Equal ids <=> the (unique) port-preserving
  /// isomorphism exists (and maps marked to marked when marked >= 0).
  int port_id(const Tree& t, NodeId root, Port parent_port,
              NodeId marked = -1);

  /// Marked ids of every node at once: for each node m of the subtree
  /// rooted at `root` hanging away from `parent`, sets out[m] (out is
  /// indexed by node id) so that, within one Canonizer, two such ids are
  /// equal <=> the topo_id of their subtrees marked at them are equal.
  /// Linearithmic in the subtree, where n topo_id calls are quadratic.
  void marked_ids(const Tree& t, NodeId root, NodeId parent,
                  std::vector<int>& out);

 private:
  int topo_ids(const Tree& t, NodeId root, NodeId parent, NodeId marked,
               std::vector<int>* ids);
  int intern(std::vector<std::int64_t> key);
  std::map<std::vector<std::int64_t>, int> table_;
  int next_ = 0;
};

/// The central edge {x, y} with its two ports and the bipartition of nodes
/// into the half containing x and the half containing y. Empty when the
/// tree has a central node instead.
struct CentralSplit {
  NodeId x = -1, y = -1;
  Port port_x = -1, port_y = -1;  ///< port of the central edge at x / at y
  std::vector<char> in_x_half;    ///< node id -> 1 iff in x's half
};
std::optional<CentralSplit> central_split(const Tree& t);

/// The unique nontrivial port-preserving automorphism of T, if one exists
/// (as node mapping f with f[v] = image of v). nullopt otherwise.
std::optional<std::vector<NodeId>> port_symmetry_map(const Tree& t);

/// True iff T with its labeling admits a nontrivial port-preserving
/// automorphism (paper §2.2 "symmetric tree").
bool tree_symmetric(const Tree& t);

/// True iff some automorphism preserving the given labeling maps u to v.
/// u == v returns true (identity).
bool symmetric_positions(const Tree& t, NodeId u, NodeId v);

/// Definition 1.2 decided for every pair of one tree: built once per tree
/// (one central split, one Canonizer, a marked id per node), then each
/// query is true iff u and v lie in opposite halves with equal ids. Use
/// it wherever many pairs of one tree are tested.
class PerfectSymmetrizability {
 public:
  explicit PerfectSymmetrizability(const Tree& t);

  /// Requires u != v (throws std::invalid_argument otherwise:
  /// co-located agents have trivially met).
  bool operator()(NodeId u, NodeId v) const;

  /// The tree's central split; empty when it has a central node (then
  /// no pair is symmetrizable).
  const std::optional<CentralSplit>& split() const { return split_; }

 private:
  std::optional<CentralSplit> split_;
  std::vector<int> marked_id_;  ///< node -> its half's id marked at it
};

/// Definition 1.2 for one pair: PerfectSymmetrizability(t)(u, v).
bool perfectly_symmetrizable(const Tree& t, NodeId u, NodeId v);

/// All automorphisms (port-oblivious) of T as node maps, by brute force.
/// Guarded to n <= 10; used by tests to cross-check the predicates above.
std::vector<std::vector<NodeId>> enumerate_automorphisms(const Tree& t);

}  // namespace rvt::tree
