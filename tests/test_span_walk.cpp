/// \file test_span_walk.cpp
/// \brief The shared insulation-piece walks of forest/span.hpp against the
/// raw connectivity: for_each_piece must yield exactly the conn.neighbor
/// results for each offset set, and for_each_remote_owner exactly the
/// owners a brute-force Forest::owners_of loop finds, on brick, periodic
/// brick, one-tree periodic cube, ring and twisted-ring connectivities in
/// D = 1..3.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/neighborhood.hpp"
#include "forest/repartition.hpp"
#include "forest/span.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

template <int D>
struct NamedConn {
  std::string name;
  Connectivity<D> conn;
};

/// Brick, periodic brick, ring and twisted ring: the Möbius band in 2D, a
/// rotated wrap in 3D.  General connectivities are 2D/3D; the 1D ring is
/// the periodic brick of three trees.  The one-tree periodic cube is where
/// a piece wraps back into its own tree in another frame.
template <int D>
std::vector<NamedConn<D>> connectivities() {
  std::array<int, D> dims, one;
  std::array<bool, D> periodic;
  dims.fill(2);
  one.fill(1);
  periodic.fill(true);
  std::vector<NamedConn<D>> out;
  out.push_back({"brick", Connectivity<D>::brick(dims)});
  out.push_back({"periodic_brick", Connectivity<D>::brick(dims, periodic)});
  out.push_back({"periodic_cube", Connectivity<D>::brick(one, periodic)});
  if constexpr (D == 1) {
    out.push_back({"ring", Connectivity<D>::brick({3}, {true})});
  } else {
    out.push_back({"ring", Connectivity<D>::ring(3, 0)});
    out.push_back({D == 2 ? "moebius" : "twisted_ring",
                   Connectivity<D>::ring(3, D == 2 ? 1 : 5)});
  }
  for (const auto& c : out) EXPECT_TRUE(c.conn.validate()) << c.name;
  return out;
}

/// Interior, tree-face and domain-face octants of every tree: random
/// octants at random levels, plus level 0 and the 2^D corner octants of
/// each tree at max_level and at one mid level.
template <int D>
std::vector<TreeOct<D>> sample_octants(int ntrees, Rng& rng) {
  const Octant<D> root = root_octant<D>();
  std::vector<TreeOct<D>> out;
  for (int t = 0; t < ntrees; ++t) {
    out.push_back({t, root});
    for (const int level : {max_level<D>, 3}) {
      for (int c = 0; c < (1 << D); ++c) {
        Octant<D> o;
        o.level = static_cast<level_t>(level);
        const coord_t h = coord_t{1} << (max_level<D> - level);
        for (int d = 0; d < D; ++d) o.x[d] = (c >> d) & 1 ? root_len<D> - h : 0;
        out.push_back({t, o});
      }
    }
    for (int i = 0; i < 60; ++i) {
      out.push_back({t, random_octant<D>(rng, root, max_level<D>)});
    }
  }
  return out;
}

/// Every offset set the pipelines walk: the full layer, the k-balance
/// layers, and the query walk's fault-injection set (last offset dropped).
template <int D>
std::vector<std::span<const std::array<int, D>>> offset_sets() {
  std::vector<std::span<const std::array<int, D>>> sets;
  sets.push_back(full_offsets<D>());
  for (int k = 1; k <= D; ++k) sets.push_back(balance_offsets<D>(k));
  sets.push_back(sets.front().first(sets.front().size() - 1));
  return sets;
}

template <int D>
using PieceRec = std::tuple<std::int32_t, Octant<D>, FrameTransform<D>>;

template <int D>
void check_pieces() {
  Rng rng(0x5a11 + D);
  const auto id = FrameTransform<D>::identity();
  for (const auto& [name, conn] : connectivities<D>()) {
    for (const auto& to : sample_octants<D>(conn.num_trees(), rng)) {
      for (const auto offs : offset_sets<D>()) {
        std::vector<PieceRec<D>> want, got;
        for (const auto& off : offs) {
          if (const auto nb = conn.neighbor(to.tree, to.oct, off)) {
            want.push_back({nb->tree, nb->oct, nb->xform});
          }
        }
        const bool stopped = detail::for_each_piece(
            conn, to, offs,
            [&](std::int32_t tree, const Octant<D>& piece,
                const FrameTransform<D>* xf) {
              got.push_back({tree, piece, xf ? *xf : id});
            });
        EXPECT_FALSE(stopped);
        ASSERT_EQ(got, want) << name << " D=" << D << " tree " << to.tree
                             << " " << to_string(to.oct);
        // Early stop: returning true on the j-th piece ends the walk there.
        if (want.empty()) continue;
        const std::size_t j = rng.below(want.size());
        std::size_t seen = 0;
        EXPECT_TRUE(detail::for_each_piece(
            conn, to, offs,
            [&](std::int32_t, const Octant<D>&, const FrameTransform<D>*) {
              return seen++ == j;
            }));
        EXPECT_EQ(seen, j + 1) << name;
      }
    }
  }
}

TEST(SpanWalk, PiecesMatchConnectivityNeighbors) {
  check_pieces<1>();
  check_pieces<2>();
  check_pieces<3>();
}

using OwnerRec = std::tuple<int, std::int32_t, bool>;

template <int D>
std::string owner_ctx(const std::string& name, int r, const TreeOct<D>& to) {
  return name + " D=" + std::to_string(D) + " rank " + std::to_string(r) +
         " tree " + std::to_string(to.tree) + " " + to_string(to.oct);
}

template <int D>
void check_remote_owners() {
  const auto id = FrameTransform<D>::identity();
  int tested = 0, empty_inside = 0;
  for (const auto& [name, conn] : connectivities<D>()) {
    Forest<D> base(conn, 1, 1);
    Rng rng(0x0e1 + D);
    random_refine(base, rng, D == 3 ? 4 : 6, 0.3);
    const std::size_t n = base.global_num_octants();
    // Adaptive leaves over uneven rank counts.  The last configuration cuts
    // the curve in 7 even parts and puts two empty ranks at each inner cut,
    // so empty ranks sit inside owner ranges.
    for (const int P : {1, 5, 13, 19}) {
      Forest<D> f(conn, P, base.gather());
      if (P == 19) {
        std::vector<std::size_t> cuts = {0};
        for (std::size_t i = 1; i <= 6; ++i) {
          cuts.insert(cuts.end(), 3, n * i / 7);
        }
        cuts.push_back(n);
        apply_cuts(f, cuts, nullptr);
      }
      for (const auto offs : offset_sets<D>()) {
        for (int r = 0; r < P; ++r) {
          OwnerWindow<D> owners(f);
          for (const auto& to : f.local(r)) {
            std::vector<OwnerRec> want, got;
            for (const auto& off : offs) {
              const auto nb = conn.neighbor(to.tree, to.oct, off);
              if (!nb) continue;
              const bool local = nb->tree == to.tree && nb->xform == id;
              const TreeOct<D> piece{nb->tree, nb->oct};
              const auto [a, b] =
                  f.owners_of(position_of(piece), end_position_of(piece));
              for (int dest = a; dest <= b; ++dest) {
                if (f.marker(dest) == f.marker(dest + 1)) {
                  ++empty_inside;
                  continue;
                }
                if (dest == r && local) continue;
                want.push_back({dest, nb->tree, nb->xform == id});
              }
            }
            detail::for_each_remote_owner(
                f, r, owners, to, offs,
                [&](int dest, std::int32_t tree, const FrameTransform<D>* xf) {
                  got.push_back({dest, tree, xf == nullptr});
                });
            ASSERT_EQ(got, want) << owner_ctx(name, r, to);
            tested += !want.empty();
          }
        }
      }
    }
  }
  // The sweep must reach remote owners, not only vacuous empty walks, and
  // owner ranges with empty ranks inside.
  EXPECT_GT(tested, 100) << "D=" << D;
  EXPECT_GT(empty_inside, 0) << "D=" << D;
}

TEST(SpanWalk, RemoteOwnersMatchBruteForce) {
  check_remote_owners<1>();
  check_remote_owners<2>();
  check_remote_owners<3>();
}

}  // namespace
}  // namespace octbal
