#pragma once
/// \file span.hpp
/// \brief Run/span helpers shared by the balance pipelines: splitting a
/// rank's sorted TreeOct array into per-tree contiguous runs (and finding
/// a tree's run), the insulation-piece walks (for_each_piece and the
/// sender-side for_each_remote_owner), clipping a re-balanced subtree back
/// to a run's original curve span (which is how ownership stays fixed
/// across a balance — the span's key interval is invariant under
/// refinement, because a split leaf's first child keeps its Morton key and
/// its last child ends where the parent ended), range searches over flat
/// leaf-interval arrays, and merging new leaves into a linear TreeOct
/// array.  Used by forest/balance.cpp (the query walk, the response and
/// phase 4), forest/delta_balance.cpp (the push walk and the re-balance),
/// forest/ghost.cpp (the candidate walk and the receiver-side adjacency
/// filter) and forest/repartition.cpp (the query-replay oracle).  The
/// checkers and oracles those pipelines are tested against
/// (forest_find_violation, Forest::coarsen, analyze_mesh, the serial
/// forest balance) walk conn.neighbor directly so they never share this
/// code.

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "forest/forest.hpp"

namespace octbal::detail {

/// Runs of equal tree id within a sorted TreeOct array.
template <int D>
std::vector<std::pair<std::size_t, std::size_t>> tree_runs(
    const std::vector<TreeOct<D>>& a) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  std::size_t i = 0;
  while (i < a.size()) {
    std::size_t j = i;
    while (j < a.size() && a[j].tree == a[i].tree) ++j;
    runs.push_back({i, j});
    i = j;
  }
  return runs;
}

/// One tree's contiguous run [lo, hi) of a rank's sorted leaf array.
struct TreeRun {
  std::int32_t tree;
  std::size_t lo, hi;
};

/// tree_runs tagged with their tree ids (ascending), for find_run.
template <int D>
std::vector<TreeRun> tagged_tree_runs(const std::vector<TreeOct<D>>& a) {
  std::vector<TreeRun> runs;
  for (const auto& [i, j] : tree_runs(a)) runs.push_back({a[i].tree, i, j});
  return runs;
}

/// The run of \p tree in \p runs, or null if the array holds no leaf of it.
inline const TreeRun* find_run(const std::vector<TreeRun>& runs,
                               std::int32_t tree) {
  const auto it = std::lower_bound(
      runs.begin(), runs.end(), tree,
      [](const TreeRun& a, std::int32_t t) { return a.tree < t; });
  return it != runs.end() && it->tree == tree ? &*it : nullptr;
}

/// True iff the whole insulation layer of \p o (o and its 3^D - 1
/// same-size neighbors) lies inside o's tree.  Every insulation piece is
/// then a plain coordinate offset of o (offset_piece) in the identity
/// frame, so no connectivity lookup is needed.
template <int D>
bool insulation_in_tree(const Octant<D>& o) {
  const coord_t h = side_len(o);
  for (int d = 0; d < D; ++d) {
    if (o.x[d] < h || o.x[d] + 2 * h > root_len<D>) return false;
  }
  return true;
}

/// The same-size neighbor of \p o at offset \p off (in side lengths).
template <int D>
Octant<D> offset_piece(const Octant<D>& o, const std::array<int, D>& off) {
  Octant<D> piece = o;
  for (int d = 0; d < D; ++d) {
    piece.x[d] += static_cast<coord_t>(off[d]) * side_len(o);
  }
  return piece;
}

/// Half-open key interval [lo, hi) of the insulation envelope of \p to in
/// its own tree; meaningful when insulation_in_tree(to.oct).  Morton keys
/// are monotone in componentwise coordinate order, so the (-1..-1) and
/// (+1..+1) corner pieces bound the key interval of every piece: when the
/// envelope lies inside one rank's curve span, so does every piece.
template <int D>
std::pair<GlobalPos, GlobalPos> envelope(const TreeOct<D>& to) {
  const coord_t h = side_len(to.oct);
  Octant<D> lo = to.oct, hi = to.oct;
  for (int d = 0; d < D; ++d) {
    lo.x[d] -= h;
    hi.x[d] += h;
  }
  return {position_of(TreeOct<D>{to.tree, lo}),
          end_position_of(TreeOct<D>{to.tree, hi})};
}

/// Calls fn(tree, piece, xf) for every in-domain insulation piece of \p to
/// at the offsets \p offs, in \p offs order: the same-size neighbor at
/// that offset, in its own tree's frame, with xf its neighbor -> source
/// frame map.  An octant whose whole layer stays in its tree takes plain
/// coordinate offsets with xf null (the identity); any other goes through
/// conn.neighbor.  fn may return true to stop the walk; the walk
/// returns whether it was stopped.
template <int D>
using OffsetSpan = std::type_identity_t<std::span<const std::array<int, D>>>;

template <int D, class Fn>
bool for_each_piece(const Connectivity<D>& conn, const TreeOct<D>& to,
                    OffsetSpan<D> offs, Fn&& fn) {
  const auto call = [&](std::int32_t tree, const Octant<D>& piece,
                        const FrameTransform<D>* xf) {
    if constexpr (std::is_void_v<decltype(fn(tree, piece, xf))>) {
      fn(tree, piece, xf);
      return false;
    } else {
      return static_cast<bool>(fn(tree, piece, xf));
    }
  };
  if (insulation_in_tree(to.oct)) {
    for (const auto& off : offs) {
      if (call(to.tree, offset_piece<D>(to.oct, off), nullptr)) return true;
    }
    return false;
  }
  for (const auto& off : offs) {
    const auto nb = conn.neighbor(to.tree, to.oct, off);
    if (nb && call(nb->tree, nb->oct, &nb->xform)) return true;
  }
  return false;
}

/// The sender walk of the query, push and ghost phases: calls
/// fn(dest, tree, xf) for every non-empty rank owning part of an
/// insulation piece of rank \p r's leaf \p to (offsets \p offs), once per
/// (piece, owner), with xf null iff the piece keeps o's frame.  A piece of
/// o's own tree and frame that \p r owns is covered by r's local subtree
/// balance and is skipped, as is that r itself as a destination; a piece
/// that wraps back into r through a periodic face or another tree still
/// reaches fn with dest == r.  Owner resolution runs through \p owners:
/// an interior octant whose envelope lies inside r's span returns at once,
/// any other interior octant resolves its envelope's owner window once
/// (DESIGN.md §2.10), and a boundary octant uses only the last-hit cache.
template <int D, class Fn>
void for_each_remote_owner(const Forest<D>& f, int r, OwnerWindow<D>& owners,
                           const TreeOct<D>& to, OffsetSpan<D> offs, Fn&& fn) {
  const GlobalPos own_lo = f.marker(r);
  const GlobalPos own_hi = f.marker(r + 1);
  if (insulation_in_tree(to.oct)) {
    const auto [lo, hi] = envelope(to);
    if (own_lo <= lo && hi <= own_hi) return;
    owners.set_window(lo, hi);
  } else {
    owners.clear_window();
  }
  for_each_piece(f.connectivity(), to, offs,
                 [&](std::int32_t tree, const Octant<D>& piece,
                     const FrameTransform<D>* xf) {
    if (xf && *xf == FrameTransform<D>::identity()) xf = nullptr;
    const bool local = tree == to.tree && !xf;
    const GlobalPos lo{tree, morton_key(piece)};
    const GlobalPos hi{tree, lo.key + (morton_t{1} << (D * size_exp(piece)))};
    if (local && own_lo <= lo && hi <= own_hi) return;
    const auto [a, b] = owners.owners_of(lo, hi);
    for (int dest = a; dest <= b; ++dest) {
      if (f.marker(dest) == f.marker(dest + 1)) continue;  // empty rank
      if (dest == r && local) continue;
      fn(dest, tree, xf);
    }
  });
}

/// Keep only the leaves of \p balanced whose Morton interval lies within
/// the closed span of the original run [first, last].
template <int D>
void clip_to_span(const std::vector<Octant<D>>& balanced,
                  const Octant<D>& first, const Octant<D>& last,
                  std::int32_t tree, std::vector<TreeOct<D>>& out) {
  const morton_t lo = morton_key(first);
  const morton_t hi =
      morton_key(last) + (morton_t{1} << (D * size_exp(last)));
  for (const auto& o : balanced) {
    const morton_t key = morton_key(o);
    if (key >= lo && key < hi) out.push_back(TreeOct<D>{tree, o});
  }
}

/// Flat Morton interval bounds of every leaf of a sorted linear TreeOct
/// array: leaf i covers [begin[i], end[i]).  Within one tree's run both
/// arrays increase, so the leaves overlapping a piece are found by two
/// partition_points over plain integers — no Morton interleave per probe.
template <int D>
struct LeafIntervals {
  std::vector<morton_t> begin, end;

  explicit LeafIntervals(const std::vector<TreeOct<D>>& a)
      : begin(a.size()), end(a.size()) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      begin[i] = morton_key(a[i].oct);
      end[i] = begin[i] + (morton_t{1} << (D * size_exp(a[i].oct)));
    }
  }

  /// Index range [first, last) of the leaves of the tree run [lo, hi)
  /// whose intervals overlap \p piece's (given in that tree's frame).
  std::pair<std::size_t, std::size_t> overlapping(
      std::size_t lo, std::size_t hi, const Octant<D>& piece) const {
    const morton_t pb = morton_key(piece);
    const morton_t pe = pb + (morton_t{1} << (D * size_exp(piece)));
    const auto e = end.begin();
    const std::size_t first = static_cast<std::size_t>(
        std::partition_point(e + lo, e + hi,
                             [&](morton_t x) { return x <= pb; }) -
        e);
    const auto b = begin.begin();
    const std::size_t last = static_cast<std::size_t>(
        std::partition_point(b + first, b + hi,
                             [&](morton_t x) { return x < pe; }) -
        b);
    return {first, last};
  }
};

/// Merge \p extra into the sorted linear array \p mine and remove
/// ancestors (keep finest): the array sort + linearize of the union would
/// produce, at the cost of sorting only the small \p extra (left sorted)
/// and one merge.  contains() is reflexive, so duplicates collapse too.
template <int D>
void merge_linearize_treeocts(std::vector<TreeOct<D>>& mine,
                              std::vector<TreeOct<D>>& extra) {
  std::sort(extra.begin(), extra.end());
  const auto mid = static_cast<std::ptrdiff_t>(mine.size());
  mine.insert(mine.end(), extra.begin(), extra.end());
  std::inplace_merge(mine.begin(), mine.begin() + mid, mine.end());
  std::size_t w = 0;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (i + 1 < mine.size() && mine[i].tree == mine[i + 1].tree &&
        contains(mine[i].oct, mine[i + 1].oct)) {
      continue;
    }
    mine[w++] = mine[i];
  }
  mine.resize(w);
}

}  // namespace octbal::detail
