#pragma once
/// \file span.hpp
/// \brief Run/span helpers shared by the balance pipelines: splitting a
/// rank's sorted TreeOct array into per-tree contiguous runs (and finding
/// a tree's run), the identity-frame insulation pieces of an octant whose
/// neighborhood stays inside its tree, clipping a re-balanced subtree back
/// to a run's original curve span (which is how ownership stays fixed
/// across a balance — the span's key interval is invariant under
/// refinement, because a split leaf's first child keeps its Morton key and
/// its last child ends where the parent ended), range searches over flat
/// leaf-interval arrays, and merging new leaves into a linear TreeOct
/// array.  Used by forest/balance.cpp (full one-pass balance),
/// forest/delta_balance.cpp (incremental re-balance) and forest/ghost.cpp
/// (the receiver-side adjacency filter).

#include <algorithm>
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
