#pragma once
/// \file insulation.hpp
/// \brief Insulation layers I(r) (Section II-B, Figure 4).
///
/// The insulation layer of an octant r is the 3^d envelope of r-sized
/// octants around (and including) r.  Two octants o, r can only be
/// unbalanced if o lies in I(r) or r lies in I(o); comparing insulation
/// layers with partition boundaries determines which processes must
/// exchange information during 2:1 balance.

#include <cstdint>
#include <vector>

#include "core/octant.hpp"

namespace octbal {

/// True iff \p o lies inside the insulation layer of \p r (the closed 3x
/// box around r), coordinates taken within a single tree.
template <int D>
constexpr bool in_insulation(const Octant<D>& o, const Octant<D>& r) {
  const scoord_t hr = side_len(r), ho = side_len(o);
  for (int i = 0; i < D; ++i) {
    const scoord_t lo = static_cast<scoord_t>(r.x[i]) - hr;
    const scoord_t hi = static_cast<scoord_t>(r.x[i]) + 2 * hr;
    const scoord_t a = static_cast<scoord_t>(o.x[i]);
    if (a < lo || a + ho > hi) return false;
  }
  return true;
}

/// The pieces of I(r) other than r itself that lie inside \p domain.
/// Appends the same-size neighbor octants of r to \p out.
template <int D>
void insulation_pieces(const Octant<D>& r, const Octant<D>& domain,
                       std::vector<Octant<D>>& out);

/// The number of pieces insulation_pieces(r, root) appends, in closed
/// form: per axis, r's own slab plus the one below (if r is not on the
/// lower root face) and the one above (if r is not on the upper face); the
/// product counts the whole in-root envelope, r included.
template <int D>
constexpr std::uint64_t insulation_piece_count(const Octant<D>& r) {
  const coord_t h = side_len(r);
  std::uint64_t n = 1;
  for (int i = 0; i < D; ++i) {
    n *= 1u + (r.x[i] >= h ? 1u : 0u) +
         (r.x[i] + 2 * h <= root_len<D> ? 1u : 0u);
  }
  return n - 1;
}

}  // namespace octbal
