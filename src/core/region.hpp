#pragma once
/// \file region.hpp
/// \brief Dirty-region completion: the coarsest linear cover of the
/// insulation envelopes of a batch of "dirty" octants.  This is the
/// sub-forest an incremental re-balance has to reconsider — every 2:1
/// interaction of a dirty octant happens with a leaf overlapping its
/// insulation layer I(o), so the union of the envelopes bounds the region
/// whose leaves can change (forest/delta_balance.hpp consumes the cover
/// for its counters, and the churn tests assert the delta pass never
/// touches a leaf outside it).

#include <vector>

#include "core/octant.hpp"

namespace octbal {

/// The in-root pieces of the insulation layer I(o): the same-size
/// neighbors of \p o, and \p o itself, clipped to the root cube.  Between
/// 2^D and 3^D octants, in no particular order.
template <int D>
std::vector<Octant<D>> envelope_pieces(const Octant<D>& o);

/// Dirty-region completion: a sorted linear (disjoint) array of octants
/// whose union is exactly (∪_{o ∈ dirty} I(o)) ∩ root.  The cover keeps
/// the coarsest envelope pieces — a piece contained in another input's
/// coarser piece is dropped — so its size is bounded by 3^D · |dirty|
/// independently of the forest size.  The input may hold duplicates and
/// octants of mixed levels in any order.
///
/// Runs on packed keys (core/key.hpp): each dirty octant is packed once,
/// its envelope pieces are key_neighbor_in_root offsets of the key, and
/// the pieces are sorted with sort_keys in chunks of 512 dirty octants,
/// each chunk reduced to its coarsest pieces and merged into the running
/// cover; only the final cover is unpacked.  The kRegionCover charges are
/// the 8-byte key buffers (chunk pieces, plus the cover and merge
/// buffers); the chunk sort charges kSortScratch.
template <int D>
std::vector<Octant<D>> dirty_region_cover(const std::vector<Octant<D>>& dirty);

}  // namespace octbal
