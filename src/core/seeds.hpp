#pragma once
/// \file seeds.hpp
/// \brief Seed octants (Section IV): an O(1)-size stand-in for a response
/// octant from which a remote process can reconstruct the overlap of
/// Tk(o) with its own query octant r.
///
/// Instead of sending a distant fine octant o (forcing the receiver to
/// construct auxiliary octants bridging the gap), the responder computes a
/// small set of seed octants inside r — at most 3^(d-1) of them — such that
/// balancing the seeds *within r as root* reproduces S = Tk(o) ∩ r exactly.
/// The receiver's work is then proportional to |S|, independent of the
/// distance between o and r.

#include <cstddef>
#include <vector>

#include "core/octant.hpp"

namespace octbal {

/// Compute seed octants for response octant \p o and query octant \p r
/// under balance condition \p k.  Returns an empty vector when o cannot
/// cause r to split (r is already balanced with o).  Otherwise the returned
/// octants are descendants of r, and
///   balance_subtree_new(seeds, k, r) == Tk(o) ∩ r.
/// Octants o and r must be disjoint.  Charges its working set to the
/// kSeeds memory tag (see balance_seeds_into).
template <int D>
std::vector<Octant<D>> balance_seeds(const Octant<D>& o, const Octant<D>& r,
                                     int k);

/// The allocation-free kernel behind balance_seeds: overwrites \p out with
/// the same seeds, using \p scratch for the neighborhood probes (both are
/// caller-owned and may be reused across calls).  Opens no memory scope;
/// returns instead the kSeeds bytes balance_seeds charges for this call
/// (0 on the early returns), so a caller running many closures can charge
/// their maximum once.
template <int D>
std::size_t balance_seeds_into(const Octant<D>& o, const Octant<D>& r, int k,
                               std::vector<Octant<D>>& out,
                               std::vector<Octant<D>>& scratch);

}  // namespace octbal
