#include "core/region.hpp"

#include <algorithm>

#include "core/key.hpp"
#include "core/neighborhood.hpp"
#include "core/sort.hpp"
#include "obs/mem.hpp"

namespace octbal {

template <int D>
std::vector<Octant<D>> envelope_pieces(const Octant<D>& o) {
  std::vector<Octant<D>> pieces;
  pieces.reserve(full_offsets<D>().size() + 1);
  pieces.push_back(o);
  Octant<D> n;
  for (const auto& off : full_offsets<D>()) {
    if (neighbor_in_root<D>(o, off, &n)) pieces.push_back(n);
  }
  return pieces;
}

template <int D>
std::vector<Octant<D>> dirty_region_cover(
    const std::vector<Octant<D>>& dirty) {
  // The pieces buffer is processed in fixed-size chunks so the scratch
  // stays bounded no matter how large the dirty set grows (an unchunked
  // buffer would dominate the delta-balance memory peak).  Each chunk is
  // sorted and reduced to its coarsest pieces, then merged into the
  // running cover with the same drop rule: maximality under containment
  // is associative — a piece dominated within its chunk is dominated in
  // the union, and its dominator survives into the merge — so the result
  // is identical to covering all pieces in one pass.  Everything between
  // the pack of a dirty octant and the unpack of the final cover runs on
  // packed keys: the same-size neighbors are dilated Morton adds, the sort
  // is the key radix sort, and containment is a shift-and-compare.
  constexpr std::size_t kChunk = 512;
  const std::size_t per = full_offsets<D>().size() + 1;
  const std::size_t chunk = std::min(dirty.size(), kChunk);
  std::vector<okey_t> pieces;
  pieces.reserve(chunk * per);
  const obs::MemScope scratch(obs::MemTag::kRegionCover,
                              chunk * per * sizeof(okey_t));
  obs::MemScope cover_mem;
  std::vector<okey_t> out;
  std::vector<okey_t> merged;
  okey_t n = 0;
  for (std::size_t c0 = 0; c0 < dirty.size(); c0 += chunk) {
    const std::size_t c1 = std::min(dirty.size(), c0 + chunk);
    pieces.clear();
    for (std::size_t q = c0; q < c1; ++q) {
      const okey_t key = key_of(dirty[q]);
      pieces.push_back(key);
      for (const auto& off : full_offsets<D>()) {
        if (key_neighbor_in_root<D>(key, off, &n)) pieces.push_back(n);
      }
    }
    sort_keys(pieces);
    // Keep the coarsest pieces.  In Morton preorder a container sorts
    // before everything it contains, and any earlier non-adjacent
    // container would also contain the intervening kept piece — so
    // comparing against the last kept piece alone is exact (the dual of
    // Linearize).
    std::size_t w = 0;
    for (std::size_t t = 0; t < pieces.size(); ++t) {
      if (w > 0 && key_contains(pieces[w - 1], pieces[t])) continue;
      pieces[w++] = pieces[t];
    }
    pieces.resize(w);
    cover_mem.set(obs::MemTag::kRegionCover,
                  2 * (out.size() + pieces.size()) * sizeof(okey_t));
    merged.clear();
    merged.reserve(out.size() + pieces.size());
    std::size_t a = 0, b = 0;
    const auto push = [&](okey_t p) {
      if (!merged.empty() && key_contains(merged.back(), p)) return;
      merged.push_back(p);
    };
    while (a < out.size() && b < pieces.size()) {
      push(key_less(pieces[b], out[a]) ? pieces[b++] : out[a++]);
    }
    while (a < out.size()) push(out[a++]);
    while (b < pieces.size()) push(pieces[b++]);
    out.swap(merged);
  }
  return keys_to_octants<D>(out);
}

#define OCTBAL_INSTANTIATE(D)                                       \
  template std::vector<Octant<D>> envelope_pieces<D>(const Octant<D>&); \
  template std::vector<Octant<D>> dirty_region_cover<D>(             \
      const std::vector<Octant<D>>&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
