#include "core/seeds.hpp"

#include <algorithm>

#include "core/lambda.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "obs/mem.hpp"

namespace octbal {

namespace {

/// closest_balanced(o, n, k) for a block n already known to be too coarse:
/// \p e = finest_exp_in(o, n, k) < size_exp(n), computed once by the caller.
template <int D>
Octant<D> closest_balanced_at(const Octant<D>& o, const Octant<D>& n, int e) {
  return ancestor(closest_contained(o, n), max_level<D> - e);
}

}  // namespace

template <int D>
std::size_t balance_seeds_into(const Octant<D>& o, const Octant<D>& r, int k,
                               std::vector<Octant<D>>& out,
                               std::vector<Octant<D>>& scratch) {
  assert(!overlaps(o, r));
  out.clear();
  scratch.clear();
  if (r.level > o.level) return 0;  // r is finer than o: o cannot split it
  const int e = finest_exp_in(o, r, k);
  if (e >= size_exp(r)) return 0;  // already balanced

  // a: the finest leaf of Tk(o) inside r, at the closest position to o.
  out.push_back(closest_balanced_at(o, r, e));

  // Grow the generator set outward: wherever a parent-sized neighbor
  // position of an existing seed is still too coarse for Tk(o), add the
  // closest balanced octant there.  Since Tk(o) grows coarser away from o,
  // this closure visits the O(1)-size "too fine" region of r only.  Every
  // generator is appended once and expanded once, in insertion order, so
  // walking out by index is the FIFO work queue.
  for (std::size_t w = 0; w < out.size(); ++w) {
    scratch.clear();
    coarse_neighborhood(out[w], k, r, scratch);
    for (const Octant<D>& n : scratch) {
      const int en = finest_exp_in(o, n, k);
      if (en >= size_exp(n)) continue;  // n can be a leaf
      const Octant<D> t = closest_balanced_at(o, n, en);
      if (std::find(out.begin(), out.end(), t) != out.end()) continue;
      out.push_back(t);
    }
  }
  // The closure's high-water point: the generator set plus the last probed
  // neighborhood.
  const std::size_t bytes = (out.size() + scratch.size()) * sizeof(Octant<D>);
  linearize(out);
  return bytes;
}

template <int D>
std::vector<Octant<D>> balance_seeds(const Octant<D>& o, const Octant<D>& r,
                                     int k) {
  std::vector<Octant<D>> out, scratch;
  // The closure's sets are O(1), below the radix threshold, so its
  // linearize charges nothing: opening the charge afterwards moves no peak.
  const std::size_t bytes = balance_seeds_into(o, r, k, out, scratch);
  const obs::MemScope seeds_mem(obs::MemTag::kSeeds, bytes);
  return out;
}

#define OCTBAL_INSTANTIATE(D)                                              \
  template std::vector<Octant<D>> balance_seeds<D>(const Octant<D>&,       \
                                                   const Octant<D>&, int); \
  template std::size_t balance_seeds_into<D>(                              \
      const Octant<D>&, const Octant<D>&, int, std::vector<Octant<D>>&,    \
      std::vector<Octant<D>>&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
