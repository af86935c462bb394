/// \file test_seeds.cpp
/// \brief Validation of seed octants (Section IV): for every (o, r) pair in
/// a small domain, balancing the seeds inside r as root must reproduce
/// Tk(o) ∩ r exactly, and the seed sets must stay O(1)-small.

#include <gtest/gtest.h>

#include "core/balance_subtree.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "core/ripple.hpp"
#include "core/seeds.hpp"
#include "obs/mem.hpp"
#include "util/rng.hpp"

namespace octbal {
namespace {

/// Enumerate every valid octant of level in [lmin, lmax] inside root.
template <int D>
std::vector<Octant<D>> all_octants(int lmin, int lmax) {
  std::vector<Octant<D>> out;
  std::vector<Octant<D>> frontier{root_octant<D>()};
  for (int lvl = 1; lvl <= lmax; ++lvl) {
    std::vector<Octant<D>> next;
    for (const auto& p : frontier)
      for (int c = 0; c < num_children<D>; ++c) next.push_back(child(p, c));
    frontier = next;
    if (lvl >= lmin) out.insert(out.end(), next.begin(), next.end());
  }
  if (lmin == 0) out.push_back(root_octant<D>());
  return out;
}

/// Oracle: the part of the precomputed Tk(o) tree \p t inside r.
template <int D>
std::vector<Octant<D>> oracle_overlap(const std::vector<Octant<D>>& t,
                                      const Octant<D>& r) {
  std::vector<Octant<D>> s;
  const auto [lo, hi] = overlapping_range(t, r);
  for (std::size_t i = lo; i < hi; ++i) {
    // A leaf coarser than r clips to r itself.
    s.push_back(contains(t[i], r) ? r : t[i]);
  }
  return s;
}

template <int D>
void exhaustive_seed_check(int lmax, std::size_t size_bound) {
  const auto octs = all_octants<D>(1, lmax);
  std::size_t worst = 0;
  for (int k = 1; k <= D; ++k) {
    for (const auto& o : octs) {
      const auto t = tk_of(o, k, root_octant<D>());
      for (const auto& r : octs) {
        if (r.level > o.level || overlaps(o, r)) continue;
        const auto seeds = balance_seeds(o, r, k);
        worst = std::max(worst, seeds.size());
        const auto want = oracle_overlap(t, r);
        if (seeds.empty()) {
          // No split: r must be balanced with o (every oracle leaf in r is
          // at least r-sized).
          for (const auto& leaf : want) {
            ASSERT_GE(size_exp(leaf), size_exp(r))
                << "missing seeds: o=" << to_string(o) << " r=" << to_string(r)
                << " k=" << k;
          }
          continue;
        }
        for (const auto& s : seeds) {
          ASSERT_TRUE(contains(r, s)) << "seed outside r";
        }
        const auto rebuilt = balance_subtree_new(seeds, k, r);
        ASSERT_EQ(rebuilt, want)
            << "o=" << to_string(o) << " r=" << to_string(r) << " k=" << k
            << " seeds=" << seeds.size();
      }
    }
  }
  // The paper proves a 3^(d-1) bound on a minimal seed set; our closure adds
  // at most a small constant factor and must stay O(1) regardless of the
  // distance between o and r.
  EXPECT_LE(worst, size_bound) << "seed sets are not O(1)";
}

TEST(SeedsExhaustive, OneD) { exhaustive_seed_check<1>(6, 2); }
TEST(SeedsExhaustive, TwoD) { exhaustive_seed_check<2>(4, 8); }
TEST(SeedsExhaustive, ThreeD) { exhaustive_seed_check<3>(3, 27); }

TEST(Seeds, FarAwayOctantNeedsNoSeeds) {
  // o so far from r that Tk(o) is coarser than r everywhere inside r.
  const coord_t h = root_len<2> / 16;
  Oct2 o{{0, 0}, 4};
  Oct2 r{{14 * h, 14 * h}, 4};  // same size, far away: always balanced
  EXPECT_TRUE(balance_seeds(o, r, 1).empty());
  EXPECT_TRUE(balance_seeds(o, r, 2).empty());
}

TEST(Seeds, AdjacentDeepOctantSplitsCoarseNeighbor) {
  // A deep octant next to a much coarser one: seeds must be produced.
  const auto root = root_octant<2>();
  auto o = child(child(child(child(root, 1), 0), 0), 0);  // deep in child 1
  const auto r = child(root, 0);                          // coarse neighbor
  const auto seeds = balance_seeds(o, r, 1);
  EXPECT_FALSE(seeds.empty());
  for (const auto& s : seeds) EXPECT_TRUE(contains(r, s));
}

TEST(Seeds, WorkIsIndependentOfDistance) {
  // The number of seeds does not grow with the distance between o and r:
  // the motivating property of Section IV.
  std::size_t sizes[2] = {0, 0};
  int idx = 0;
  for (coord_t shift : {coord_t{2}, coord_t{512}}) {
    const coord_t h = root_len<3> / 1024;
    Oct3 o{{shift * h, 0, 0}, 10};
    auto o2 = o;
    o2.x[0] = root_len<3> / 2 + shift * h;  // outside r, distance ~shift
    Oct3 query{{0, 0, 0}, 1};
    const auto seeds = balance_seeds(o2, query, 2);
    sizes[idx++] = seeds.size();
  }
  EXPECT_LE(sizes[1], sizes[0] + 2);
}

/// balance_seeds_into with buffers reused across calls must return exactly
/// balance_seeds' seeds, and report exactly the kSeeds bytes the wrapper
/// charges.  Half the pairs put r beside an ancestor of o (where seeds are
/// needed), half draw r anywhere (finer than o, or far and balanced), so
/// both early returns and the closure itself are exercised.
template <int D>
void seeds_into_matches_wrapper(std::uint64_t seed) {
  Rng rng(seed);
  const auto root = root_octant<D>();
  const auto& offs = full_offsets<D>();
  std::vector<Octant<D>> out, scratch;
  std::size_t finer = 0, balanced = 0, seeded = 0;
  for (int k = 1; k <= D; ++k) {
    for (int i = 0; i < 2000; ++i) {
      const Octant<D> o = random_octant(rng, root, 9);
      Octant<D> r = random_octant(rng, root, 9);
      if (rng.chance(0.5) && o.level > 0) {
        const Octant<D> a = ancestor(o, 1 + static_cast<int>(rng.below(
                                               static_cast<std::uint64_t>(
                                                   o.level))));
        Octant<D> nb;
        if (neighbor_in<D>(a, offs[rng.below(offs.size())], root, &nb)) r = nb;
      }
      if (overlaps(o, r)) continue;
      std::vector<Octant<D>> want;
      std::uint64_t charged = 0;
      bool accounted = false;
      {
        obs::MemSession mem(1);
        accounted = obs::mem_enabled();
        want = balance_seeds(o, r, k);
        for (const auto& t : mem.snapshot().tags) {
          if (t.tag == obs::MemTag::kSeeds) charged = t.total;
        }
      }
      const std::size_t bytes = balance_seeds_into(o, r, k, out, scratch);
      ASSERT_EQ(out, want) << "o=" << to_string(o) << " r=" << to_string(r)
                           << " k=" << k;
      if (accounted) {
        ASSERT_EQ(bytes, charged);
      }
      if (r.level > o.level) {
        ++finer;
      } else if (want.empty()) {
        ++balanced;
        ASSERT_EQ(bytes, 0u);
      } else {
        ++seeded;
      }
    }
  }
  EXPECT_GT(finer, 0u);
  EXPECT_GT(balanced, 0u);
  EXPECT_GT(seeded, 0u);
}

TEST(SeedsInto, MatchesChargingWrapper2D) {
  for (std::uint64_t seed : {1u, 2u, 3u}) seeds_into_matches_wrapper<2>(seed);
}
TEST(SeedsInto, MatchesChargingWrapper3D) {
  for (std::uint64_t seed : {1u, 2u, 3u}) seeds_into_matches_wrapper<3>(seed);
}

}  // namespace
}  // namespace octbal
