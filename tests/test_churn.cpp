/// \file test_churn.cpp
/// \brief Property battery for the AMR churn lifecycle: Forest::coarsen
/// (family merge, ownership, the 2:1-safety veto), the dirty log,
/// dirty-region completion (core/region.hpp), FrameTransform::inverse,
/// the merge-linearize of new leaves into a rank's array (forest/span.hpp),
/// and — the load-bearing claim — delta_balance() byte-identity with the
/// full one-pass pipeline across sustained refine → balance → repartition
/// → coarsen steps at several rank and thread counts (the tsan label runs
/// this file under the threaded rank engine).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/neighborhood.hpp"
#include "core/region.hpp"
#include "forest/delta_balance.hpp"
#include "forest/repartition.hpp"
#include "forest/span.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

template <int D>
bool forests_identical(const Forest<D>& a, const Forest<D>& b) {
  if (a.num_ranks() != b.num_ranks()) return false;
  for (int r = 0; r < a.num_ranks(); ++r) {
    if (!(a.local(r) == b.local(r))) return false;
  }
  return a.markers() == b.markers();
}

void prebalance(Forest<3>& f) {
  SimComm warm(f.num_ranks());
  warm.set_record_rounds(false);
  balance(f, BalanceOptions::new_config(), warm);
  f.clear_dirty();
}

// ---------------------------------------------------------------------------
// FrameTransform::inverse

TEST(FrameInverse, RoundTripsEveryRingTransform2D) {
  // The glued ring (including the Möbius orientation) exercises permuted,
  // reflected and offset frames; inverse() must undo apply() for octants
  // at several levels and positions.
  for (const std::uint8_t orient : {std::uint8_t{0}, std::uint8_t{1}}) {
    const auto conn = Connectivity<2>::ring(4, orient);
    Rng rng(7u + orient);
    for (int t = 0; t < conn.num_trees(); ++t) {
      Octant<2> o = root_octant<2>();
      for (int step = 0; step < 40; ++step) {
        o = root_octant<2>();
        const int lv = 1 + static_cast<int>(rng.below(3));
        for (int l = 0; l < lv; ++l) {
          o = child(o, static_cast<int>(rng.below(num_children<2>)));
        }
        for (const auto& off : full_offsets<2>()) {
          const auto nb = conn.neighbor(t, o, off);
          if (!nb) continue;
          const auto inv = nb->xform.inverse();
          EXPECT_EQ(nb->xform.apply(inv.apply(o)), o);
          EXPECT_EQ(inv.apply(nb->xform.apply(o)), o);
        }
      }
    }
  }
}

TEST(FrameInverse, IdentityIsItsOwnInverse) {
  const auto id = FrameTransform<3>::identity();
  EXPECT_EQ(id.inverse(), id);
}

// ---------------------------------------------------------------------------
// Dirty-region completion

TEST(DirtyRegion, EnvelopePiecesAreInRootSameSizeNeighbors) {
  // An interior octant has the full 3^D envelope; a corner octant keeps
  // only the in-root quadrant (2^D pieces including itself).
  Octant<2> corner = child(child(root_octant<2>(), 0), 0);
  EXPECT_EQ(envelope_pieces<2>(corner).size(), 4u);
  Octant<2> interior = child(child(root_octant<2>(), 0), 3);
  EXPECT_EQ(envelope_pieces<2>(interior).size(), 9u);
  for (const auto& p : envelope_pieces<2>(interior)) {
    EXPECT_EQ(p.level, interior.level);
  }
}

TEST(DirtyRegion, CoverIsSortedCoarsestAndCoversEveryEnvelope) {
  Rng rng(2012);
  std::vector<Octant<3>> dirty;
  for (int i = 0; i < 25; ++i) {
    Octant<3> o = root_octant<3>();
    const int lv = 1 + static_cast<int>(rng.below(4));
    for (int l = 0; l < lv; ++l) {
      o = child(o, static_cast<int>(rng.below(num_children<3>)));
    }
    dirty.push_back(o);
  }
  const auto cover = dirty_region_cover<3>(dirty);
  ASSERT_FALSE(cover.empty());
  // Sorted, and no piece contains a later one (coarsest, overlap-free in
  // the ancestor sense).
  for (std::size_t i = 0; i + 1 < cover.size(); ++i) {
    EXPECT_LT(cover[i], cover[i + 1]);
    EXPECT_FALSE(contains(cover[i], cover[i + 1]));
  }
  // Every envelope piece of every dirty octant is inside some cover piece.
  for (const auto& o : dirty) {
    for (const auto& p : envelope_pieces<3>(o)) {
      bool covered = false;
      for (const auto& c : cover) {
        if (contains(c, p) || c == p) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "uncovered envelope piece of " << to_string(o);
    }
  }
}

/// The cover as an array-of-Octant oracle: every envelope piece in one
/// buffer, std::sort, and drop each piece a kept coarser piece contains.
template <int D>
std::vector<Octant<D>> cover_oracle(const std::vector<Octant<D>>& dirty) {
  std::vector<Octant<D>> pieces;
  for (const auto& o : dirty) {
    const auto env = envelope_pieces<D>(o);
    pieces.insert(pieces.end(), env.begin(), env.end());
  }
  std::sort(pieces.begin(), pieces.end());
  std::vector<Octant<D>> out;
  for (const auto& p : pieces) {
    if (!out.empty() && contains(out.back(), p)) continue;
    out.push_back(p);
  }
  return out;
}

/// \p n dirty octants at levels min_lv..max_lv, one in ten an exact duplicate
/// of an earlier one, and each coordinate on a root face a third of the
/// time — so face, edge and corner octants all occur.
template <int D>
std::vector<Octant<D>> boundary_heavy_dirty(std::uint64_t seed, std::size_t n,
                                            int min_lv, int max_lv) {
  Rng rng(seed);
  std::vector<Octant<D>> dirty;
  while (dirty.size() < n) {
    if (!dirty.empty() && rng.below(10) == 0) {
      dirty.push_back(dirty[rng.below(dirty.size())]);
      continue;
    }
    Octant<D> o;
    o.level = static_cast<level_t>(min_lv + rng.below(max_lv - min_lv + 1));
    const coord_t h = side_len(o);
    for (int d = 0; d < D; ++d) {
      switch (rng.below(6)) {
        case 0: o.x[d] = 0; break;
        case 1: o.x[d] = root_len<D> - h; break;
        default: o.x[d] = h * static_cast<coord_t>(rng.below(root_len<D> / h));
      }
    }
    dirty.push_back(o);
  }
  return dirty;
}

template <int D>
void check_cover_matches_oracle(int min_lv, int max_lv) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    // 2,100 octants: four full 512-chunks and a partial fifth.
    const auto dirty = boundary_heavy_dirty<D>(seed, 2100, min_lv, max_lv);
    // Every boundary class (face, edge, ..., corner) is present.
    std::vector<int> on_faces(D + 1, 0);
    for (const auto& o : dirty) {
      int faces = 0;
      for (int d = 0; d < D; ++d) {
        faces += o.x[d] == 0 || o.x[d] + side_len(o) == root_len<D>;
      }
      ++on_faces[faces];
    }
    for (int c = 1; c <= D; ++c) ASSERT_GT(on_faces[c], 0) << c;
    const auto cover = dirty_region_cover<D>(dirty);
    ASSERT_EQ(cover, cover_oracle<D>(dirty)) << "seed " << seed;
    // The envelopes must not collapse into a few coarse pieces, or the
    // chunk merge goes untested: the cover spans several levels.
    std::vector<bool> level_seen(max_level<D> + 1, false);
    for (const auto& o : cover) level_seen[o.level] = true;
    EXPECT_GE(std::count(level_seen.begin(), level_seen.end(), true), 3);
    EXPECT_GT(cover.size(), 1000u);
  }
}

TEST(DirtyRegion, CoverMatchesOctantOracle2D) {
  check_cover_matches_oracle<2>(5, 10);
}

TEST(DirtyRegion, CoverMatchesOctantOracle3D) {
  check_cover_matches_oracle<3>(4, 7);
}

// ---------------------------------------------------------------------------
// Merge-linearize

TEST(Span, MergeLinearizeMatchesSortLinearize) {
  Rng rng(2012);
  for (int trial = 0; trial < 40; ++trial) {
    // A sorted linear multi-tree run: a few random refinements of each of
    // several (not necessarily consecutive) trees.
    std::vector<TreeOct<2>> mine;
    for (std::int32_t tree = 0; tree < 5; ++tree) {
      if (rng.below(4) == 0) continue;
      std::vector<Octant<2>> leaves{root_octant<2>()};
      const int splits = static_cast<int>(rng.below(12));
      for (int s = 0; s < splits; ++s) {
        const std::size_t i = rng.below(leaves.size());
        const Octant<2> o = leaves[i];
        if (o.level >= 6) continue;
        leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(i));
        for (int c = 0; c < num_children<2>; ++c) {
          leaves.push_back(child(o, c));
        }
      }
      std::sort(leaves.begin(), leaves.end());
      for (const auto& o : leaves) mine.push_back(TreeOct<2>{tree, o});
    }
    if (mine.empty()) continue;
    // Extra leaves: refinements of some leaves (a whole family or a
    // single descendant), and exact duplicates of leaves and of extras.
    std::vector<TreeOct<2>> extra;
    const std::size_t n_extra = rng.below(3 * mine.size());
    for (std::size_t e = 0; e < n_extra; ++e) {
      const TreeOct<2> t = mine[rng.below(mine.size())];
      switch (rng.below(4)) {
        case 0:
          extra.push_back(t);
          break;
        case 1:
          if (!extra.empty()) extra.push_back(extra[rng.below(extra.size())]);
          break;
        case 2:
          for (int c = 0; c < num_children<2>; ++c) {
            extra.push_back(TreeOct<2>{t.tree, child(t.oct, c)});
          }
          break;
        default: {
          Octant<2> o = t.oct;
          const int depth = 1 + static_cast<int>(rng.below(3));
          for (int l = 0; l < depth; ++l) {
            o = child(o, static_cast<int>(rng.below(num_children<2>)));
          }
          extra.push_back(TreeOct<2>{t.tree, o});
        }
      }
    }
    // Oracle: sort the union, then drop every element that contains its
    // successor in the same tree.
    std::vector<TreeOct<2>> want = mine;
    want.insert(want.end(), extra.begin(), extra.end());
    std::sort(want.begin(), want.end());
    std::vector<TreeOct<2>> kept;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (i + 1 < want.size() && want[i].tree == want[i + 1].tree &&
          contains(want[i].oct, want[i + 1].oct)) {
        continue;
      }
      kept.push_back(want[i]);
    }
    detail::merge_linearize_treeocts(mine, extra);
    ASSERT_EQ(mine, kept) << "trial " << trial;
    EXPECT_TRUE(std::is_sorted(extra.begin(), extra.end()));
  }
}

// ---------------------------------------------------------------------------
// Coarsen

TEST(Coarsen, RefineCoarsenRoundTripRestoresChecksum) {
  Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 4, 1);
  const std::uint64_t sum0 = forest_checksum(f);
  const std::uint64_t n0 = f.global_num_octants();
  // Refine one sweep everywhere, then coarsen everything back: with no
  // veto (balance_k = 0) every family collapses and the original leaf
  // set returns exactly.
  f.refine([](const TreeOct<3>&) { return true; }, false);
  EXPECT_EQ(f.global_num_octants(), n0 * num_children<3>);
  f.coarsen([](const TreeOct<3>&) { return true; }, 0);
  EXPECT_EQ(f.global_num_octants(), n0);
  EXPECT_EQ(forest_checksum(f), sum0);
  EXPECT_TRUE(f.is_valid());
}

TEST(Coarsen, LogsCollapsedParentsInDirtyLog) {
  Forest<2> f(Connectivity<2>::brick({1, 1}), 1, 2);
  f.clear_dirty();
  const std::uint64_t n0 = f.global_num_octants();
  f.coarsen([](const TreeOct<2>&) { return true; }, 0);
  EXPECT_EQ(f.global_num_octants(), n0 / num_children<2>);
  EXPECT_EQ(f.dirty().size(), n0 / num_children<2>);
}

TEST(Coarsen, VetoKeepsBalancedForestBalanced) {
  // A graded icesheet mesh, balanced, then aggressively coarsened with
  // the veto on: the result must still satisfy the 2:1 condition.  The
  // same sweep with the veto off breaks it (sanity that the predicate is
  // actually aggressive enough to need the veto).
  Rng rng(99);
  for (int trial = 0; trial < 3; ++trial) {
    Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 8, 1);
    IceSheetParams p;
    p.seed = 2012 + trial;
    icesheet_refine(f, 5, p);
    prebalance(f);
    ASSERT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3));

    Forest<3> noveto = f;
    f.coarsen([&](const TreeOct<3>&) { return true; }, 3);
    EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3))
        << "veto'd coarsen broke 2:1 balance (trial " << trial << ")";
    EXPECT_TRUE(f.is_valid());

    noveto.coarsen([&](const TreeOct<3>&) { return true; }, 0);
    EXPECT_FALSE(
        forest_is_balanced(noveto.gather(), noveto.connectivity(), 3))
        << "unveto'd full coarsen unexpectedly stayed balanced — the veto "
           "test is vacuous (trial "
        << trial << ")";
  }
}

TEST(Coarsen, OnlyCompleteSingleRankFamiliesCollapse) {
  // With the family split across two ranks, no member may collapse.
  Forest<2> f(Connectivity<2>::brick({1, 1}), 2, 1);
  ASSERT_EQ(f.global_num_octants(), 4u);
  ASSERT_EQ(f.local(0).size(), 2u);
  f.coarsen([](const TreeOct<2>&) { return true; }, 0);
  EXPECT_EQ(f.global_num_octants(), 4u);
}

// ---------------------------------------------------------------------------
// Delta balance

/// One churn step on the live forest: advected-front refine at \p step,
/// delta-balance, compare against a full balance of an identical copy.
/// Returns the copy's octant count so callers can sanity-check growth.
void expect_delta_equals_full(Forest<3>& f, const ChurnFrontParams& cp,
                              int lmax, int step, const char* what) {
  const BalanceOptions opt = BalanceOptions::new_config();
  front_refine(f, lmax, cp, step);
  Forest<3> ref = f;
  ref.clear_dirty();
  SimComm fc(ref.num_ranks());
  fc.set_record_rounds(false);
  balance(ref, opt, fc);
  SimComm dc(f.num_ranks());
  dc.set_record_rounds(false);
  const DeltaBalanceReport rep = delta_balance(f, opt, dc);
  EXPECT_TRUE(forests_identical(f, ref))
      << what << ": delta_balance diverged from full balance at step "
      << step << " (delta " << f.global_num_octants() << " leaves, full "
      << ref.global_num_octants() << ")";
  EXPECT_EQ(rep.octants_after, f.global_num_octants());
  EXPECT_TRUE(f.dirty().empty()) << "delta_balance must clear the dirty log";
}

TEST(DeltaBalance, ByteIdenticalAcrossTenChurnSteps) {
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  const int lmax = 5;
  RepartitionOptions ropt;
  ropt.mode = RepartitionMode::kWeighted;
  ropt.weight = RepartitionWeight::kInsulation;
  for (const int ranks : {4, 16}) {
    Forest<3> f(Connectivity<3>::brick({4, 4, 1}), ranks, 1);
    front_refine(f, lmax, cp, 0);
    f.partition_uniform();
    prebalance(f);
    for (int step = 1; step <= 10; ++step) {
      expect_delta_equals_full(
          f, cp, lmax, step,
          ("P=" + std::to_string(ranks)).c_str());
      SimComm pc(ranks);
      repartition(f, ropt, &pc);
      front_coarsen(f, cp, step, 3);
    }
  }
}

TEST(DeltaBalance, ByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  const int lmax = 5;
  for (const int threads : {1, 4, 8}) {
    par::set_num_threads(threads);
    Forest<3> f(Connectivity<3>::brick({4, 4, 1}), 16, 1);
    front_refine(f, lmax, cp, 0);
    f.partition_uniform();
    prebalance(f);
    for (int step = 1; step <= 3; ++step) {
      expect_delta_equals_full(
          f, cp, lmax, step,
          ("threads=" + std::to_string(threads)).c_str());
      front_coarsen(f, cp, step, 3);
    }
  }
}

TEST(DeltaBalance, NoopOnCleanForest) {
  Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 4, 1);
  fractal_refine(f, 4);
  prebalance(f);
  const std::vector<TreeOct<3>> before = f.gather();
  SimComm dc(4);
  const DeltaBalanceReport rep = delta_balance(f, BalanceOptions::new_config(), dc);
  EXPECT_EQ(rep.dirty_validated, 0u);
  EXPECT_EQ(rep.rounds, 0);
  EXPECT_EQ(rep.octants_created, 0u);
  EXPECT_EQ(f.gather(), before);
}

TEST(DeltaBalance, CrossTreeRippleMatchesFullBalance) {
  // Refine a single octant deep in a corner touching three other trees of
  // the brick: the delta ripple must cross tree boundaries (including
  // purely diagonal adjacency) exactly like the full pipeline.
  const BalanceOptions opt = BalanceOptions::new_config();
  Forest<2> f(Connectivity<2>::brick({2, 2}), 4, 1);
  {
    SimComm warm(4);
    warm.set_record_rounds(false);
    balance(f, opt, warm);
  }
  f.clear_dirty();
  f.refine(
      [&](const TreeOct<2>& to) {
        if (to.tree != 0 || to.oct.level >= 5) return false;
        // Chase the corner that touches trees 1, 2 and 3.
        const coord_t h = side_len(to.oct);
        return to.oct.x[0] + h == root_len<2> &&
               to.oct.x[1] + h == root_len<2>;
      },
      true);
  ASSERT_FALSE(f.dirty().empty());
  Forest<2> ref = f;
  ref.clear_dirty();
  SimComm fc(4);
  fc.set_record_rounds(false);
  balance(ref, opt, fc);
  SimComm dc(4);
  dc.set_record_rounds(false);
  delta_balance(f, opt, dc);
  EXPECT_TRUE(forests_identical(f, ref));
}

TEST(DeltaBalance, RepartitionBetweenBatchAndBalanceIsSafe)
{
  // The dirty log is global: repartitioning between the churn batch and
  // the delta balance moves ownership but must not lose constraints.
  const BalanceOptions opt = BalanceOptions::new_config();
  ChurnFrontParams cp;
  Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 8, 1);
  front_refine(f, 4, cp, 0);
  f.partition_uniform();
  prebalance(f);
  front_refine(f, 5, cp, 1);
  f.partition_uniform();  // move ownership while the log is hot
  Forest<3> ref = f;
  ref.clear_dirty();
  SimComm fc(8);
  fc.set_record_rounds(false);
  balance(ref, opt, fc);
  SimComm dc(8);
  dc.set_record_rounds(false);
  delta_balance(f, opt, dc);
  EXPECT_TRUE(forests_identical(f, ref));
}

// ---------------------------------------------------------------------------
// Lifecycle: markers stay monotone under churn

TEST(Churn, MarkersStayMonotoneAcrossLifecycleSteps) {
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  RepartitionOptions ropt;
  ropt.mode = RepartitionMode::kWeighted;
  ropt.weight = RepartitionWeight::kInsulation;
  Forest<3> f(Connectivity<3>::brick({4, 4, 1}), 16, 1);
  front_refine(f, 5, cp, 0);
  f.partition_uniform();
  prebalance(f);
  for (int step = 1; step <= 6; ++step) {
    front_refine(f, 5, cp, step);
    SimComm dc(16);
    dc.set_record_rounds(false);
    delta_balance(f, BalanceOptions::new_config(), dc);
    SimComm pc(16);
    repartition(f, ropt, &pc);
    front_coarsen(f, cp, step, 3);
    const auto& marks = f.markers();
    for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
      EXPECT_FALSE(marks[i + 1] < marks[i])
          << "marker " << i + 1 << " precedes marker " << i << " at step "
          << step;
    }
    EXPECT_TRUE(f.is_valid()) << "invalid forest at step " << step;
  }
}

}  // namespace
}  // namespace octbal
