/// \file test_core_differential.cpp
/// \brief The core differential battery: every packed-key kernel (sort,
/// linearize, complete, reduce, search, the octant hash set) is fed the
/// same inputs as a small array-of-Octant oracle kept in this file and
/// must produce identical outputs.  The oracles are deliberately naive —
/// std::sort on operator<, the fill_gap recursion, a recursive visit,
/// per-point binary searches — and none of them runs on packed keys.
/// Inputs cover random linear sets, random complete trees, and the two
/// paper workloads (fractal, ice sheet), on both sides of the small-n
/// crossover.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <set>
#include <tuple>

#include "core/key.hpp"
#include "core/linear.hpp"
#include "core/octant_hash.hpp"
#include "core/reduce.hpp"
#include "core/search.hpp"
#include "core/sort.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

namespace oracle {

template <int D>
std::vector<Octant<D>> sorted(std::vector<Octant<D>> a) {
  std::sort(a.begin(), a.end());
  return a;
}

/// Sort, then drop every element that contains its successor.
template <int D>
std::vector<Octant<D>> linearized(std::vector<Octant<D>> a) {
  a = sorted<D>(std::move(a));
  std::vector<Octant<D>> out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i + 1 < a.size() && contains(a[i], a[i + 1])) continue;
    out.push_back(a[i]);
  }
  return out;
}

/// Fill every gap before, between and after the elements with fill_gap.
template <int D>
std::vector<Octant<D>> completed(const std::vector<Octant<D>>& a,
                                 const Octant<D>& root) {
  std::vector<Octant<D>> out;
  std::optional<Octant<D>> prev;
  for (const Octant<D>& o : a) {
    fill_gap(root, prev, std::optional<Octant<D>>{o}, out);
    out.push_back(o);
    prev = o;
  }
  fill_gap(root, prev, std::optional<Octant<D>>{}, out);
  return out;
}

/// Figure 8 of the paper, with the root neither precluding nor precluded.
template <int D>
std::vector<Octant<D>> reduced(const std::vector<Octant<D>>& s) {
  const auto lt = [](const Octant<D>& r, const Octant<D>& o) {
    return r.level != 0 && o.level != 0 && precludes_lt(r, o);
  };
  const auto le = [](const Octant<D>& r, const Octant<D>& o) {
    return r.level == 0 || o.level == 0 ? r == o : precludes_le(r, o);
  };
  std::vector<Octant<D>> r;
  for (const Octant<D>& o : s) {
    const Octant<D> c = zero_sibling(o);
    if (r.empty()) {
      r.push_back(c);
    } else if (lt(r.back(), c)) {
      r.back() = c;
    } else if (!le(c, r.back())) {
      r.push_back(c);
    }
  }
  return r;
}

template <int D>
using PreTrace = std::vector<std::tuple<Octant<D>, std::size_t, std::size_t>>;
template <int D>
using LeafTrace = std::vector<std::pair<Octant<D>, std::size_t>>;

/// The search_tree visit order: each nonempty virtual node, then its
/// children in Morton order, each owning the leaves it contains.
template <int D>
void visit(const std::vector<Octant<D>>& leaves, const Octant<D>& node,
           std::size_t lo, std::size_t hi, PreTrace<D>& pre,
           LeafTrace<D>& leaf) {
  if (lo >= hi) return;
  pre.emplace_back(node, lo, hi);
  if (hi - lo == 1 && leaves[lo] == node) {
    leaf.emplace_back(node, lo);
    return;
  }
  std::size_t begin = lo;
  for (int c = 0; c < num_children<D>; ++c) {
    const Octant<D> ch = child(node, c);
    std::size_t next = begin;
    while (next < hi && contains(ch, leaves[next])) ++next;
    visit(leaves, ch, begin, next, pre, leaf);
    begin = next;
  }
}

}  // namespace oracle

/// The input families of the battery: random scatter, random complete
/// trees, and leaf arrays of the two paper workloads.
template <int D>
std::vector<std::vector<Octant<D>>> battery_inputs(std::uint64_t seed) {
  Rng rng(seed);
  const auto root = root_octant<D>();
  std::vector<std::vector<Octant<D>>> inputs;
  inputs.push_back({});  // empty edge case
  inputs.push_back(random_linear_set(rng, root, max_level<D>, 30));
  inputs.push_back(random_linear_set(rng, root, 8, 400));
  inputs.push_back(random_complete_tree(rng, root, 7, 600));
  if constexpr (D >= 2) {
    const auto conn = [] {
      if constexpr (D == 2) {
        return Connectivity<2>::brick({2, 1});
      } else {
        return Connectivity<3>::brick({2, 1, 1});
      }
    }();
    {
      Forest<D> f(conn, 1, 1);
      fractal_refine(f, 5);
      std::vector<Octant<D>> leaves;
      for (const auto& to : f.gather()) {
        if (to.tree == 0) leaves.push_back(to.oct);
      }
      inputs.push_back(std::move(leaves));
    }
    {
      Forest<D> f(conn, 1, 1);
      icesheet_refine(f, D == 2 ? 6 : 5);
      std::vector<Octant<D>> leaves;
      for (const auto& to : f.gather()) {
        if (to.tree == 0) leaves.push_back(to.oct);
      }
      inputs.push_back(std::move(leaves));
    }
  }
  return inputs;
}

/// Deterministic shuffle so the sort differential sees unsorted data.
template <int D>
std::vector<Octant<D>> shuffled(std::vector<Octant<D>> a, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = a.size(); i > 1; --i) {
    std::swap(a[i - 1], a[rng.below(i)]);
  }
  return a;
}

template <typename T>
class CoreDifferentialTypedTest : public ::testing::Test {};

template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<1>, Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(CoreDifferentialTypedTest, Dims);

TYPED_TEST(CoreDifferentialTypedTest, SortIsByteIdentical) {
  constexpr int D = TypeParam::d;
  for (const auto& input : battery_inputs<D>(1001)) {
    // Duplicates stress the stability argument: equal elements must land
    // in identical slots either way.
    auto data = shuffled<D>(input, 5);
    data.insert(data.end(), input.begin(),
                input.begin() + static_cast<std::ptrdiff_t>(input.size() / 3));
    auto sorted = data;
    sort_octants(sorted);
    ASSERT_EQ(sorted, oracle::sorted<D>(data));
    // The raw key array sorted by sort_keys matches the packed result bit
    // for bit (memcmp, not just operator==; empty arrays may carry null
    // data pointers, which memcmp must not see).
    auto keys = octants_to_keys(data);
    sort_keys(keys);
    const auto packed = octants_to_keys(sorted);
    ASSERT_EQ(keys.size(), packed.size());
    if (!keys.empty()) {
      ASSERT_EQ(0, std::memcmp(keys.data(), packed.data(),
                               keys.size() * sizeof(okey_t)));
    }
  }
}

TYPED_TEST(CoreDifferentialTypedTest, LinearizeCompleteReduceAgree) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  for (const auto& input : battery_inputs<D>(1002)) {
    auto lin = shuffled<D>(input, 9);
    linearize(lin);
    ASSERT_EQ(lin, oracle::linearized<D>(input));
    ASSERT_TRUE(is_linear(lin));
    EXPECT_TRUE(is_linear_keys(octants_to_keys(lin)));
    auto lin_keys = octants_to_keys(shuffled<D>(input, 9));
    linearize_keys(lin_keys);
    EXPECT_EQ(lin_keys, octants_to_keys(lin));

    const auto comp = complete(lin, root);
    ASSERT_EQ(comp, oracle::completed<D>(lin, root));
    ASSERT_TRUE(is_complete(comp, root));
    EXPECT_TRUE(is_complete_keys<D>(octants_to_keys(comp), key_of(root)));

    const auto red = reduce(comp);
    ASSERT_EQ(red, oracle::reduced<D>(comp));
    // Key-native queries against the reduced array match the Octant<D>
    // binary search for both members and misses.
    const auto red_keys = octants_to_keys(red);
    Rng rng(1003);
    for (int q = 0; q < 200 && !comp.empty(); ++q) {
      const auto probe = rng.chance(0.5)
                             ? comp[rng.below(comp.size())]
                             : random_octant(rng, root, max_level<D>);
      EXPECT_EQ(find_precluding_le_keys<D>(red_keys, key_of(probe)),
                find_precluding_le(red, probe));
      EXPECT_EQ(binary_find_keys(red_keys, key_of(probe)),
                binary_find(red, probe));
    }
  }
}

TYPED_TEST(CoreDifferentialTypedTest, SearchAgrees) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  Rng rng(1004);
  for (const auto& input : battery_inputs<D>(1005)) {
    auto leaves = input;
    linearize(leaves);

    // search_tree: the full (octant, range) visit trace.
    oracle::PreTrace<D> pre_ref, pre_got;
    oracle::LeafTrace<D> leaf_ref, leaf_got;
    oracle::visit<D>(leaves, root, 0, leaves.size(), pre_ref, leaf_ref);
    search_tree<D>(
        leaves, root,
        [&](const Octant<D>& o, std::size_t lo, std::size_t hi) {
          pre_got.emplace_back(o, lo, hi);
          return true;
        },
        [&](const Octant<D>& o, std::size_t i) { leaf_got.emplace_back(o, i); });
    EXPECT_EQ(pre_got, pre_ref);
    EXPECT_EQ(leaf_got, leaf_ref);
    EXPECT_EQ(leaf_got.size(), leaves.size());

    std::vector<std::array<coord_t, D>> points;
    for (int i = 0; i < 300; ++i) {
      points.push_back(random_octant(rng, root, max_level<D>).x);
    }
    const auto located = locate_points<D>(leaves, root, points);
    const auto leaf_keys = octants_to_keys(leaves);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::size_t ref = find_containing_leaf<D>(leaves, points[i]);
      EXPECT_EQ(located[i], ref);
      EXPECT_EQ(find_containing_leaf_keys<D>(leaf_keys, points[i]), ref);
    }
  }
}

TYPED_TEST(CoreDifferentialTypedTest, HashSetProbesAndOrderAgree) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  Rng rng(1006);
  std::vector<Octant<D>> ops;
  for (int i = 0; i < 3000; ++i) {
    ops.push_back(random_octant(rng, root, max_level<D>));
  }
  // The same operation stream through the Octant<D> adapters, the _key
  // entry points, and a std::set oracle (tags land only on members).
  HashStats oct_stats, key_stats;
  OctantHashSet<D> by_oct(16, &oct_stats), by_key(16, &key_stats);
  std::set<Octant<D>> members, tagged;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Octant<D>& o = ops[i];
    const Octant<D>& other = ops[ops.size() - 1 - i];
    const bool fresh = members.insert(o).second;
    EXPECT_EQ(by_oct.insert(o), fresh);
    EXPECT_EQ(by_key.insert_key(key_of(o)), fresh);
    if (i % 3 == 0) {
      const bool in = members.count(other) != 0;
      EXPECT_EQ(by_oct.contains(other), in);
      EXPECT_EQ(by_key.contains_key(key_of(other)), in);
    }
    if (i % 7 == 0) {
      const Octant<D>& t = ops[i / 2];
      if (members.count(t)) tagged.insert(t);
      by_oct.tag(t);
      by_key.tag_key(key_of(t));
    }
  }
  EXPECT_EQ(by_oct.size(), members.size());
  EXPECT_EQ(by_key.size(), members.size());
  // Both entry points probe the same slots, so the counters and the slot
  // order of collect agree exactly.
  EXPECT_EQ(oct_stats.queries, key_stats.queries);
  EXPECT_EQ(oct_stats.probes, key_stats.probes);
  EXPECT_EQ(oct_stats.rehash_probes, key_stats.rehash_probes);
  std::vector<Octant<D>> oct_out;
  by_oct.collect(oct_out, /*skip_tagged=*/true);
  std::vector<okey_t> key_out;
  by_key.collect_keys(key_out, /*skip_tagged=*/true);
  EXPECT_EQ(octants_to_keys(oct_out), key_out);

  std::set<Octant<D>> untagged;
  std::set_difference(members.begin(), members.end(), tagged.begin(),
                      tagged.end(), std::inserter(untagged, untagged.end()));
  EXPECT_EQ(std::set<Octant<D>>(oct_out.begin(), oct_out.end()), untagged);
  EXPECT_EQ(oct_out.size(), untagged.size());
  std::vector<Octant<D>> all;
  by_oct.collect(all);
  EXPECT_EQ(std::set<Octant<D>>(all.begin(), all.end()), members);

  for (const auto& o : ops) {
    EXPECT_EQ(by_key.is_tagged(o), tagged.count(o) != 0);
    EXPECT_EQ(by_key.is_tagged(o), by_key.is_tagged_key(key_of(o)));
    EXPECT_EQ(by_oct.is_tagged(o), by_key.is_tagged(o));
  }
}

}  // namespace
}  // namespace octbal
