#include "replay.hpp"

#include <algorithm>
#include <map>

#include "comm/notify.hpp"
#include "core/balance_subtree.hpp"
#include "core/insulation.hpp"
#include "core/key.hpp"
#include "core/lambda.hpp"
#include "core/linear.hpp"
#include "core/search.hpp"
#include "core/seeds.hpp"
#include "core/sort.hpp"
#include "forest/span.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace octbal::bench {

namespace {

constexpr int kK = 3;
/// Timed passes per kernel (the median pass is reported).
constexpr int kCoreReps = 3;
constexpr int kCommReps = 9;

/// Run \p pass (which returns the seconds it timed) \p reps times, each
/// time adding a sample of \p name.
template <typename Pass>
void time_passes(Samples& s, const std::string& name, int reps, Pass&& pass) {
  for (int i = 0; i < reps; ++i) s.add(name, pass());
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Per rank, per tree: that rank's sorted octants in that tree.
using RankTrees = std::vector<std::map<int, std::vector<Octant<3>>>>;

/// Per tree: the sorted leaves of \p f in that tree.
std::vector<std::vector<Octant<3>>> leaves_by_tree(const Forest<3>& f) {
  std::vector<std::vector<Octant<3>>> out(f.connectivity().num_trees());
  for (const auto& to : f.gather()) out[to.tree].push_back(to.oct);
  return out;
}

/// balance_subtree(kNew) over every (rank, tree) run of \p f, as the
/// pipeline's local balance runs it.  Returns the runs clipped back to
/// their spans: the forest after local balance.
RankTrees replay_subtree(const Forest<3>& f, Samples& s, Checks& checks) {
  struct Run {
    int rank;
    int tree;
    std::vector<Octant<3>> octs;
  };
  std::vector<Run> runs;
  for (int r = 0; r < f.num_ranks(); ++r) {
    const auto& mine = f.local(r);
    for (const auto& [i, j] : detail::tree_runs(mine)) {
      Run run{r, mine[i].tree, {}};
      for (std::size_t q = i; q < j; ++q) run.octs.push_back(mine[q].oct);
      runs.push_back(std::move(run));
    }
  }
  const auto root = root_octant<3>();
  SubtreeBalanceStats stats;
  std::vector<std::vector<Octant<3>>> out;
  time_passes(s, "core.subtree_s", kCoreReps, [&] {
    std::vector<std::vector<Octant<3>>> res(runs.size());
    SubtreeBalanceStats st;
    Timer t;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      res[i] = balance_subtree(SubtreeAlgo::kNew, runs[i].octs, kK, root,
                               &st);
    }
    const double secs = t.seconds();
    stats = st;
    out = std::move(res);
    return secs;
  });
  s.add("core.subtree.hash_queries", static_cast<double>(stats.hash_queries));
  s.add("core.subtree.probes_per_query",
        stats.hash_queries == 0 ? 0.0
                                : static_cast<double>(stats.hash_probes) /
                                      static_cast<double>(stats.hash_queries));

  RankTrees local(f.num_ranks());
  bool complete_ok = true;
  std::vector<TreeOct<3>> clipped;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    complete_ok = complete_ok && is_complete(out[i], root);
    clipped.clear();
    detail::clip_to_span(out[i], runs[i].octs.front(), runs[i].octs.back(),
                         runs[i].tree, clipped);
    auto& dst = local[runs[i].rank][runs[i].tree];
    for (const auto& to : clipped) dst.push_back(to.oct);
  }
  checks.expect(complete_ok, "core: balance_subtree output is not complete");
  return local;
}

/// The response phase's inputs, rebuilt serially for the same-tree part of
/// every partition boundary: each local-balanced leaf q, each insulation
/// piece p of q owned by another rank s, and each leaf o of s inside p
/// that could split q.  The pieces' anchors are the search points.
struct Boundary {
  std::vector<std::pair<Octant<3>, Octant<3>>> pairs;  ///< (o, q)
  std::vector<std::vector<std::array<coord_t, 3>>> points;  ///< per tree
};

Boundary boundary_of(const Forest<3>& f, const RankTrees& local) {
  Boundary b;
  b.points.resize(f.connectivity().num_trees());
  const auto root = root_octant<3>();
  std::vector<Octant<3>> pieces;
  for (int r = 0; r < f.num_ranks(); ++r) {
    const GlobalPos own_lo = f.marker(r), own_hi = f.marker(r + 1);
    for (const auto& [tree, octs] : local[r]) {
      for (const auto& q : octs) {
        pieces.clear();
        insulation_pieces(q, root, pieces);
        for (const auto& p : pieces) {
          const GlobalPos lo{tree, morton_key(p)};
          const GlobalPos hi{tree, lo.key + (morton_t{1} << (3 * size_exp(p)))};
          if (own_lo <= lo && GlobalPos{tree, hi.key - 1} < own_hi) continue;
          const auto [s0, s1] = f.owners_of(lo, hi);
          bool remote = false;
          for (int s = s0; s <= s1; ++s) {
            if (s == r) continue;
            const auto it = local[s].find(tree);
            if (it == local[s].end()) continue;
            remote = true;
            const auto [a, e] = overlapping_range(it->second, p);
            for (std::size_t i = a; i < e; ++i) {
              const Octant<3>& o = it->second[i];
              if (o.level > q.level + 1 && !balanced_pair(o, q, kK)) {
                b.pairs.push_back({o, q});
              }
            }
          }
          if (remote) b.points[tree].push_back(p.x);
        }
      }
    }
  }
  return b;
}

void replay_seeds(const Boundary& b, Samples& s, Checks& checks) {
  std::uint64_t count = 0;
  time_passes(s, "core.seeds_s", kCoreReps, [&] {
    std::uint64_t n = 0;
    Timer t;
    for (const auto& [o, q] : b.pairs) n += balance_seeds(o, q, kK).size();
    const double secs = t.seconds();
    count = n;
    return secs;
  });
  bool inside = true;
  for (const auto& [o, q] : b.pairs) {
    for (const auto& seed : balance_seeds(o, q, kK)) {
      inside = inside && contains(q, seed);
    }
  }
  checks.expect(inside, "core: a seed lies outside its query octant");
  s.add("core.seeds.pairs", static_cast<double>(b.pairs.size()));
  s.add("core.seeds.count", static_cast<double>(count));
}

void replay_search(const Boundary& b,
                   const std::vector<std::vector<Octant<3>>>& trees,
                   Samples& s, Checks& checks) {
  const auto root = root_octant<3>();
  std::vector<std::vector<std::size_t>> found;
  time_passes(s, "core.search_s", kCoreReps, [&] {
    std::vector<std::vector<std::size_t>> res(trees.size());
    Timer t;
    for (std::size_t tr = 0; tr < trees.size(); ++tr) {
      if (b.points[tr].empty()) continue;
      res[tr] = locate_points<3>(trees[tr], root, b.points[tr]);
    }
    const double secs = t.seconds();
    found = std::move(res);
    return secs;
  });
  bool ok = true;
  std::uint64_t points = 0;
  for (std::size_t tr = 0; tr < trees.size(); ++tr) {
    points += b.points[tr].size();
    for (std::size_t i = 0; i < b.points[tr].size(); ++i) {
      Octant<3> cell;
      cell.level = static_cast<level_t>(max_level<3>);
      cell.x = b.points[tr][i];
      const std::size_t idx = found[tr][i];
      ok = ok && idx < trees[tr].size() && contains(trees[tr][idx], cell);
    }
  }
  checks.expect(ok, "core: locate_points returned a leaf not holding its point");
  s.add("core.search.points", static_cast<double>(points));
}

void replay_sort(const std::vector<std::vector<Octant<3>>>& trees,
                 std::uint64_t seed, Samples& s, Checks& checks) {
  std::vector<okey_t> keys;
  for (const auto& leaves : trees) {
    for (const auto& o : leaves) keys.push_back(key_of(o));
  }
  Rng rng(seed);
  shuffle(keys, rng);
  RadixStats stats;
  bool sorted = true;
  time_passes(s, "core.sort_s", kCoreReps, [&] {
    std::vector<okey_t> a = keys;
    RadixStats st;
    Timer t;
    sort_keys(a, &st);
    const double secs = t.seconds();
    stats = st;
    sorted = sorted && std::is_sorted(a.begin(), a.end(), key_less);
    return secs;
  });
  checks.expect(sorted, "core: sort_keys output is not sorted");
  s.add("core.sort.passes", static_cast<double>(stats.passes()));
}

void replay_linearize(const std::vector<std::vector<Octant<3>>>& trees,
                      std::uint64_t seed, Samples& s, Checks& checks) {
  // Each tree's leaves plus their parents, shuffled: linearize must drop
  // the parents and give the leaves back.
  std::vector<std::vector<Octant<3>>> inputs(trees.size());
  Rng rng(seed + 1);
  for (std::size_t tr = 0; tr < trees.size(); ++tr) {
    inputs[tr] = trees[tr];
    for (const auto& o : trees[tr]) {
      if (o.level > 0) inputs[tr].push_back(parent(o));
    }
    shuffle(inputs[tr], rng);
  }
  bool same = true;
  time_passes(s, "core.linearize_s", kCoreReps, [&] {
    std::vector<std::vector<Octant<3>>> a = inputs;
    Timer t;
    for (auto& v : a) linearize(v);
    const double secs = t.seconds();
    same = same && a == trees;
    return secs;
  });
  checks.expect(same, "core: linearize did not recover the leaves");

  // Complete from each tree's finest leaves alone.
  std::vector<std::vector<Octant<3>>> finest(trees.size());
  for (std::size_t tr = 0; tr < trees.size(); ++tr) {
    int lmax = 0;
    for (const auto& o : trees[tr]) lmax = std::max<int>(lmax, o.level);
    for (const auto& o : trees[tr]) {
      if (o.level == lmax) finest[tr].push_back(o);
    }
  }
  const auto root = root_octant<3>();
  bool complete_ok = true;
  time_passes(s, "core.complete_s", kCoreReps, [&] {
    std::vector<std::vector<Octant<3>>> res(trees.size());
    Timer t;
    for (std::size_t tr = 0; tr < trees.size(); ++tr) {
      res[tr] = complete(finest[tr], root);
    }
    const double secs = t.seconds();
    for (const auto& v : res) {
      complete_ok = complete_ok && is_linear(v) && is_complete(v, root);
    }
    return secs;
  });
  checks.expect(complete_ok, "core: complete output is not a complete tree");
}

}  // namespace

void core_replay(const Forest<3>& unbalanced, const Forest<3>& balanced,
                 std::uint64_t seed, Samples& layers, Checks& checks) {
  const RankTrees local = replay_subtree(unbalanced, layers, checks);
  const Boundary b = boundary_of(unbalanced, local);
  replay_seeds(b, layers, checks);
  const auto trees = leaves_by_tree(balanced);
  replay_search(b, trees, layers, checks);
  replay_sort(trees, seed, layers, checks);
  replay_linearize(trees, seed, layers, checks);
}

void comm_replay(const std::vector<SimComm::Round>& rounds, int ranks,
                 Samples& layers, Checks& checks) {
  std::vector<std::vector<int>> receivers(ranks), senders(ranks);
  for (const auto& round : rounds) {
    if (round.phase != "balance/queries") continue;
    for (const auto& e : round.entries) receivers[e.from].push_back(e.to);
  }
  bool any = false;
  for (int p = 0; p < ranks; ++p) {
    auto& v = receivers[p];
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    for (const int q : v) senders[q].push_back(p);
    any = any || !v.empty();
  }
  checks.expect(any, "comm: the balance recorded no query round");

  CommStats traffic;
  std::size_t notify_rounds = 0;
  bool exact = true;
  time_passes(layers, "comm.notify_replay_s", kCommReps, [&] {
    SimComm comm(ranks);
    Timer t;
    const auto got = notify(NotifyAlgo::kNotify, comm, receivers);
    const double secs = t.seconds();
    exact = exact && got == senders;
    traffic = comm.stats();
    notify_rounds = comm.rounds().size();
    return secs;
  });
  checks.expect(exact, "comm: notify is not the transpose of its input");
  layers.add("comm.notify.rounds", static_cast<double>(notify_rounds));
  layers.add("comm.notify.msgs", static_cast<double>(traffic.messages));
  layers.add("comm.notify.bytes", static_cast<double>(traffic.bytes));

  bool superset = true;
  time_passes(layers, "comm.ranges_replay_s", kCommReps, [&] {
    SimComm comm(ranks);
    Timer t;
    const auto got = notify_ranges(comm, receivers, 8);
    const double secs = t.seconds();
    for (int p = 0; p < ranks; ++p) {
      superset = superset &&
                 std::includes(got[p].begin(), got[p].end(),
                               senders[p].begin(), senders[p].end());
    }
    return secs;
  });
  checks.expect(superset, "comm: notify_ranges lost a sender");
}

}  // namespace octbal::bench
