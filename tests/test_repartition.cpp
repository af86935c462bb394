/// \file test_repartition.cpp
/// \brief Property battery for the slack-driven dynamic repartitioner
/// (forest/repartition.hpp): marker monotonicity, the bounded-nudge
/// contract, weighted equalization, idempotence, no-op edge cases, exact
/// migration accounting, oracle exactness against the measured profile,
/// the closed-form insulation weight against the enumerated pieces,
/// and byte-identical results across thread counts (the tsan label runs
/// this file under the threaded rank engine).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/insulation.hpp"
#include "forest/repartition.hpp"
#include "util/rng.hpp"
#include "util/parallel.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

/// Restore the ambient thread count when a test exits, even on failure.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

/// Small fractal mesh (same family as the bench's fig15 workload, two
/// depths shallower, so the whole battery stays fast) — balanced once so
/// repartition calls operate on a fixed mesh.
Forest<3> small_fractal(int ranks, int depth = 4) {
  Forest<3> f(Connectivity<3>::brick({3, 2, 1}), ranks, 2);
  fractal_refine(f, depth);
  f.partition_uniform();
  return f;
}

/// Balance with a fresh throwaway communicator (fixes the mesh).
void prebalance(Forest<3>& f) {
  SimComm warm(f.num_ranks());
  warm.set_record_rounds(false);
  balance(f, BalanceOptions::new_config(), warm);
}

/// Balance once on \p comm so its critical path carries the measured
/// signal a subsequent kNudge call feeds on.
void measure(Forest<3>& f, SimComm& comm) {
  comm.set_record_rounds(false);
  balance(f, BalanceOptions::new_config(), comm);
}

std::vector<std::size_t> cuts_of(const Forest<3>& f) {
  std::vector<std::size_t> cuts(static_cast<std::size_t>(f.num_ranks()) + 1,
                                0);
  for (int r = 0; r < f.num_ranks(); ++r) {
    cuts[r + 1] = cuts[r] + f.local(r).size();
  }
  return cuts;
}

void expect_markers_monotone(const Forest<3>& f, const char* ctx) {
  const auto& m = f.markers();
  ASSERT_EQ(m.size(), static_cast<std::size_t>(f.num_ranks()) + 1) << ctx;
  for (std::size_t i = 0; i + 1 < m.size(); ++i) {
    EXPECT_FALSE(m[i + 1] < m[i]) << ctx << ": marker " << i + 1
                                  << " precedes marker " << i;
  }
}

TEST(Repartition, MarkersStayMonotoneInEveryMode) {
  for (const RepartitionMode mode :
       {RepartitionMode::kWeighted, RepartitionMode::kNudge}) {
    Forest<3> f = small_fractal(8);
    prebalance(f);
    SimComm comm(8);
    measure(f, comm);
    RepartitionOptions opt;
    opt.mode = mode;
    opt.max_nudge = 64;
    repartition(f, opt, &comm);
    const char* ctx =
        mode == RepartitionMode::kWeighted ? "kWeighted" : "kNudge";
    expect_markers_monotone(f, ctx);
    EXPECT_TRUE(f.is_valid()) << ctx;
  }
}

TEST(Repartition, NudgeHonorsMaxNudgeBound) {
  for (const int max_nudge : {4, 16, 64}) {
    Forest<3> f = small_fractal(8);
    prebalance(f);
    const std::vector<std::size_t> before = cuts_of(f);
    SimComm comm(8);
    measure(f, comm);
    RepartitionOptions opt;
    opt.mode = RepartitionMode::kNudge;
    opt.max_nudge = max_nudge;
    const RepartitionReport rep = repartition(f, opt, &comm);
    EXPECT_LE(rep.max_marker_shift, static_cast<std::uint64_t>(max_nudge));
    // The report is not just self-consistent: every cut really moved at
    // most max_nudge SFC positions.
    const std::vector<std::size_t> after = cuts_of(f);
    std::uint64_t widest = 0;
    for (std::size_t b = 0; b < before.size(); ++b) {
      const std::uint64_t shift =
          before[b] > after[b] ? before[b] - after[b] : after[b] - before[b];
      EXPECT_LE(shift, static_cast<std::uint64_t>(max_nudge))
          << "cut " << b << " with max_nudge " << max_nudge;
      widest = std::max(widest, shift);
    }
    EXPECT_EQ(widest, rep.max_marker_shift);
  }
}

TEST(Repartition, WeightedEqualizesWithinOneMaxWeightOctant) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  for (const RepartitionWeight w :
       {RepartitionWeight::kOctants, RepartitionWeight::kInsulation}) {
    RepartitionOptions opt;
    opt.mode = RepartitionMode::kWeighted;
    opt.weight = w;
    const RepartitionReport rep = repartition(f, opt, nullptr);
    ASSERT_EQ(rep.weight_per_rank.size(), 8u);
    ASSERT_GT(rep.total_weight, 0u);
    // The prefix-sum cut rule's guarantee: no rank exceeds the ideal
    // share by more than one maximum-weight octant.
    const std::uint64_t bound =
        rep.total_weight / 8 + rep.max_octant_weight;
    for (int r = 0; r < 8; ++r) {
      EXPECT_LE(rep.weight_per_rank[r], bound)
          << "rank " << r << " under weight mode "
          << static_cast<int>(w);
    }
  }
}

template <int D>
void expect_closed_form_matches_pieces() {
  const Octant<D> root = root_octant<D>();
  Rng rng(0xc105ed + D);
  std::vector<Octant<D>> octs = {root};
  // Domain-face octants at level 1, a mid level and max_level: every
  // combination of lower face / interior / upper face per axis.
  for (const int level : {1, 5, max_level<D>}) {
    const coord_t h = coord_t{1} << (max_level<D> - level);
    int combos = 1;
    for (int d = 0; d < D; ++d) combos *= 3;
    for (int c = 0; c < combos; ++c) {
      Octant<D> o;
      o.level = static_cast<level_t>(level);
      for (int d = 0, cc = c; d < D; ++d, cc /= 3) {
        const coord_t mid = level == 1 ? 0 : h;  // level 1 has no interior
        o.x[d] = cc % 3 == 0 ? 0 : cc % 3 == 1 ? mid : root_len<D> - h;
      }
      octs.push_back(o);
    }
  }
  for (int i = 0; i < 2000; ++i) {
    octs.push_back(random_octant<D>(rng, root, max_level<D>));
  }
  std::vector<Octant<D>> pieces;
  for (const auto& o : octs) {
    pieces.clear();
    insulation_pieces(o, root, pieces);
    EXPECT_EQ(insulation_piece_count(o), pieces.size())
        << "D=" << D << " " << to_string(o);
  }
}

TEST(RepartitionWeight, ClosedFormMatchesPieces) {
  expect_closed_form_matches_pieces<1>();
  expect_closed_form_matches_pieces<2>();
  expect_closed_form_matches_pieces<3>();
  // And through the weighted repartition itself: the kInsulation total is
  // one plus the in-domain piece count, summed over the leaves.
  Forest<3> f = small_fractal(8);
  prebalance(f);
  std::uint64_t want = 0;
  std::vector<Octant<3>> pieces;
  for (const auto& to : f.gather()) {
    pieces.clear();
    insulation_pieces(to.oct, root_octant<3>(), pieces);
    want += 1 + pieces.size();
  }
  RepartitionOptions opt;
  opt.mode = RepartitionMode::kWeighted;
  opt.weight = RepartitionWeight::kInsulation;
  EXPECT_EQ(repartition(f, opt, nullptr).total_weight, want);
}

TEST(Repartition, WeightedIsIdempotent) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  RepartitionOptions opt;
  opt.mode = RepartitionMode::kWeighted;
  opt.weight = RepartitionWeight::kInsulation;
  repartition(f, opt, nullptr);
  // Same mesh, same weights, same rule: the second call must find the
  // cuts already in place.
  const RepartitionReport again = repartition(f, opt, nullptr);
  EXPECT_EQ(again.octants_moved, 0u);
  EXPECT_EQ(again.max_marker_shift, 0u);
  EXPECT_FALSE(again.changed());
}

TEST(Repartition, SingleRankIsNoOp) {
  for (const RepartitionMode mode :
       {RepartitionMode::kWeighted, RepartitionMode::kNudge}) {
    Forest<3> f = small_fractal(1);
    prebalance(f);
    const std::uint64_t sum = forest_checksum(f);
    SimComm comm(1);
    measure(f, comm);
    RepartitionOptions opt;
    opt.mode = mode;
    const RepartitionReport rep = repartition(f, opt, &comm);
    EXPECT_EQ(rep.octants_moved, 0u);
    EXPECT_EQ(rep.migration.bytes, 0u);
    EXPECT_EQ(forest_checksum(f), sum);
    EXPECT_TRUE(f.is_valid());
  }
}

TEST(Repartition, NudgeWithoutMeasurementIsNoOp) {
  // kNudge acts on the communicator's critical path; with no communicator
  // there is no measurement to act on (documented contract).
  Forest<3> f = small_fractal(8);
  prebalance(f);
  const std::uint64_t sum = forest_checksum(f);
  RepartitionOptions opt;
  opt.mode = RepartitionMode::kNudge;
  const RepartitionReport rep = repartition(f, opt, nullptr);
  EXPECT_EQ(rep.octants_moved, 0u);
  EXPECT_EQ(forest_checksum(f), sum);
}

TEST(Repartition, PreservesContentAndBalanceVerdict) {
  for (const RepartitionMode mode :
       {RepartitionMode::kWeighted, RepartitionMode::kNudge}) {
    Forest<3> f = small_fractal(8);
    prebalance(f);
    const std::uint64_t sum = forest_checksum(f);
    const std::uint64_t count = f.global_num_octants();
    ASSERT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3));
    SimComm comm(8);
    measure(f, comm);
    RepartitionOptions opt;
    opt.mode = mode;
    opt.max_nudge = 64;
    repartition(f, opt, &comm);
    EXPECT_EQ(forest_checksum(f), sum);
    EXPECT_EQ(f.global_num_octants(), count);
    EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3));
    EXPECT_TRUE(f.is_valid());
  }
}

TEST(Repartition, MigrationAccountingIsExact) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  SimComm comm(8);
  measure(f, comm);
  RepartitionOptions opt;
  opt.mode = RepartitionMode::kNudge;
  opt.max_nudge = 64;
  const CommStats before = comm.stats();
  const RepartitionReport rep = repartition(f, opt, &comm);
  // Every moved octant is shipped exactly once at its struct size, one
  // message per communicating (old owner, new owner) pair.
  EXPECT_EQ(rep.migration.bytes, rep.octants_moved * sizeof(TreeOct<3>));
  EXPECT_LE(rep.migration.messages, 8u * 7u);
  if (rep.octants_moved > 0) EXPECT_GT(rep.migration.messages, 0u);
  // ... and the communicator was charged the same traffic.
  const CommStats after = comm.stats();
  EXPECT_EQ(after.bytes - before.bytes, rep.migration.bytes);
  EXPECT_EQ(after.messages - before.messages, rep.migration.messages);
  // The charge landed under its own "partition" phase bracket.
  bool found = false;
  for (const auto& ph : comm.critical_path()) {
    if (ph.name == "partition") found = true;
  }
  EXPECT_EQ(found, rep.octants_moved > 0);
}

TEST(Repartition, OracleMatchesMeasuredQuerySlack) {
  // The kNudge scoring function is an exact static replay of the balance
  // query exchange: its predicted slack must equal — bitwise — the slack
  // the profiler measures when the pipeline actually runs.
  for (const int ranks : {8, 16}) {
    Forest<3> f = small_fractal(ranks, 5);
    prebalance(f);
    SimComm comm(ranks);
    measure(f, comm);
    double measured = -1;
    for (const auto& ph : comm.critical_path()) {
      if (ph.name == "balance/queries") measured = ph.slack;
    }
    ASSERT_GE(measured, 0) << "balance/queries phase missing";
    EXPECT_EQ(predicted_query_slack(f, comm.cost_model()), measured)
        << "P = " << ranks;
  }
}

TEST(Repartition, ApplyCutsRoundTripRestoresPartition) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  const std::vector<std::size_t> home = cuts_of(f);
  const std::uint64_t sum = forest_checksum(f);
  std::vector<std::size_t> shifted = home;
  for (std::size_t b = 1; b + 1 < shifted.size(); ++b) {
    shifted[b] = std::min(shifted[b] + 7, shifted[b + 1]);
  }
  SimComm comm(8);
  const RepartitionReport out = apply_cuts(f, shifted, &comm);
  EXPECT_EQ(cuts_of(f), shifted);
  const RepartitionReport back = apply_cuts(f, home, &comm);
  EXPECT_EQ(cuts_of(f), home);
  EXPECT_EQ(forest_checksum(f), sum);
  EXPECT_TRUE(f.is_valid());
  // Moving back undoes exactly what moving out did — and the revert is
  // charged like any other migration (real traffic).
  EXPECT_EQ(out.octants_moved, back.octants_moved);
  EXPECT_EQ(out.migration.bytes, back.migration.bytes);
}

TEST(Repartition, StaleMarkerNudgeFaultIsObservable) {
  // The kStaleMarkerNudge injection migrates the data but skips the
  // marker rebuild; Forest::is_valid must notice the stale index (this is
  // the defect the audit battery's repartition/preserves_content
  // invariant exists to catch — its fuzz round trip lives in test_audit).
  Forest<3> f = small_fractal(8);
  prebalance(f);
  SimComm comm(8);
  measure(f, comm);
  RepartitionOptions opt;
  opt.mode = RepartitionMode::kNudge;
  opt.max_nudge = 64;
  opt.inject = FaultInjection::kStaleMarkerNudge;
  const RepartitionReport rep = repartition(f, opt, &comm);
  ASSERT_GT(rep.octants_moved, 0u)
      << "fault test needs a signal strong enough to move octants";
  EXPECT_FALSE(f.is_valid());
  // The same call without the fault leaves a valid forest (control).
  Forest<3> g = small_fractal(8);
  prebalance(g);
  SimComm comm2(8);
  measure(g, comm2);
  opt.inject = FaultInjection::kNone;
  repartition(g, opt, &comm2);
  EXPECT_TRUE(g.is_valid());
}

TEST(Repartition, ResultIsByteIdenticalAcrossThreadCounts) {
  // Two balance→repartition rounds per thread count: the final octant
  // arrays, the migration counters and the marker array must be
  // byte-identical whatever the engine's thread count — the repartition
  // pass makes ordering decisions only from barrier-normalized state.
  ThreadGuard guard;
  struct Outcome {
    std::vector<TreeOct<3>> octants;
    std::vector<std::size_t> cuts;
    std::uint64_t moved = 0;
    std::uint64_t bytes = 0;
    std::uint64_t shift = 0;
  };
  const auto run = [&](int threads) {
    par::set_num_threads(threads);
    Forest<3> f = small_fractal(8);
    prebalance(f);
    Outcome o;
    RepartitionOptions opt;
    opt.mode = RepartitionMode::kNudge;
    opt.max_nudge = 64;
    for (int round = 0; round < 2; ++round) {
      SimComm comm(8);
      measure(f, comm);
      const RepartitionReport rep = repartition(f, opt, &comm);
      o.moved += rep.octants_moved;
      o.bytes += rep.migration.bytes;
      o.shift = std::max(o.shift, rep.max_marker_shift);
    }
    o.octants = f.gather();
    o.cuts = cuts_of(f);
    return o;
  };
  const Outcome base = run(1);
  for (const int threads : {4, 8}) {
    const Outcome o = run(threads);
    EXPECT_EQ(o.octants, base.octants) << threads << " threads";
    EXPECT_EQ(o.cuts, base.cuts) << threads << " threads";
    EXPECT_EQ(o.moved, base.moved) << threads << " threads";
    EXPECT_EQ(o.bytes, base.bytes) << threads << " threads";
    EXPECT_EQ(o.shift, base.shift) << threads << " threads";
  }
}

}  // namespace
}  // namespace octbal
