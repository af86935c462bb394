#include "forest/repartition.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/insulation.hpp"
#include "core/neighborhood.hpp"
#include "forest/span.hpp"
#include "obs/mem.hpp"

namespace octbal {
namespace {

template <int D>
std::uint64_t octant_weight(const TreeOct<D>& to, RepartitionWeight kind,
                            const RepartitionWeightFn<D>& custom) {
  switch (kind) {
    case RepartitionWeight::kOctants:
      return 1;
    case RepartitionWeight::kInsulation:
      // 1 + the in-domain insulation-envelope size: octants whose envelope
      // is clipped by the tree boundary cost less query traffic, interior
      // octants the full 3^D - 1 pieces.
      return 1 + insulation_piece_count(to.oct);
    case RepartitionWeight::kCustom:
      assert(custom);
      return custom(to);
  }
  return 1;
}

// ---------------------------------------------------------------------------
// Query-replay oracle for the kNudge candidate search.
//
// The balance query exchange — the round carrying essentially all the
// measured slack on imbalanced partitions — is a pure function of
// (leaves, partition): an octant sends one query to each distinct remote
// owner of an insulation-envelope piece.  The pieces themselves do not
// depend on the partition, so they are precomputed once as *index*
// intervals [jlo, jhi] (global SFC indices of the last leaf at or before
// the piece's key interval bounds).  Partition markers are leaf positions,
// so under any candidate cut vector the piece's owner range is exactly
//
//   first = max{ r : cuts[r] <= jlo },  last = max{ r : cuts[r] <= jhi }
//
// — Forest::owners_of replayed in index space, two binary searches over
// P + 1 cuts per piece instead of a full balance round.  That makes the
// nudge a *search*: candidate cut vectors are scored by the predicted
// per-rank α–β cost of the query round, and only a candidate the replay
// says beats the incumbent partition is installed.
//
// Octants whose envelope provably stays inside one rank's span for every
// candidate within ±max_nudge of the current cuts are dropped at build
// time; they can produce no query under any reachable partition.
// ---------------------------------------------------------------------------
template <int D>
class QueryOracle {
 public:
  QueryOracle(const Forest<D>& f, const std::vector<TreeOct<D>>& all,
              const std::vector<std::size_t>& old_cuts, int max_nudge)
      : p_(f.num_ranks()), n_(all.size()) {
    assert(p_ <= 65535 && all.size() < 0xffffffffull);
    const std::size_t n = all.size();
    const std::size_t mn = static_cast<std::size_t>(max_nudge);
    std::vector<GlobalPos> pos(n);
    for (std::size_t i = 0; i < n; ++i) pos[i] = position_of(all[i]);
    // Last leaf starting at or before \p g / strictly before \p g.  Every
    // piece and envelope bound is >= pos[0] (tree 0 opens at the curve
    // origin), so the -1 never underflows.
    const auto at_or_before = [&](const GlobalPos& g) {
      return static_cast<std::uint32_t>(
          std::upper_bound(pos.begin(), pos.end(), g) - pos.begin() - 1);
    };
    const auto before = [&](const GlobalPos& g) {
      return static_cast<std::uint32_t>(
          std::lower_bound(pos.begin(), pos.end(), g) - pos.begin() - 1);
    };
    const auto& offs = full_offsets<D>();
    const auto& conn = f.connectivity();
    begin_.push_back(0);
    int r = 0;
    for (std::size_t i = 0; i < n; ++i) {
      while (i >= old_cuts[r + 1]) ++r;
      const auto& to = all[i];
      if (detail::insulation_in_tree(to.oct)) {
        // Envelope bounds as index interval; if it sits inside the owner's
        // span with max_nudge to spare on both sides, no candidate can make
        // this octant query anyone.
        const auto [lo, hi] = detail::envelope(to);
        const std::size_t a = at_or_before(lo);
        const std::size_t b = before(hi);
        if (a >= old_cuts[r] + mn && b + mn < old_cuts[r + 1]) continue;
      }
      detail::for_each_piece(conn, to, offs,
                             [&](std::int32_t tree, const Octant<D>& piece,
                                 const FrameTransform<D>*) {
        const GlobalPos lo{tree, morton_key(piece)};
        const morton_t sz = morton_t{1} << (D * size_exp(piece));
        pieces_.push_back(
            Piece{at_or_before(lo), before(GlobalPos{tree, lo.key + sz})});
      });
      if (pieces_.size() > begin_.back()) {
        oct_of_.push_back(static_cast<std::uint32_t>(i));
        begin_.push_back(static_cast<std::uint32_t>(pieces_.size()));
      }
    }
    // The replay tables (plus the per-eval owner scratch, which always
    // fills to n entries) dominate the nudge search's footprint.
    mem_.set(obs::MemTag::kRepartition,
             pieces_.size() * sizeof(Piece) +
                 (oct_of_.size() + begin_.size()) * sizeof(std::uint32_t) +
                 n_ * sizeof(std::uint16_t));
  }

  /// Predicted slack of the query exchange round under \p cuts: exactly
  /// the traffic build_queries would emit (per-octant-per-destination
  /// dedup included; self-queries bypass the network and cost nothing).
  /// \p rank_cost, when given, receives the per-rank α–β cost vector —
  /// the search uses it to pick which rank to shave next.
  double predicted_slack(const std::vector<std::size_t>& cuts,
                         const CostModel& model,
                         std::vector<double>* rank_cost = nullptr) const {
    const int p = p_;
    // Index -> owner table: one linear fill replaces two binary searches
    // per piece (the descent evaluates hundreds of candidates per call).
    // own[j] == max{ r : cuts[r] <= j } because rank ranges are disjoint
    // and empty ranks fill nothing.
    own_.assign(n_, 0);
    for (int r = 0; r < p; ++r) {
      for (std::size_t j = cuts[r]; j < cuts[r + 1]; ++j) {
        own_[j] = static_cast<std::uint16_t>(r);
      }
    }
    std::vector<std::uint32_t> count(static_cast<std::size_t>(p) * p, 0);
    std::vector<std::uint32_t> mark(static_cast<std::size_t>(p), ~0u);
    for (std::size_t s = 0; s < oct_of_.size(); ++s) {
      const int r = own_[oct_of_[s]];
      for (std::uint32_t q = begin_[s]; q < begin_[s + 1]; ++q) {
        const Piece& pc = pieces_[q];
        const int first = own_[pc.jlo];
        const int last = own_[pc.jhi];
        for (int d = first; d <= last; ++d) {
          if (d == r || cuts[d] == cuts[d + 1]) continue;
          if (mark[d] != static_cast<std::uint32_t>(s)) {
            mark[d] = static_cast<std::uint32_t>(s);
            ++count[static_cast<std::size_t>(r) * p + d];
          }
        }
      }
    }
    std::vector<CommStats> per_rank(static_cast<std::size_t>(p));
    const std::uint64_t wire = sizeof(WireOct<D>);
    for (int s = 0; s < p; ++s) {
      for (int d = 0; d < p; ++d) {
        const std::uint32_t c = count[static_cast<std::size_t>(s) * p + d];
        if (!c) continue;
        per_rank[s].messages += 1;
        per_rank[s].bytes += c * wire;
        per_rank[d].messages += 1;
        per_rank[d].bytes += c * wire;
      }
    }
    double worst = 0, sum = 0;
    if (rank_cost) rank_cost->assign(static_cast<std::size_t>(p), 0.0);
    for (int rr = 0; rr < p; ++rr) {
      const double t = model.time(per_rank[rr]);
      sum += t;
      worst = std::max(worst, t);
      if (rank_cost) (*rank_cost)[rr] = t;
    }
    return worst * p - sum;
  }

 private:
  struct Piece {
    std::uint32_t jlo;  ///< last leaf index at or before the piece's start
    std::uint32_t jhi;  ///< last leaf index starting inside the piece
  };
  int p_;
  std::size_t n_ = 0;
  std::vector<std::uint32_t> oct_of_;  ///< stored octant -> global index
  std::vector<std::uint32_t> begin_;   ///< stored octant -> first piece
  std::vector<Piece> pieces_;
  mutable std::vector<std::uint16_t> own_;  ///< eval scratch: index -> rank
  obs::MemScope mem_;                  ///< replay tables (kRepartition)
};

/// Shared tail of repartition() and apply_cuts(): record the marker shift,
/// sweep out the per-(old owner, new owner) migration matrix, charge it to
/// the α–β model under the "partition" phase bracket (mirroring
/// Forest::set_all — one message per communicating pair, sized by the
/// octant bytes that change hands, visible in `octbal_inspect critpath`
/// next to the balance phases the pass is trying to shorten), and
/// re-assign the leaf ranges.  \p refresh false is the
/// kStaleMarkerNudge fault channel: the data moves and the traffic is
/// charged, but the marker rebuild is skipped — the previous partition's
/// index stays installed, the classic "moved the data, forgot the index"
/// bug the repartition/preserves_content invariant exists to catch.
template <int D>
void apply_cuts_impl(Forest<D>& f, const std::vector<TreeOct<D>>& all,
                     const std::vector<std::size_t>& old_cuts,
                     const std::vector<std::size_t>& cuts, SimComm* comm,
                     bool refresh, RepartitionReport& rep) {
  const int p = f.num_ranks();
  const std::size_t n = all.size();
  for (int b = 1; b < p; ++b) {
    const std::size_t a = old_cuts[b], c = cuts[b];
    rep.max_marker_shift =
        std::max<std::uint64_t>(rep.max_marker_shift, a > c ? a - c : c - a);
  }
  if (cuts == old_cuts) return;

  const obs::MemScope moved_mem(
      obs::MemTag::kRepartition,
      static_cast<std::size_t>(p) * p * sizeof(std::uint64_t));
  std::vector<std::vector<std::uint64_t>> moved(
      static_cast<std::size_t>(p), std::vector<std::uint64_t>(p, 0));
  {
    int so = 0, sn = 0;
    for (std::size_t i = 0; i < n; ++i) {
      while (i >= old_cuts[so + 1]) ++so;
      while (i >= cuts[sn + 1]) ++sn;
      if (so != sn) {
        moved[so][sn] += sizeof(TreeOct<D>);
        ++rep.octants_moved;
      }
    }
  }
  for (int s = 0; s < p; ++s) {
    for (int t = 0; t < p; ++t) {
      if (moved[s][t]) {
        rep.migration.messages += 1;
        rep.migration.bytes += moved[s][t];
      }
    }
  }

  if (comm != nullptr) {
    const std::string phase0 = comm->phase();
    comm->set_phase("partition");
    for (int s = 0; s < p; ++s) {
      for (int t = 0; t < p; ++t) {
        if (moved[s][t]) {
          comm->send(s, t, std::vector<std::uint8_t>(moved[s][t]));
        }
      }
    }
    comm->deliver();
    for (int r = 0; r < p; ++r) comm->recv_all(r);
    comm->set_phase(phase0);
  }

  for (int r = 0; r < p; ++r) {
    f.local(r).assign(all.begin() + static_cast<std::ptrdiff_t>(cuts[r]),
                      all.begin() + static_cast<std::ptrdiff_t>(cuts[r + 1]));
  }
  if (refresh) f.refresh_markers();
}

}  // namespace

double slack_total(const std::vector<SimComm::PhaseCost>& phases,
                   std::string_view prefix) {
  double s = 0;
  for (const auto& ph : phases) {
    if (ph.name.size() >= prefix.size() &&
        ph.name.compare(0, prefix.size(), prefix) == 0) {
      s += ph.slack;
    }
  }
  return s;
}

template <int D>
RepartitionReport repartition(Forest<D>& f, const RepartitionOptions& opt,
                              SimComm* comm,
                              const RepartitionWeightFn<D>& custom) {
  RepartitionReport rep;
  const int p = f.num_ranks();
  const std::vector<TreeOct<D>> all = f.gather();
  const std::size_t n = all.size();
  const obs::MemScope gather_mem(obs::MemTag::kRepartition,
                                 n * sizeof(TreeOct<D>));

  // Current cuts as global SFC indices: rank r owns [cuts[r], cuts[r+1]).
  // Resolved through the partition markers — the index a real migration
  // planner consults to learn current ownership — not by a god's-eye walk
  // of the per-rank vectors.  On a consistent forest the two agree
  // exactly; when the index is stale (the kStaleMarkerNudge channel) the
  // exchange is planned against the wrong ownership and the misrouted
  // traffic shows up in the comm flight log, where the postmortem
  // toolchain can bisect it.
  std::vector<std::size_t> old_cuts(p + 1, 0);
  old_cuts[p] = n;
  for (int r = 1; r < p; ++r) {
    old_cuts[r] = static_cast<std::size_t>(
        std::lower_bound(all.begin(), all.end(), f.marker(r),
                         [](const TreeOct<D>& to, const GlobalPos& m) {
                           return position_of(to) < m;
                         }) -
        all.begin());
  }
  std::vector<std::size_t> cuts = old_cuts;

  if (opt.mode == RepartitionMode::kWeighted) {
    std::vector<std::uint64_t> prefix(n);
    std::uint64_t total = 0, maxw = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w = octant_weight<D>(all[i], opt.weight, custom);
      maxw = std::max(maxw, w);
      total += w;
      prefix[i] = total;  // inclusive prefix sum
    }
    rep.total_weight = total;
    rep.max_octant_weight = maxw;
    // The partition_weighted cut rule: rank r ends at the first index whose
    // prefix weight exceeds total * (r+1) / p, which bounds every rank's
    // weight by total/p + one maximum-weight octant.
    std::size_t begin = 0;
    for (int r = 0; r < p; ++r) {
      const std::uint64_t cut = total * static_cast<std::uint64_t>(r + 1) /
                                static_cast<std::uint64_t>(p);
      std::size_t end = static_cast<std::size_t>(
          std::upper_bound(prefix.begin() + static_cast<std::ptrdiff_t>(begin),
                           prefix.end(), cut) -
          prefix.begin());
      if (r == p - 1) end = n;
      cuts[r + 1] = end;
      begin = end;
    }
    rep.weight_per_rank.assign(static_cast<std::size_t>(p), 0);
    for (int r = 0; r < p; ++r) {
      rep.weight_per_rank[r] = (cuts[r + 1] ? prefix[cuts[r + 1] - 1] : 0) -
                               (cuts[r] ? prefix[cuts[r] - 1] : 0);
    }
  } else if (comm != nullptr && p > 1 && n > 0) {
    // kNudge: read the communicator's per-phase critical-path attribution.
    // The phase slack is the gate — a perfectly balanced run (or a
    // communicator that never delivered) proposes no move — and
    // PhaseCost::time_by_rank is the per-rank blame: the full modeled
    // cost vector behind the critical-path summary (critical_by_rank
    // names only the argmax rank of each round, too coarse a signal when
    // many ranks sit near the maximum).  Our own "partition" bracket is
    // excluded from both, so the migration traffic of earlier calls (and
    // of the driver's reverts) does not feed back into the signal.
    double slack = 0;
    std::vector<double> cost(static_cast<std::size_t>(p), 0.0);
    double mean_cost = 0;
    for (const auto& ph : comm->critical_path()) {
      if (ph.name == "partition") continue;
      slack += ph.slack;
      for (int r = 0; r < p; ++r) {
        cost[r] += ph.time_by_rank[static_cast<std::size_t>(r)];
      }
    }
    for (int r = 0; r < p; ++r) mean_cost += cost[r];
    mean_cost /= static_cast<double>(p);
    if (slack > 0 && mean_cost > 0) {
      const double avg_load = static_cast<double>(n) / p;
      // Seconds -> octants via the measured mean per-octant cost; the
      // sheds are mean-centered, so they conserve the total load.
      std::vector<double> shed(static_cast<std::size_t>(p), 0.0);
      for (int r = 0; r < p; ++r) {
        shed[r] = (cost[r] - mean_cost) / (mean_cost / avg_load);
      }
      // Diffusive re-split at gain \p g: every rank sheds (or absorbs)
      // g * its excess, so load flows from every expensive rank toward
      // every cheap one along the curve instead of being dumped onto the
      // hot rank's two neighbors (which would just move the critical rank
      // one position over).  The cuts are the running prefix of the
      // target loads, each hard-capped at max_nudge SFC positions from
      // its old position per call.  The monotone repair preserves the
      // per-cut bound: a cut is only ever clamped to a neighbor's value,
      // which itself sits within max_nudge of a neighboring *old* cut,
      // and old cuts are monotone.
      const auto target_for = [&](double g) {
        std::vector<std::size_t> c = old_cuts;
        double carry = 0;
        for (int b = 1; b < p; ++b) {
          const double load =
              static_cast<double>(old_cuts[b] - old_cuts[b - 1]);
          carry += load - g * shed[b - 1];
          const long long lo = static_cast<long long>(old_cuts[b]) -
                               static_cast<long long>(opt.max_nudge);
          const long long hi = static_cast<long long>(old_cuts[b]) +
                               static_cast<long long>(opt.max_nudge);
          const long long want =
              std::clamp(std::llround(carry), std::max<long long>(lo, 0),
                         std::min(hi, static_cast<long long>(n)));
          c[b] = static_cast<std::size_t>(want);
        }
        for (int b = 1; b <= p; ++b) c[b] = std::max(c[b], c[b - 1]);
        for (int b = p - 1; b >= 1; --b) c[b] = std::min(c[b], c[b + 1]);
        return c;
      };
      if (opt.search > 0) {
        // Oracle-guided descent, at most opt.search improving steps.  The
        // first step scores the diffusive targets over a gain ladder (the
        // global move — strong when the cost surplus is spread over many
        // ranks); every step also tries to *shave* the rank the replay
        // predicts to be the most expensive, shedding δ octants across
        // either of its cuts (the local move — strong when a few hot
        // ranks hide behind near-critical ties).  Every candidate is
        // clamped to ±max_nudge of the cuts this call started from, so
        // the whole call honors the per-call bound; a step with no
        // improving candidate ends the search, and a call where nothing
        // ever improved proposes no move at all.
        const QueryOracle<D> oracle(f, all, old_cuts, opt.max_nudge);
        const CostModel& model = comm->cost_model();
        std::vector<double> rank_cost;
        double best = oracle.predicted_slack(old_cuts, model, &rank_cost);
        // Move cut \p b of \p cand by \p delta SFC positions, clamped to
        // the per-call bound and to its neighbors (monotonicity).
        const auto move_cut = [&](std::vector<std::size_t>& cand, int b,
                                  long long delta) {
          const long long lo =
              std::max<long long>({0,
                                   static_cast<long long>(old_cuts[b]) -
                                       opt.max_nudge,
                                   static_cast<long long>(cand[b - 1])});
          const long long hi =
              std::min<long long>({static_cast<long long>(n),
                                   static_cast<long long>(old_cuts[b]) +
                                       opt.max_nudge,
                                   static_cast<long long>(cand[b + 1])});
          cand[b] = static_cast<std::size_t>(
              std::clamp(static_cast<long long>(cand[b]) + delta, lo, hi));
        };
        for (int step = 0; step < opt.search; ++step) {
          double step_best = best;
          std::vector<std::size_t> step_cuts;
          const auto consider = [&](std::vector<std::size_t> cand) {
            const double ps = oracle.predicted_slack(cand, model);
            if (ps < step_best) {
              step_best = ps;
              step_cuts = std::move(cand);
            }
          };
          if (step == 0) {
            double g = opt.gain;
            for (int c = 0; c < 4; ++c, g *= 0.5) consider(target_for(g));
          }
          // Shave moves.  A single overloaded rank wants its own cuts
          // pulled inward; but on near-symmetric meshes several ranks tie
          // at the maximum and shaving one only re-ranks the others, so
          // candidates shrink every rank within a θ-band of the predicted
          // maximum *simultaneously*.  The θ = 1 band is the exact tie
          // set (mirror ranks of a symmetric mesh have bit-equal costs).
          double mean = 0, mx = 0;
          for (int r = 0; r < p; ++r) {
            mean += rank_cost[r] / p;
            mx = std::max(mx, rank_cost[r]);
          }
          for (const double theta : {1.0, 0.85}) {
            const double band = mean + theta * (mx - mean);
            for (std::size_t d = static_cast<std::size_t>(opt.max_nudge);
                 d >= 1; d /= 4) {
              std::vector<std::size_t> cand = cuts;
              for (int w = 0; w < p; ++w) {
                if (rank_cost[w] < band) continue;
                if (w >= 1) move_cut(cand, w, static_cast<long long>(d));
                if (w + 1 <= p - 1) {
                  move_cut(cand, w + 1, -static_cast<long long>(d));
                }
              }
              if (cand != cuts) consider(std::move(cand));
            }
            if (theta == 1.0 && band <= mean) break;  // flat: bands equal
          }
          // One-sided trims of the argmax rank (lowest on ties): the
          // asymmetric move the band shave cannot express.
          int w = 0;
          for (int r = 1; r < p; ++r) {
            if (rank_cost[r] > rank_cost[w]) w = r;
          }
          for (int side = 0; side < 2; ++side) {
            const int b = w + side;  // move cuts[w] up or cuts[w + 1] down
            if (b < 1 || b > p - 1) continue;
            for (std::size_t d = static_cast<std::size_t>(opt.max_nudge);
                 d >= 1; d /= 16) {
              std::vector<std::size_t> cand = cuts;
              move_cut(cand, b,
                       side == 0 ? static_cast<long long>(d)
                                 : -static_cast<long long>(d));
              if (cand[b] != cuts[b]) consider(std::move(cand));
            }
          }
          if (step_best >= best) break;  // no candidate improved: converged
          best = step_best;
          cuts = std::move(step_cuts);
          oracle.predicted_slack(cuts, model, &rank_cost);
        }
        // Polish: once the structured moves stall, coordinate-descend over
        // the individual cuts at a shrinking step size, applying each
        // improvement immediately.  This is the fine-grained move the band
        // shaves and argmax trims cannot express (e.g. realigning one
        // interior cut so a tie of mirror-symmetric ranks breaks); it is
        // affordable because a candidate evaluation is just the owner-table
        // replay.  Bounded by opt.search improving sweeps, and every move
        // still goes through move_cut, so the per-call clamp holds.
        {
          std::size_t d = std::max<std::size_t>(
              1, static_cast<std::size_t>(opt.max_nudge) / 16);
          int sweeps = 0;
          while (sweeps < opt.search) {
            bool improved = false;
            for (int b = 1; b <= p - 1; ++b) {
              for (int side = 0; side < 2; ++side) {
                std::vector<std::size_t> cand = cuts;
                move_cut(cand, b,
                         side == 0 ? static_cast<long long>(d)
                                   : -static_cast<long long>(d));
                if (cand[b] == cuts[b]) continue;
                const double ps = oracle.predicted_slack(cand, model);
                if (ps < best) {
                  best = ps;
                  cuts = std::move(cand);
                  improved = true;
                }
              }
            }
            if (improved) {
              ++sweeps;
            } else if (d > 1) {
              d = std::max<std::size_t>(1, d / 4);
            } else {
              break;  // converged at the finest step
            }
          }
        }
      } else {
        cuts = target_for(opt.gain);
      }
    }
  }

  const bool refresh = !(opt.inject == FaultInjection::kStaleMarkerNudge &&
                         opt.mode == RepartitionMode::kNudge);
  apply_cuts_impl(f, all, old_cuts, cuts, comm, refresh, rep);
  return rep;
}

template <int D>
double predicted_query_slack(const Forest<D>& f, const CostModel& model) {
  const int p = f.num_ranks();
  const std::vector<TreeOct<D>> all = f.gather();
  std::vector<std::size_t> cuts(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) cuts[r + 1] = cuts[r] + f.local(r).size();
  // max_nudge = 0: the build-time silence filter degenerates to exactly
  // the pipeline's whole-envelope early-out, so only the octants the real
  // query walk touches are replayed.
  const QueryOracle<D> oracle(f, all, cuts, 0);
  return oracle.predicted_slack(cuts, model);
}

template <int D>
RepartitionReport apply_cuts(Forest<D>& f,
                             const std::vector<std::size_t>& cuts,
                             SimComm* comm) {
  RepartitionReport rep;
  const int p = f.num_ranks();
  assert(cuts.size() == static_cast<std::size_t>(p) + 1);
  const std::vector<TreeOct<D>> all = f.gather();
  const obs::MemScope gather_mem(obs::MemTag::kRepartition,
                                 all.size() * sizeof(TreeOct<D>));
  assert(cuts.front() == 0 && cuts.back() == all.size());
  std::vector<std::size_t> old_cuts(p + 1, 0);
  for (int r = 0; r < p; ++r) old_cuts[r + 1] = old_cuts[r] + f.local(r).size();
  apply_cuts_impl(f, all, old_cuts, cuts, comm, /*refresh=*/true, rep);
  return rep;
}

#define OCTBAL_INSTANTIATE(D)                                          \
  template RepartitionReport repartition<D>(                           \
      Forest<D>&, const RepartitionOptions&, SimComm*,                 \
      const RepartitionWeightFn<D>&);                                  \
  template RepartitionReport apply_cuts<D>(                            \
      Forest<D>&, const std::vector<std::size_t>&, SimComm*);          \
  template double predicted_query_slack<D>(const Forest<D>&,           \
                                           const CostModel&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
