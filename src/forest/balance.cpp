#include "forest/balance.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "core/seeds.hpp"
#include "forest/span.hpp"
#include "obs/mem.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace octbal {
namespace {

using detail::clip_to_span;
using detail::find_run;
using detail::for_each_piece;
using detail::for_each_remote_owner;
using detail::LeafIntervals;
using detail::merge_linearize_treeocts;
using detail::tagged_tree_runs;
using detail::TreeRun;
using detail::tree_runs;

/// Wire format for one response item: a payload octant expressed in the
/// query octant's tree frame (possibly exterior), tagged with its query.
/// (WireOct itself lives in balance.hpp: the repartition oracle models
/// the query exchange and must charge the identical wire size.)
template <int D>
struct WirePair {
  WireOct<D> query;
  std::int32_t level;
  std::array<coord_t, D> x;

  friend bool operator==(const WirePair&, const WirePair&) = default;
  friend auto operator<=>(const WirePair&, const WirePair&) = default;
};

}  // namespace

template <int D>
BalanceReport balance(Forest<D>& f, const BalanceOptions& opt, SimComm& comm) {
  OBS_SPAN("balance");
  const int P = f.num_ranks();
  const int k = opt.k == 0 ? D : opt.k;
  assert(1 <= k && k <= D);
  const auto root = root_octant<D>();
  const auto& conn = f.connectivity();
  BalanceReport rep;
  rep.octants_before = f.global_num_octants();
  const CommStats stats0 = comm.stats();
  double modeled0 = comm.modeled_time();
  const double barrier0 = comm.barrier_seconds();
  // Critical-path phase labels: every deliver()/collective below is
  // attributed to the balance step that issued it; restored on exit so
  // nested pipelines (ghost, nodes) keep their own attribution.
  const std::string phase0 = comm.phase();

  // Registry entries are resolved before the parallel regions (the by-name
  // lookup takes a lock; per-rank add()s do not).
  obs::Metrics& met = comm.metrics();
  obs::Counter& c_queries = met.counter("balance/queries_sent");
  obs::Counter& c_responses = met.counter("balance/response_items");
  obs::Counter& c_leaves = met.counter("balance/leaves_after");
  obs::Counter& c_owner_lookups = met.counter("balance/owner_lookups");
  obs::Counter& c_owner_cache = met.counter("balance/owner_cache_hits");
  obs::Counter& c_owner_window = met.counter("balance/owner_window_scans");
  obs::Counter& c_owner_full = met.counter("balance/owner_full_searches");
  obs::Counter& c_owner_cmp = met.counter("balance/owner_comparisons");
  obs::Histogram& h_queries_per_dest =
      met.histogram("balance/queries_per_dest");

  // Rank bodies run concurrently between barriers (par::parallel_for_ranks),
  // so every per-rank measurement lands in a preassigned slot and is
  // reduced serially afterwards — no shared counters on the hot path.
  std::vector<double> rank_secs(P);
  std::vector<SubtreeBalanceStats> rank_subtree(P);
  std::vector<std::uint64_t> rank_count(P);
  std::vector<OwnerScanStats> rank_owner(P);
  const auto reduce_secs = [&]() {
    double worst = 0;
    for (int r = 0; r < P; ++r) worst = std::max(worst, rank_secs[r]);
    return worst;
  };

  // Memory accounting: staging buffers live until the function returns;
  // their scopes release then.  Each rank body binds its slot (MemRank) so
  // the core kernels' scratch scopes attribute to the rank that ran them.
  std::vector<obs::MemScope> qsend_mem(P), qrecv_mem(P), rrecv_mem(P);

  // ------------------------------------------------------------------
  // Phase 1: Local balance — per rank, per (tree, contiguous run).
  // ------------------------------------------------------------------
  {
    OBS_SPAN("local_balance");
    obs::mem_set_phase("balance/local");
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("local_balance", r);
      const obs::MemRank mem_rank(r);
      Timer t;
      auto& mine = f.local(r);
      std::vector<TreeOct<D>> out;
      out.reserve(mine.size());
      for (const auto& [i, j] : tree_runs(mine)) {
        std::vector<Octant<D>> run;
        run.reserve(j - i);
        for (std::size_t q = i; q < j; ++q) run.push_back(mine[q].oct);
        const auto bal = balance_subtree(opt.subtree, run, k, root,
                                         &rank_subtree[r]);
        clip_to_span(bal, run.front(), run.back(), mine[i].tree, out);
      }
      mine.swap(out);
      rank_secs[r] = t.seconds();
    });
    f.refresh_markers();
    rep.t_local_balance = reduce_secs();
  }

  // ------------------------------------------------------------------
  // Phase 2a: build queries — who must hear about which of my octants.
  // ------------------------------------------------------------------
  std::vector<std::vector<std::vector<WireOct<D>>>> qsend(P);
  std::vector<std::vector<int>> receivers(P);
  {
    OBS_SPAN("build_queries");
    std::fill(rank_count.begin(), rank_count.end(), 0);
    // Fault injection (audit self-tests): drop the last insulation-layer
    // offset from the query walk, silently losing one neighbor direction.
    std::span<const std::array<int, D>> offs = full_offsets<D>();
    if (opt.inject == FaultInjection::kSkipInsulationNeighbor) {
      offs = offs.first(offs.size() - 1);
    }
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("build_queries", r);
      Timer t;
      qsend[r].assign(P, {});
      std::vector<std::size_t> last_mark(P, static_cast<std::size_t>(-1));
      const auto& mine = f.local(r);
      // Owner resolution for this rank's stream of insulation pieces:
      // per-octant envelope windows + a one-entry last-hit cache replace
      // the per-offset O(log P) binary searches (DESIGN.md §2.10).  Pieces
      // inside this rank's own span need no owner search and no query (the
      // bulk of the octants on a large partition — p4est likewise touches
      // only near-boundary octants in this phase).
      OwnerWindow<D> owners(f, &rank_owner[r]);
      for (std::size_t i = 0; i < mine.size(); ++i) {
        const auto& to = mine[i];
        for_each_remote_owner(
            f, r, owners, to, offs,
            [&](int dest, std::int32_t, const FrameTransform<D>*) {
              if (last_mark[dest] == i) return;  // already queued
              last_mark[dest] = i;
              qsend[r][dest].push_back(to_wire(to));
              ++rank_count[r];
            });
      }
      for (int dest = 0; dest < P; ++dest) {
        if (!qsend[r][dest].empty()) {
          receivers[r].push_back(dest);
          h_queries_per_dest.record(r, qsend[r][dest].size());
        }
      }
      std::size_t staged = 0;
      for (const auto& v : qsend[r]) staged += v.size() * sizeof(WireOct<D>);
      qsend_mem[r].set_slot(r, obs::MemTag::kBalanceStaging, staged);
      rank_secs[r] = t.seconds();
    });
    for (int r = 0; r < P; ++r) {
      rep.queries_sent += rank_count[r];
      c_queries.add(r, rank_count[r]);
      rep.owner_scan += rank_owner[r];
      c_owner_lookups.add(r, rank_owner[r].lookups);
      c_owner_cache.add(r, rank_owner[r].cache_hits);
      c_owner_window.add(r, rank_owner[r].window_scans);
      c_owner_full.add(r, rank_owner[r].full_searches);
      c_owner_cmp.add(r, rank_owner[r].comparisons);
    }
    rep.t_query_response += reduce_secs();
  }

  // ------------------------------------------------------------------
  // Phase 2b: Notify — reverse the asymmetric pattern (Section V).
  // ------------------------------------------------------------------
  double notify_model_time = 0;
  std::vector<std::vector<std::pair<int, std::vector<WireOct<D>>>>> qrecv(P);
  const bool fused =
      opt.notify_carries_queries && opt.notify_algo == NotifyAlgo::kNotify;
  if (fused) {
    // Fused mode: the query octants ride along the Notify rounds as
    // payloads (production-p4est style), so pattern reversal and query
    // exchange are one collective step.  Wall time spent in deliver()
    // barriers inside the rounds is excluded from the phase's CPU share
    // (the α–β model already charges the communication).
    OBS_SPAN("notify");
    comm.set_phase("balance/notify");
    const CommStats before = comm.stats();
    const double mbefore = comm.modeled_time();
    const double bbefore = comm.barrier_seconds();
    Timer t;
    std::vector<std::vector<std::pair<int, std::vector<std::uint8_t>>>> out(P);
    par::parallel_for_ranks(P, [&](int r) {
      for (int dest = 0; dest < P; ++dest) {
        if (qsend[r][dest].empty()) continue;
        if (dest == r) {
          qrecv[r].push_back({r, qsend[r][dest]});
          continue;
        }
        std::vector<std::uint8_t> buf(qsend[r][dest].size() *
                                      sizeof(WireOct<D>));
        std::memcpy(buf.data(), qsend[r][dest].data(), buf.size());
        out[r].push_back({dest, std::move(buf)});
      }
    });
    const auto delivered = notify_dc_payload(comm, out);
    par::parallel_for_ranks(P, [&](int r) {
      for (const auto& np : delivered[r]) {
        std::vector<WireOct<D>> items(np.data.size() / sizeof(WireOct<D>));
        if (!items.empty()) {
          std::memcpy(items.data(), np.data.data(), np.data.size());
        }
        qrecv[r].push_back({np.sender, std::move(items)});
      }
      std::size_t staged = 0;
      for (const auto& [from, items] : qrecv[r]) {
        staged += items.size() * sizeof(WireOct<D>);
      }
      qrecv_mem[r].set_slot(r, obs::MemTag::kBalanceStaging, staged);
    });
    notify_model_time = comm.modeled_time() - mbefore;
    rep.t_notify = std::max(0.0, t.seconds() -
                                     (comm.barrier_seconds() - bbefore)) +
                   notify_model_time;
    rep.notify_comm.messages = comm.stats().messages - before.messages;
    rep.notify_comm.bytes = comm.stats().bytes - before.bytes;
  } else {
    {
      OBS_SPAN("notify");
      comm.set_phase("balance/notify");
      const CommStats before = comm.stats();
      const double mbefore = comm.modeled_time();
      const double bbefore = comm.barrier_seconds();
      Timer t;
      (void)notify(opt.notify_algo, comm, receivers, opt.notify_max_ranges);
      notify_model_time = comm.modeled_time() - mbefore;
      rep.t_notify = std::max(0.0, t.seconds() -
                                       (comm.barrier_seconds() - bbefore)) +
                     notify_model_time;
      rep.notify_comm.messages = comm.stats().messages - before.messages;
      rep.notify_comm.bytes = comm.stats().bytes - before.bytes;
    }

    // ----------------------------------------------------------------
    // Phase 2c: exchange the queries (self-queries bypass the network).
    // The phase timer pauses across the deliver() barrier, so only the
    // pack/unpack compute is attributed here.
    // ----------------------------------------------------------------
    OBS_SPAN("exchange_queries");
    comm.set_phase("balance/queries");
    Timer t;
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("post_queries", r);
      for (int dest = 0; dest < P; ++dest) {
        if (qsend[r][dest].empty()) continue;
        if (dest == r) {
          qrecv[r].push_back({r, qsend[r][dest]});
        } else {
          comm.send_items<WireOct<D>>(
              r, dest, std::span<const WireOct<D>>(qsend[r][dest]));
        }
      }
    });
    t.pause();
    comm.deliver();
    t.resume();
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("recv_queries", r);
      for (const auto& m : comm.recv_all(r)) {
        qrecv[r].push_back({m.from, SimComm::decode_items<WireOct<D>>(m)});
      }
      std::size_t staged = 0;
      for (const auto& [from, items] : qrecv[r]) {
        staged += items.size() * sizeof(WireOct<D>);
      }
      qrecv_mem[r].set_slot(r, obs::MemTag::kBalanceStaging, staged);
    });
    rep.t_query_response += t.seconds();
  }

  // ------------------------------------------------------------------
  // Phase 3: Response — decide which octants might split each query and
  // answer with raw octants (old) or seeds (new).
  // ------------------------------------------------------------------
  std::vector<std::vector<std::pair<int, std::vector<WirePair<D>>>>> rrecv(P);
  {
    OBS_SPAN("response");
    comm.set_phase("balance/response");
    std::fill(rank_count.begin(), rank_count.end(), 0);
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("response", r);
      const obs::MemRank mem_rank(r);
      Timer t;
      const auto& mine = f.local(r);
      // Per-tree views for range searches: each tree's leaves are one
      // contiguous run of `mine`, and every leaf's Morton interval bounds
      // sit in two flat key arrays, so a range search is two
      // partition_points over plain integers.
      const std::vector<TreeRun> runs = tagged_tree_runs(mine);
      const LeafIntervals<D> iv(mine);
      std::map<int, std::vector<WirePair<D>>> reply;
      const auto& offs = full_offsets<D>();
      std::vector<Octant<D>> seeds, seed_scratch;
      std::size_t seeds_peak = 0;  // kSeeds bytes of the largest closure
      for (const auto& [from, queries] : qrecv[r]) {
        auto& out = reply[from];
        for (const auto& w : queries) {
          const TreeOct<D> q = from_wire(w);
          const std::size_t first = out.size();
          // Answer q from the leaves overlapping each insulation piece (in
          // the piece's tree frame), mapped into q's frame by `xf` (null:
          // identity): a pure translation for brick connectivities, a signed
          // permutation plus translation for general 2D gluings.
          for_each_piece(conn, q, offs, [&](std::int32_t tree,
                                            const Octant<D>& piece,
                                            const FrameTransform<D>* xf) {
            const TreeRun* run = find_run(runs, tree);
            if (!run) return;
            const auto [lo, hi] = iv.overlapping(run->lo, run->hi, piece);
            for (std::size_t ji = lo; ji < hi; ++ji) {
              const Octant<D>& leaf = mine[ji].oct;
              if (leaf.level <= q.oct.level) continue;  // too coarse
              const Octant<D> o = xf ? xf->apply(leaf) : leaf;
              if (opt.seed_response) {
                if (o.level <= q.oct.level + 1) continue;  // 2:1 already
                // The closure opens with the O(1) balanced_pair decision
                // and returns no seeds (and 0 bytes) when it holds.
                seeds_peak = std::max(
                    seeds_peak,
                    balance_seeds_into(o, q.oct, k, seeds, seed_scratch));
                for (const auto& s : seeds) {
                  out.push_back(WirePair<D>{w, s.level, s.x});
                }
              } else {
                out.push_back(WirePair<D>{w, o.level, o.x});
              }
            }
          });
          // Seeds from different response octants overlap; deduplicate per
          // query, so the per-sender pass below sees ~distinct items only.
          std::sort(out.begin() + first, out.end());
          out.erase(std::unique(out.begin() + first, out.end()), out.end());
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        rank_count[r] += out.size();
      }
      {
        // One kSeeds charge at the closures' maximum: nothing else in this
        // rank's slot moves during the loop, so every tag, rank and phase
        // peak equals that of charging each closure in turn.
        const obs::MemScope seeds_mem(obs::MemTag::kSeeds, seeds_peak);
      }
      for (auto& [dest, items] : reply) {
        if (items.empty()) continue;
        if (dest == r) {
          rrecv[r].push_back({r, std::move(items)});
        } else {
          comm.send_items<WirePair<D>>(r, dest,
                                       std::span<const WirePair<D>>(items));
        }
      }
      rank_secs[r] = t.seconds();
    });
    Timer t;
    t.pause();
    comm.deliver();
    t.resume();
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("recv_responses", r);
      for (const auto& m : comm.recv_all(r)) {
        rrecv[r].push_back({m.from, SimComm::decode_items<WirePair<D>>(m)});
      }
      std::size_t staged = 0;
      for (const auto& [from, items] : rrecv[r]) {
        staged += items.size() * sizeof(WirePair<D>);
      }
      rrecv_mem[r].set_slot(r, obs::MemTag::kBalanceStaging, staged);
    });
    for (int r = 0; r < P; ++r) {
      rep.response_items += rank_count[r];
      c_responses.add(r, rank_count[r]);
    }
    rep.t_query_response += reduce_secs() + t.seconds();
  }

  // ------------------------------------------------------------------
  // Phase 4: Local rebalance.
  // ------------------------------------------------------------------
  {
    OBS_SPAN("local_rebalance");
    obs::mem_set_phase("balance/rebalance");
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("local_rebalance", r);
      const obs::MemRank mem_rank(r);
      Timer t;
      auto& mine = f.local(r);
      if (opt.grouped_rebalance) {
        // New scheme: reconstruct Tk ∩ q from the seeds, per query octant,
        // with q as the subtree root — work proportional to the output.
        std::map<WireOct<D>, std::vector<Octant<D>>> groups;
        for (const auto& [from, items] : rrecv[r]) {
          for (const auto& it : items) {
            Octant<D> o;
            o.level = static_cast<level_t>(it.level);
            o.x = it.x;
            groups[it.query].push_back(o);
          }
        }
        // Fault injection (audit self-tests): fold the response senders
        // through a polynomial hash *in delivery order* — a deliberately
        // non-commutative, delivery-order-sensitive "reduction" — and drop
        // the last query group when the fold lands odd.  Under canonical
        // delivery this is a deterministic (wrong) result; under scrambled
        // delivery the fold, and hence the forest, changes with the order,
        // which is exactly what the scramble invariant must detect.
        if (opt.inject == FaultInjection::kOrderDependentReduce &&
            !groups.empty()) {
          std::uint64_t acc = 0x2012;
          for (const auto& [from, items] : rrecv[r]) {
            acc = acc * 0x100000001b3ull +
                  static_cast<std::uint64_t>(from + 1);
          }
          // splitmix finalizer: the decision bit depends on sender *order*,
          // not just the sender multiset.
          acc = (acc ^ (acc >> 30)) * 0xbf58476d1ce4e5b9ull;
          acc = (acc ^ (acc >> 27)) * 0x94d049bb133111ebull;
          if ((acc ^ (acc >> 31)) & 1) groups.erase(std::prev(groups.end()));
        }
        std::vector<TreeOct<D>> extra;
        for (auto& [qw, octs] : groups) {
          const TreeOct<D> q = from_wire(qw);
          std::sort(octs.begin(), octs.end());
          linearize(octs);
          const auto sub =
              balance_subtree(opt.subtree, octs, k, q.oct, &rank_subtree[r]);
          for (const auto& o : sub) extra.push_back(TreeOct<D>{q.tree, o});
        }
        merge_linearize_treeocts(mine, extra);
      } else {
        // Old scheme: merge every received octant as an auxiliary
        // (possibly exterior) constraint and re-balance whole partitions.
        std::map<int, std::vector<Octant<D>>> aux;
        for (const auto& [from, items] : rrecv[r]) {
          for (const auto& it : items) {
            Octant<D> o;
            o.level = static_cast<level_t>(it.level);
            o.x = it.x;
            aux[it.query.tree].push_back(o);
          }
        }
        std::vector<TreeOct<D>> out;
        out.reserve(mine.size());
        for (const auto& [i, j] : tree_runs(mine)) {
          const int tree = mine[i].tree;
          std::vector<Octant<D>> input;
          input.reserve(j - i);
          for (std::size_t q = i; q < j; ++q) input.push_back(mine[q].oct);
          const Octant<D> first = input.front(), last = input.back();
          if (auto it = aux.find(tree); it != aux.end()) {
            input.insert(input.end(), it->second.begin(), it->second.end());
            std::sort(input.begin(), input.end());
            linearize(input);
          }
          const auto bal =
              balance_subtree(opt.subtree, input, k, root, &rank_subtree[r]);
          clip_to_span(bal, first, last, tree, out);
        }
        mine.swap(out);
      }
      rank_secs[r] = t.seconds();
    });
    f.refresh_markers();
    rep.t_local_rebalance = reduce_secs();
  }
  // Serial-balance hash/search counters (previously reachable only through
  // BalanceReport in the perf-guard tests): per-rank obs counters, so they
  // land in every --json run report and stay diffable by octbal_inspect.
  obs::Counter& c_hash_queries = met.counter("balance/hash_queries");
  obs::Counter& c_hash_probes = met.counter("balance/hash_probes");
  obs::Counter& c_hash_rehash = met.counter("balance/hash_rehash_probes");
  obs::Counter& c_bsearch = met.counter("balance/binary_searches");
  obs::Counter& c_sorted = met.counter("balance/sorted_octants");
  for (int r = 0; r < P; ++r) {
    rep.subtree += rank_subtree[r];
    c_leaves.add(r, f.local(r).size());
    c_hash_queries.add(r, rank_subtree[r].hash_queries);
    c_hash_probes.add(r, rank_subtree[r].hash_probes);
    c_hash_rehash.add(r, rank_subtree[r].hash_rehash_probes);
    c_bsearch.add(r, rank_subtree[r].binary_searches);
    c_sorted.add(r, rank_subtree[r].sorted_octants);
  }
  comm.set_phase(phase0);

  rep.comm.messages = comm.stats().messages - stats0.messages -
                      rep.notify_comm.messages;
  rep.comm.bytes = comm.stats().bytes - stats0.bytes - rep.notify_comm.bytes;
  // Attribute the modeled communication time of the query/response
  // exchanges to that phase; notify accounted for its own share above.
  rep.t_query_response += (comm.modeled_time() - modeled0) - notify_model_time;
  rep.t_barrier = comm.barrier_seconds() - barrier0;
  rep.octants_after = f.global_num_octants();
  return rep;
}

#define OCTBAL_INSTANTIATE(D)                                       \
  template BalanceReport balance<D>(Forest<D>&, const BalanceOptions&, \
                                    SimComm&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
