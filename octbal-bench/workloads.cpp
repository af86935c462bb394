#include "workloads.hpp"

#include <algorithm>

#include "forest/balance.hpp"
#include "forest/delta_balance.hpp"
#include "forest/ghost.hpp"
#include "forest/nodes.hpp"
#include "forest/repartition.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"
#include "workload/workloads.hpp"

namespace octbal::bench {

namespace {

constexpr int kK = 3;  ///< corner balance, the paper's full condition

const BalanceOptions& new_config() {
  static const BalanceOptions opt = BalanceOptions::new_config();
  return opt;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= h >> 31;
  return h * 0xbf58476d1ce4e5b9ull;
}

std::uint64_t mix_oct(std::uint64_t h, const TreeOct<3>& o) {
  h = mix(h, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(o.tree))
              << 8) |
                 static_cast<std::uint8_t>(o.oct.level));
  for (const coord_t c : o.oct.x) h = mix(h, static_cast<std::uint32_t>(c));
  return h;
}

/// Highest per-phase peak (summed over slots) among phases whose label
/// starts with \p prefix.
std::uint64_t phase_peak(const obs::MemSnapshot& m, const std::string& prefix) {
  std::uint64_t best = 0;
  for (const auto& p : m.phases) {
    if (p.phase.rfind(prefix, 0) != 0) continue;
    std::uint64_t sum = p.engine;
    for (const auto b : p.per_rank) sum += b;
    best = std::max(best, sum);
  }
  return best;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

void add_balance_layers(const BalanceReport& rep, const obs::MemSnapshot& mem,
                        Samples& s) {
  s.add("forest.balance.local_s", rep.t_local_balance);
  s.add("forest.balance.notify_s", rep.t_notify);
  s.add("forest.balance.query_response_s", rep.t_query_response);
  s.add("forest.balance.rebalance_s", rep.t_local_rebalance);
  s.add("forest.balance.barrier_s", rep.t_barrier);
  s.add("forest.balance.queries", static_cast<double>(rep.queries_sent));
  s.add("forest.balance.response_items",
        static_cast<double>(rep.response_items));
  s.add("forest.balance.leaves_created",
        static_cast<double>(rep.octants_after - rep.octants_before));
  s.add("forest.balance.response_yield",
        ratio(rep.response_items, rep.queries_sent));
  s.add("forest.balance.owner_cmp_per_lookup",
        ratio(rep.owner_scan.comparisons, rep.owner_scan.lookups));
  s.add("forest.balance.owner_cache_hit_ratio",
        ratio(rep.owner_scan.cache_hits, rep.owner_scan.lookups));
  s.add("forest.balance.peak_bytes",
        static_cast<double>(phase_peak(mem, "balance/")));
}

/// Common tail of every operation: traffic, memory and digest, all read
/// after the timers stopped.
void finish(OpResult& r, const SimComm& comm, const obs::MemSession& mem) {
  r.comm = comm.stats();
  r.modeled_comm_s = comm.modeled_time();
  r.mem = mem.snapshot();
  r.leaves_out = r.out.global_num_octants();
  r.digest = mix(forest_digest(r.out), r.leaves_out);
  r.layers.add("comm.rounds", static_cast<double>(comm.rounds().size() +
                                                  comm.rounds_truncated()));
  double slack = 0;
  for (const auto& p : comm.critical_path()) slack += p.slack;
  r.layers.add("comm.slack_s", slack);
  for (const auto& t : r.mem.tags) {
    r.layers.add(std::string("mem.") + obs::mem_tag_name(t.tag) +
                     ".peak_bytes",
                 static_cast<double>(t.total));
  }
}

void check_balanced(const Forest<3>& f, const std::string& what,
                    Checks& checks) {
  checks.expect(f.is_valid(), what + ": forest structure invalid");
  checks.expect(forest_is_balanced(f.gather(), f.connectivity(), kK),
                what + ": forest is not 2:1 balanced");
}

/// Fig. 15 step 3: the fractal six-octree forest, balance() only.
class Fractal : public Workload {
 public:
  std::string name() const override { return "fractal"; }
  int ranks() const override { return 16; }

  /// fractal_refine is deterministic: this workload has no seed.
  Setup setup(Samples& layers) const override {
    Timer t;
    Forest<3> f(Connectivity<3>::brick({3, 2, 1}), ranks(), kBase);
    fractal_refine(f, kLmax);
    layers.add("workload.refine_s", t.seconds());
    t.reset();
    f.partition_uniform();
    layers.add("workload.partition_s", t.seconds());
    return Setup{f, f, {}};
  }

  OpResult run(const Forest<3>& input) const override {
    obs::MemSession mem(ranks());
    OpResult r(input);
    SimComm comm(ranks());
    Timer t;
    BalanceReport rep;
    {
      obs::Span span("call.balance");
      rep = balance(r.out, new_config(), comm);
    }
    r.op_s = r.balance_s = t.seconds();
    finish(r, comm, mem);
    add_balance_layers(rep, r.mem, r.layers);
    r.balance_rounds = comm.rounds();
    return r;
  }

  void validate(const Setup& s, const OpResult& ref,
                Checks& checks) const override {
    // Sizes of the paper's Fig. 15 step 3 mesh.
    checks.expect(s.input.global_num_octants() == 114624,
                  "fractal: input leaves != 114624");
    checks.expect(ref.leaves_out == 239672, "fractal: leaves out != 239672");
    check_balanced(ref.out, "fractal", checks);
  }

 private:
  static constexpr int kBase = 2;
  static constexpr int kLmax = 6;
};

/// Fig. 16/17 ice-sheet mesh: balance() followed by the mesh pipeline.
class IceSheet : public Workload {
 public:
  explicit IceSheet(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "icesheet"; }
  int ranks() const override { return 64; }

  Setup setup(Samples& layers) const override {
    IceSheetParams p;
    p.seed = seed_;
    Timer t;
    Forest<3> f(Connectivity<3>::brick({8, 8, 1}), ranks(), 1);
    icesheet_refine(f, kLmax, p);
    layers.add("workload.refine_s", t.seconds());
    t.reset();
    f.partition_uniform();
    layers.add("workload.partition_s", t.seconds());
    return Setup{f, f, {}};
  }

  OpResult run(const Forest<3>& input) const override {
    obs::MemSession mem(ranks());
    OpResult r(input);
    SimComm comm(ranks());
    Timer total;
    Timer t;
    BalanceReport rep;
    {
      obs::Span span("call.balance");
      rep = balance(r.out, new_config(), comm);
    }
    r.balance_s = t.seconds();
    t.reset();
    GhostLayer<3> ghost = [&] {
      obs::Span span("call.ghost");
      return build_ghost_layer(r.out, kK, comm);
    }();
    const double ghost_s = t.seconds();
    t.reset();
    std::vector<TreeOct<3>> leaves = [&] {
      obs::Span span("call.gather");
      return r.out.gather();
    }();
    const double gather_s = t.seconds();
    t.reset();
    NodeNumbering nn = [&] {
      obs::Span span("call.enumerate_nodes");
      return enumerate_nodes(leaves, r.out.connectivity());
    }();
    const double enumerate_s = t.seconds();
    t.reset();
    NodeOwnership own = [&] {
      obs::Span span("call.assign_node_owners");
      return assign_node_owners(r.out, nn, comm);
    }();
    const double owners_s = t.seconds();
    r.op_s = total.seconds();

    finish(r, comm, mem);
    add_balance_layers(rep, r.mem, r.layers);
    r.balance_rounds = comm.rounds();
    std::uint64_t entries = 0;
    for (int rank = 0; rank < ranks(); ++rank) {
      r.digest = mix(r.digest, ghost.per_rank[rank].size());
      for (const auto& e : ghost.per_rank[rank]) {
        r.ok = r.ok && e.owner != rank;
        r.digest = mix(mix_oct(r.digest, e.oct), e.owner);
      }
      entries += ghost.per_rank[rank].size();
    }
    std::uint64_t owned = 0;
    for (const auto n : own.nodes_per_rank) owned += n;
    r.ok = r.ok && nn.element_nodes.size() == leaves.size() &&
           nn.num_independent <= nn.num_nodes &&
           own.owner.size() == nn.num_nodes && owned == nn.num_nodes;
    r.digest = mix(mix(mix(r.digest, nn.num_nodes), nn.num_independent),
                   own.shared_nodes);
    r.layers.add("forest.ghost_s", ghost_s);
    r.layers.add("forest.ghost.entries", static_cast<double>(entries));
    r.layers.add("forest.gather_s", gather_s);
    r.layers.add("forest.nodes.enumerate_s", enumerate_s);
    r.layers.add("forest.nodes.owners_s", owners_s);
    r.layers.add("forest.nodes.count", static_cast<double>(nn.num_nodes));
    r.layers.add("forest.nodes.shared", static_cast<double>(own.shared_nodes));
    r.layers.add("forest.mesh_s", r.op_s - r.balance_s);
    return r;
  }

  void validate(const Setup&, const OpResult& ref,
                Checks& checks) const override {
    check_balanced(ref.out, "icesheet", checks);
  }

 private:
  static constexpr int kLmax = 7;
  std::uint64_t seed_;
};

/// bench_churn's advected grounding line: a fixed number of
/// refine -> delta_balance -> repartition -> coarsen steps.
class Churn : public Workload {
 public:
  explicit Churn(std::uint64_t seed) {
    cp_.sheet.seed = seed;
    cp_.drift = 0.03;  // the front clears its own wake in two steps
    cp_.wake = 0.06;
    ropt_.mode = RepartitionMode::kWeighted;
    ropt_.weight = RepartitionWeight::kInsulation;
  }
  std::string name() const override { return "churn"; }
  int ranks() const override { return 64; }
  const char* balance_call_span() const override {
    return "call.delta_balance";
  }
  const char* balance_lib_span() const override { return "delta_balance"; }

  Setup setup(Samples& layers) const override {
    Timer t;
    Forest<3> f(Connectivity<3>::brick({8, 8, 1}), ranks(), 1);
    front_refine(f, kLmax, cp_, 0);
    layers.add("workload.refine_s", t.seconds());
    t.reset();
    f.partition_uniform();
    layers.add("workload.partition_s", t.seconds());
    Forest<3> unbalanced = f;
    obs::MemSession mem(ranks());
    f.account_memory();
    SimComm comm(ranks());
    const BalanceReport rep = balance(f, new_config(), comm);
    f.clear_dirty();
    add_balance_layers(rep, mem.snapshot(), layers);
    return Setup{std::move(f), std::move(unbalanced), comm.rounds()};
  }

  OpResult run(const Forest<3>& input) const override {
    obs::MemSession mem(ranks());
    OpResult r(input);
    SimComm comm(ranks());
    double refine_s = 0, delta_s = 0, repartition_s = 0, coarsen_s = 0;
    DeltaBalanceReport delta;
    RepartitionReport moved;
    Timer total;
    for (int step = 1; step <= kSteps; ++step) {
      Timer t;
      {
        obs::Span span("call.front_refine");
        front_refine(r.out, kLmax, cp_, step);
      }
      refine_s += t.seconds();
      t.reset();
      const DeltaBalanceReport d = [&] {
        obs::Span span("call.delta_balance");
        return delta_balance(r.out, new_config(), comm);
      }();
      delta_s += t.seconds();
      t.reset();
      const RepartitionReport rr = [&] {
        obs::Span span("call.repartition");
        return repartition(r.out, ropt_, &comm);
      }();
      repartition_s += t.seconds();
      t.reset();
      {
        obs::Span span("call.front_coarsen");
        front_coarsen(r.out, cp_, step, kK);
      }
      coarsen_s += t.seconds();
      delta.dirty_validated += d.dirty_validated;
      delta.region_octants += d.region_octants;
      delta.constraints_sent += d.constraints_sent;
      delta.octants_created += d.octants_created;
      delta.rounds += d.rounds;
      moved.octants_moved += rr.octants_moved;
      moved.migration += rr.migration;
    }
    r.op_s = total.seconds();
    r.balance_s = delta_s;
    finish(r, comm, mem);
    Samples& s = r.layers;
    s.add("forest.refine_s", refine_s);
    s.add("forest.delta_s", delta_s);
    s.add("forest.repartition_s", repartition_s);
    s.add("forest.coarsen_s", coarsen_s);
    s.add("forest.delta.dirty", static_cast<double>(delta.dirty_validated));
    s.add("forest.delta.region", static_cast<double>(delta.region_octants));
    s.add("forest.delta.constraints",
          static_cast<double>(delta.constraints_sent));
    s.add("forest.delta.created", static_cast<double>(delta.octants_created));
    s.add("forest.delta.rounds", delta.rounds);
    s.add("forest.delta.peak_bytes",
          static_cast<double>(phase_peak(r.mem, "churn/")));
    s.add("forest.repartition.moved", static_cast<double>(moved.octants_moved));
    s.add("forest.repartition.migration_bytes",
          static_cast<double>(moved.migration.bytes));
    return r;
  }

  /// Replays the steps with bench_churn's check: after every step the
  /// incremental delta_balance() must equal a full balance() of a copy,
  /// byte for byte.
  void validate(const Setup& s, const OpResult& ref,
                Checks& checks) const override {
    Forest<3> f = s.input;
    SimComm comm(ranks());
    for (int step = 1; step <= kSteps; ++step) {
      front_refine(f, kLmax, cp_, step);
      Forest<3> full = f;
      full.clear_dirty();
      SimComm full_comm(ranks());
      balance(full, new_config(), full_comm);
      delta_balance(f, new_config(), comm);
      bool same = f.markers() == full.markers();
      for (int r = 0; r < f.num_ranks() && same; ++r) {
        same = f.local(r) == full.local(r);
      }
      checks.expect(same, "churn step " + std::to_string(step) +
                              ": delta_balance differs from balance()");
      repartition(f, ropt_, &comm);
      front_coarsen(f, cp_, step, kK);
    }
    checks.expect(forest_digest(f) == forest_digest(ref.out),
                  "churn: validation replay ends in another forest");
    check_balanced(ref.out, "churn", checks);
  }

 private:
  static constexpr int kLmax = 6;
  static constexpr int kSteps = 3;
  ChurnFrontParams cp_;
  RepartitionOptions ropt_;
};

}  // namespace

std::uint64_t forest_digest(const Forest<3>& f) {
  std::uint64_t h = 0x2012;
  for (int r = 0; r < f.num_ranks(); ++r) {
    h = mix(h, f.local(r).size());
    for (const auto& o : f.local(r)) h = mix_oct(h, o);
  }
  for (const auto& m : f.markers()) {
    h = mix(mix(h, static_cast<std::uint32_t>(m.tree)), m.key);
  }
  return h;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fractal") return std::make_unique<Fractal>();
  if (name == "icesheet") return std::make_unique<IceSheet>(seed);
  if (name == "churn") return std::make_unique<Churn>(seed);
  return nullptr;
}

}  // namespace octbal::bench
