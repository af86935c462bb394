#include "forest/nodes.hpp"

#include <bit>
#include <map>

#include "core/linear.hpp"
#include "core/octant_hash.hpp"
#include "core/search.hpp"
#include "forest/forest.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace octbal {

namespace {

template <int D>
using GlobalCoord = std::array<std::int64_t, D>;

/// The extent of the whole brick domain per axis, in finest-cell units.
template <int D>
GlobalCoord<D> domain_extent(const Connectivity<D>& conn) {
  GlobalCoord<D> e{};
  for (int i = 0; i < D; ++i) {
    e[i] = static_cast<std::int64_t>(conn.dims()[i]) * root_len<D>;
  }
  return e;
}

/// Wrap a leaf corner's periodic axes onto [0, extent).  A corner lies on
/// the closed [0, extent] per axis, so only the upper face wraps.
template <int D>
void wrap_periodic(const Connectivity<D>& conn, const GlobalCoord<D>& ext,
                   GlobalCoord<D>& g) {
  for (int i = 0; i < D; ++i) {
    assert(0 <= g[i] && g[i] <= ext[i]);
    if (conn.periodic()[i] && g[i] == ext[i]) g[i] = 0;
  }
}

/// Flat open-addressing table from canonical global node coordinates to
/// dense ids handed out in insertion order: coord[id] is the node's
/// coordinate and incidences[id] the number of add() calls that hit it.
/// Slots hold 32-bit ids (a node count past 2^32 - 1 would need an
/// element_nodes array of more than 32 GiB) and stay at most half full.
template <int D>
class NodeTable {
 public:
  explicit NodeTable(std::size_t expected) {
    coord.reserve(expected);
    incidences.reserve(expected);
    rehash(std::bit_ceil(2 * expected + 2));
  }

  static std::uint64_t hash(const GlobalCoord<D>& g) {
    std::uint64_t h = 0;
    for (int i = 0; i < D; ++i) {
      h = h * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(g[i]);
    }
    return detail::hash_mix(h);
  }

  void prefetch(std::uint64_t h) const {
    __builtin_prefetch(&slot_[h & mask_]);
  }

  /// The id of \p g (whose hash is \p h), inserted if new.
  std::uint32_t add(const GlobalCoord<D>& g, std::uint64_t h) {
    std::size_t s = h & mask_;
    for (; slot_[s] != kEmpty; s = (s + 1) & mask_) {
      const std::uint32_t id = slot_[s];
      if (coord[id] == g) {
        ++incidences[id];
        return id;
      }
    }
    const auto id = static_cast<std::uint32_t>(coord.size());
    assert(id != kEmpty);
    slot_[s] = id;
    coord.push_back(g);
    incidences.push_back(1);
    if (2 * coord.size() > slot_.size()) rehash(2 * slot_.size());
    return id;
  }

  std::vector<GlobalCoord<D>> coord;
  std::vector<std::uint8_t> incidences;

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  void rehash(std::size_t capacity) {
    slot_.assign(capacity, kEmpty);
    mask_ = capacity - 1;
    for (std::uint32_t id = 0; id < coord.size(); ++id) {
      std::size_t s = hash(coord[id]) & mask_;
      while (slot_[s] != kEmpty) s = (s + 1) & mask_;
      slot_[s] = id;
    }
  }

  std::vector<std::uint32_t> slot_;
  std::size_t mask_ = 0;
};

}  // namespace

/// General-connectivity node key: the canonical representative of the
/// node's orbit under all face identifications reachable from (tree,
/// coords).  Node coordinates live on the closed cube [0, R]^D; a node on
/// a glued face also exists in the neighbor's frame, and corner nodes can
/// reach several frames by composing crossings.
template <int D>
struct GeneralNodeKey {
  std::int32_t tree;
  std::array<coord_t, D> x;

  friend bool operator==(const GeneralNodeKey&, const GeneralNodeKey&) =
      default;
  friend bool operator<(const GeneralNodeKey& a, const GeneralNodeKey& b) {
    if (a.tree != b.tree) return a.tree < b.tree;
    return a.x < b.x;
  }
};

/// The orbit of a node of a *general* connectivity under all reachable
/// face identifications: a node on a glued face also exists in the
/// neighbor's frame; corner nodes reach several frames by composing
/// crossings (the breadth-first walk closes the orbit).
template <int D>
std::vector<GeneralNodeKey<D>> node_orbit(const Connectivity<D>& conn,
                                          std::int32_t tree,
                                          const std::array<coord_t, D>& x) {
  const coord_t R = root_len<D>;
  std::vector<GeneralNodeKey<D>> orbit{GeneralNodeKey<D>{tree, x}};
  for (std::size_t i = 0; i < orbit.size() && orbit.size() < 64; ++i) {
    const GeneralNodeKey<D> cur = orbit[i];
    for (int axis = 0; axis < D; ++axis) {
      if (cur.x[axis] != 0 && cur.x[axis] != R) continue;
      const int dir = cur.x[axis] == 0 ? -1 : 1;
      // A finest-level interior cell touching the face with the node as
      // one of its corners; its cross-face neighbor carries the node's
      // image in the neighbor frame.
      Octant<D> base;
      base.level = max_level<D>;
      for (int d = 0; d < D; ++d) {
        base.x[d] = cur.x[d] == R ? R - 1 : cur.x[d];
      }
      base.x[axis] = dir > 0 ? R - 1 : 0;
      std::array<int, D> off{};
      off[axis] = dir;
      const auto nb = conn.neighbor(static_cast<int>(cur.tree), base, off);
      if (!nb) continue;
      // Find the corner of the neighbor cell that maps onto the node:
      // points transform as offset + sign * v (no side-length term).
      for (int c = 0; c < num_children<D>; ++c) {
        std::array<coord_t, D> corner{};
        for (int d = 0; d < D; ++d) {
          corner[d] = nb->oct.x[d] + (((c >> d) & 1) ? 1 : 0);
        }
        std::array<coord_t, D> img{};
        for (int d = 0; d < D; ++d) {
          const scoord_t v = corner[nb->xform.perm[d]];
          img[d] = static_cast<coord_t>(nb->xform.sign[d] > 0
                                            ? nb->xform.offset[d] + v
                                            : nb->xform.offset[d] - v);
        }
        if (img == cur.x) {
          const GeneralNodeKey<D> key{nb->tree, corner};
          if (std::find(orbit.begin(), orbit.end(), key) == orbit.end()) {
            orbit.push_back(key);
          }
          break;
        }
      }
    }
  }
  return orbit;
}

/// Node enumeration over a general connectivity: ids keyed by the orbit's
/// canonical (smallest) member; a node hangs when any containing leaf, in
/// any frame of the orbit, does not have it as a corner.
template <int D>
NodeNumbering enumerate_nodes_general(const std::vector<TreeOct<D>>& leaves,
                                      const Connectivity<D>& conn) {
  OBS_SPAN("enumerate_nodes_general");
  NodeNumbering nn;
  const coord_t R = root_len<D>;
  std::vector<std::vector<Octant<D>>> per_tree(conn.num_trees());
  for (const auto& to : leaves) per_tree[to.tree].push_back(to.oct);

  std::map<GeneralNodeKey<D>, std::int64_t> ids;
  std::map<GeneralNodeKey<D>, std::vector<GeneralNodeKey<D>>> orbits;
  nn.element_nodes.assign(leaves.size(), {});
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    const std::int64_t h = side_len(leaves[e].oct);
    for (int c = 0; c < num_children<D>; ++c) {
      std::array<coord_t, D> x{};
      for (int d = 0; d < D; ++d) {
        x[d] = leaves[e].oct.x[d] + (((c >> d) & 1) ? h : 0);
      }
      auto orbit = node_orbit<D>(conn, leaves[e].tree, x);
      const GeneralNodeKey<D> key =
          *std::min_element(orbit.begin(), orbit.end());
      const auto [it, fresh] =
          ids.try_emplace(key, static_cast<std::int64_t>(ids.size()));
      if (fresh) orbits.emplace(key, std::move(orbit));
      nn.element_nodes[e][c] = it->second;
    }
  }
  nn.num_nodes = ids.size();
  nn.hanging.assign(nn.num_nodes, 0);

  // Hanging classification is independent per node: chunk the id map over
  // the thread pool (each entry writes only its own hanging[id] slot).
  std::vector<const std::pair<const GeneralNodeKey<D>, std::int64_t>*> entries;
  entries.reserve(ids.size());
  for (const auto& kv : ids) entries.push_back(&kv);
  par::parallel_for_blocked(entries.size(), 64, [&](std::size_t lo,
                                                    std::size_t hi) {
    for (std::size_t n = lo; n < hi; ++n) {
      const auto& [key, id] = *entries[n];
      for (const GeneralNodeKey<D>& rep : orbits.at(key)) {
        if (nn.hanging[id]) break;
        for (int adj = 0; adj < num_children<D> && !nn.hanging[id]; ++adj) {
          std::array<coord_t, D> cell = rep.x;
          bool inside = true;
          for (int d = 0; d < D; ++d) {
            if ((adj >> d) & 1) cell[d] -= 1;
            inside = inside && cell[d] >= 0 && cell[d] < R;
          }
          if (!inside) continue;
          const std::size_t li =
              find_containing_leaf<D>(per_tree[rep.tree], cell);
          if (li == npos) continue;
          const Octant<D>& m = per_tree[rep.tree][li];
          const coord_t mh = side_len(m);
          bool corner = true;
          for (int d = 0; d < D; ++d) {
            corner = corner &&
                     (rep.x[d] == m.x[d] || rep.x[d] == m.x[d] + mh);
          }
          if (!corner) nn.hanging[id] = 1;
        }
      }
    }
  });
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) {
    nn.num_independent += !nn.hanging[i];
  }
  return nn;
}

template <int D>
NodeNumbering enumerate_nodes(const std::vector<TreeOct<D>>& leaves,
                              const Connectivity<D>& conn) {
  if (!conn.is_lattice()) return enumerate_nodes_general(leaves, conn);
  OBS_SPAN("enumerate_nodes");
#ifndef NDEBUG
  // Precondition (debug builds): the leaves tile every tree exactly.
  std::vector<std::uint64_t> volume(conn.num_trees(), 0);
  for (const auto& to : leaves) {
    volume[to.tree] += std::uint64_t{1} << (D * size_exp(to.oct));
  }
  for (const std::uint64_t v : volume) {
    assert(v == std::uint64_t{1} << (D * max_level<D>));
  }
#endif
  NodeNumbering nn;
  const GlobalCoord<D> ext = domain_extent(conn);

  // Pass 1: ids in order of first appearance along the curve, from a flat
  // table keyed by the canonical global coordinate, which also counts
  // each node's (leaf, corner) incidences.  A leaf's 2^D slots are
  // prefetched before any is probed, so their cache misses overlap.
  NodeTable<D> table(leaves.size());
  nn.element_nodes.assign(leaves.size(), {});
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    const auto tc = conn.tree_coords(leaves[e].tree);
    GlobalCoord<D> a{};
    for (int i = 0; i < D; ++i) {
      a[i] = static_cast<std::int64_t>(tc[i]) * root_len<D> +
             leaves[e].oct.x[i];
    }
    const std::int64_t h = side_len(leaves[e].oct);
    std::array<GlobalCoord<D>, num_children<D>> corner;
    std::array<std::uint64_t, num_children<D>> hash;
    for (int c = 0; c < num_children<D>; ++c) {
      corner[c] = a;
      for (int i = 0; i < D; ++i) {
        if ((c >> i) & 1) corner[c][i] += h;
      }
      wrap_periodic<D>(conn, ext, corner[c]);
      hash[c] = NodeTable<D>::hash(corner[c]);
      table.prefetch(hash[c]);
    }
    for (int c = 0; c < num_children<D>; ++c) {
      nn.element_nodes[e][c] = table.add(corner[c], hash[c]);
    }
  }
  const auto& coord = table.coord;
  const auto& incidences = table.incidences;
  nn.num_nodes = coord.size();

  // Pass 2: a node is independent iff every leaf touching it has it as a
  // corner, i.e. iff its incidence count equals the number of in-domain
  // orthants around it (factor 2 per periodic or interior axis, 1 on a
  // non-periodic domain face).  On a complete leaf set each corner-leaf
  // covers one orthant per corner that lands on the node, and a leaf that
  // contains the node but not as a corner covers at least two orthants
  // that no corner-leaf covers (DESIGN.md §2.5).
  nn.hanging.assign(nn.num_nodes, 0);
  for (std::size_t id = 0; id < coord.size(); ++id) {
    int orthants = 1;
    for (int i = 0; i < D; ++i) {
      const bool inside = coord[id][i] > 0 && coord[id][i] < ext[i];
      if (conn.periodic()[i] || inside) orthants *= 2;
    }
    assert(incidences[id] <= orthants);
    nn.hanging[id] = incidences[id] != orthants;
    nn.num_independent += !nn.hanging[id];
  }
  return nn;
}

template <int D>
NodeOwnership assign_node_owners(const Forest<D>& f, const NodeNumbering& nn) {
  OBS_SPAN("assign_node_owners");
  NodeOwnership no;
  no.owner.assign(nn.num_nodes, f.num_ranks());
  no.nodes_per_rank.assign(f.num_ranks(), 0);
  // Element order in nn.element_nodes is the gather order: rank-major.
  std::size_t e = 0;
  for (int r = 0; r < f.num_ranks(); ++r) {
    for (std::size_t i = 0; i < f.local(r).size(); ++i, ++e) {
      for (int c = 0; c < num_children<D>; ++c) {
        const std::int64_t id = nn.element_nodes[e][c];
        no.owner[id] = std::min(no.owner[id], r);
      }
    }
  }
  assert(e == nn.element_nodes.size());
  for (const int r : no.owner) {
    assert(r < f.num_ranks());
    ++no.nodes_per_rank[r];
  }
  return no;
}

template <int D>
NodeOwnership assign_node_owners(const Forest<D>& f, const NodeNumbering& nn,
                                 SimComm& comm) {
  OBS_SPAN("node_owner_sync");
  NodeOwnership no = assign_node_owners(f, nn);
  const int P = f.num_ranks();

  // Which ranks touch each node, deduplicated with a per-rank stamp pass
  // (element order is rank-major, so one sweep per rank suffices).
  std::vector<int> stamp(nn.num_nodes, -1);
  std::vector<std::vector<std::vector<std::int64_t>>> share(P);
  for (auto& s : share) s.assign(P, {});
  std::size_t e = 0;
  for (int r = 0; r < P; ++r) {
    for (std::size_t i = 0; i < f.local(r).size(); ++i, ++e) {
      for (int c = 0; c < num_children<D>; ++c) {
        const std::int64_t id = nn.element_nodes[e][c];
        if (stamp[id] == r) continue;
        stamp[id] = r;
        if (no.owner[id] != r) share[no.owner[id]][r].push_back(id);
      }
    }
  }

  // The sync: each owner ships the sorted shared-node id list to every
  // co-touching rank (how a distributed DOF numbering distributes the
  // owner's global indices).  Flows through the simulated communicator so
  // every message and byte lands in the stats and the metrics registry.
  const std::string phase0 = comm.phase();
  comm.set_phase("nodes/owner_sync");
  const CommStats pre = comm.stats();
  obs::Counter& c_shared = comm.metrics().counter("nodes/shared_ids_sent");
  par::parallel_for_ranks(P, [&](int r) {
    OBS_SPAN_RANK("node_owner_sync", r);
    for (int q = 0; q < P; ++q) {
      if (share[r][q].empty()) continue;
      c_shared.add(r, share[r][q].size());
      comm.send_items<std::int64_t>(
          r, q, std::span<const std::int64_t>(share[r][q]));
    }
  });
  comm.deliver();
  std::vector<std::uint64_t> shared_per_rank(P, 0);
  par::parallel_for_ranks(P, [&](int r) {
    for (const auto& m : comm.recv_all(r)) {
      shared_per_rank[r] += m.data.size() / sizeof(std::int64_t);
    }
  });
  no.traffic.messages = comm.stats().messages - pre.messages;
  no.traffic.bytes = comm.stats().bytes - pre.bytes;
  for (std::int64_t id = 0; id < static_cast<std::int64_t>(nn.num_nodes);
       ++id) {
    // stamp holds the highest touching rank; a node is shared when any
    // rank other than the owner touches it.
    no.shared_nodes += stamp[id] >= 0 && stamp[id] != no.owner[id];
  }
  obs::Counter& c_recv = comm.metrics().counter("nodes/shared_ids_recv");
  for (int r = 0; r < P; ++r) c_recv.add(r, shared_per_rank[r]);
  comm.set_phase(phase0);
  return no;
}

#define OCTBAL_INSTANTIATE(D)                                         \
  template NodeNumbering enumerate_nodes<D>(                          \
      const std::vector<TreeOct<D>>&, const Connectivity<D>&);        \
  template NodeOwnership assign_node_owners<D>(const Forest<D>&,      \
                                               const NodeNumbering&); \
  template NodeOwnership assign_node_owners<D>(                       \
      const Forest<D>&, const NodeNumbering&, SimComm&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
