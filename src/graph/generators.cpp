#include "graph/generators.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/zipf.hpp"
#include "sim/rng.hpp"

namespace sg::graph {

Csr rmat(const RmatParams& p) {
  if (p.scale < 1 || p.scale > 28) {
    throw std::invalid_argument("rmat: scale out of range");
  }
  const VertexId n = VertexId{1} << p.scale;
  const EdgeId m = static_cast<EdgeId>(p.edge_factor) * n;
  const double d = 1.0 - p.a - p.b - p.c;
  if (d < 0) throw std::invalid_argument("rmat: a+b+c > 1");

  sim::Rng rng{p.seed};
  std::vector<Edge> edges;
  edges.reserve(m);
  for (EdgeId e = 0; e < m; ++e) {
    VertexId src = 0, dst = 0;
    for (int level = 0; level < p.scale; ++level) {
      // Noise keeps the generated graph from being exactly self-similar.
      const double noise = 0.9 + 0.2 * rng.uniform();
      const double a = p.a * noise, b = p.b * noise, c = p.c * noise;
      const double total = a + b + c + d * noise;
      const double x = rng.uniform() * total;
      const VertexId bit = VertexId{1} << (p.scale - 1 - level);
      if (x < a) {
        // top-left: nothing
      } else if (x < a + b) {
        dst |= bit;
      } else if (x < a + b + c) {
        src |= bit;
      } else {
        src |= bit;
        dst |= bit;
      }
    }
    if (src != dst) edges.push_back(Edge{src, dst});
  }
  return build_csr(std::move(edges), n);
}

Csr synthetic(const SyntheticSpec& spec) {
  if (spec.vertices < 4) {
    throw std::invalid_argument("synthetic: need >= 4 vertices");
  }
  if (spec.tail_length >= spec.vertices / 2) {
    throw std::invalid_argument("synthetic: tail too long");
  }
  sim::Rng rng{spec.seed};
  const VertexId n = spec.vertices;
  const VertexId core = n - spec.tail_length;
  const std::uint32_t ncomm = std::max<std::uint32_t>(1, spec.communities);
  const VertexId comm_size = std::max<VertexId>(2, core / ncomm);

  std::vector<Edge> edges;
  // Symmetric graphs add the reverse of every bulk edge; the spine,
  // bridges and tail add at most 4n more.
  edges.reserve((spec.symmetric ? 2 : 1) * spec.edges + 4ull * n);

  auto community_of = [&](VertexId v) -> std::uint32_t {
    return std::min<std::uint32_t>(v / comm_size, ncomm - 1);
  };
  auto community_range = [&](std::uint32_t c) -> std::pair<VertexId, VertexId> {
    const VertexId lo = c * comm_size;
    const VertexId hi = (c + 1 == ncomm) ? core : (c + 1) * comm_size;
    return {lo, hi};
  };

  // Hub vertices sit mid-community-0 so they are reachable early.
  const VertexId hub_out = 2;
  const VertexId hub_in = 3;
  EdgeId budget = spec.edges;

  // 1. Hub edges.
  const auto hub_out_deg =
      static_cast<EdgeId>(spec.hub_out_frac * static_cast<double>(n));
  const auto hub_in_deg =
      static_cast<EdgeId>(spec.hub_in_frac * static_cast<double>(n));
  for (EdgeId i = 0; i < hub_out_deg && budget > 0; ++i, --budget) {
    const auto dst = static_cast<VertexId>(rng.bounded(core));
    if (dst != hub_out) edges.push_back(Edge{hub_out, dst});
  }
  for (EdgeId i = 0; i < hub_in_deg && budget > 0; ++i, --budget) {
    const auto src = static_cast<VertexId>(rng.bounded(core));
    if (src != hub_in) edges.push_back(Edge{src, hub_in});
  }

  // 2. Connectivity spine: local chain within each community plus one
  //    bidirectional bridge between consecutive communities.
  for (VertexId v = 0; v + 1 < core; ++v) {
    if (community_of(v) == community_of(v + 1)) {
      edges.push_back(Edge{v, v + 1});
      edges.push_back(Edge{v + 1, v});
    }
  }
  for (std::uint32_t c = 0; c + 1 < ncomm; ++c) {
    const auto [lo, hi] = community_range(c);
    const auto [nlo, nhi] = community_range(c + 1);
    const auto a = static_cast<VertexId>(lo + rng.bounded(hi - lo));
    const auto b = static_cast<VertexId>(nlo + rng.bounded(nhi - nlo));
    edges.push_back(Edge{a, b});
    edges.push_back(Edge{b, a});
  }

  // 3. Bulk power-law edges with community locality.
  detail::ZipfSampler out_sampler(comm_size, spec.zipf_out, spec.seed ^ 0xa5a5);
  detail::ZipfSampler in_sampler(comm_size, spec.zipf_in, spec.seed ^ 0x5a5a);
  const EdgeId bulk = budget;
  for (EdgeId i = 0; i < bulk; ++i) {
    const auto c = static_cast<std::uint32_t>(rng.bounded(ncomm));
    const auto [lo, hi] = community_range(c);
    const VertexId width = hi - lo;
    const VertexId src =
        lo + static_cast<VertexId>(out_sampler.sample(rng) % width);
    // 90% local, 10% adjacent community, none further: web-crawl links
    // are overwhelmingly local, which is exactly why large crawls are
    // not small-world and keep a diameter proportional to the
    // community-chain length (Table I's uk/clueweb/wdc rows).
    std::uint32_t dst_comm = c;
    if (ncomm > 1 && rng.uniform() >= 0.90) {
      dst_comm = (c + 1 < ncomm && rng.chance(0.5)) ? c + 1
                 : (c > 0 ? c - 1 : std::min(c + 1, ncomm - 1));
    }
    const auto [dlo, dhi] = community_range(dst_comm);
    const VertexId dwidth = dhi - dlo;
    const VertexId dst =
        dlo + static_cast<VertexId>(in_sampler.sample(rng) % dwidth);
    if (src == dst) continue;
    edges.push_back(Edge{src, dst});
    if (spec.symmetric) edges.push_back(Edge{dst, src});
  }

  // 4. Long tail: a bidirectional path hanging off the last community.
  if (spec.tail_length > 0) {
    VertexId prev = core - 1;
    for (VertexId t = 0; t < spec.tail_length; ++t) {
      const VertexId v = core + t;
      edges.push_back(Edge{prev, v});
      edges.push_back(Edge{v, prev});
      prev = v;
    }
  }

  return build_csr(std::move(edges), n);
}

Csr path_graph(VertexId n, bool bidirectional) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) {
    edges.push_back(Edge{v, v + 1});
    if (bidirectional) edges.push_back(Edge{v + 1, v});
  }
  return build_csr(std::move(edges), n);
}

Csr cycle_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < n; ++v) edges.push_back(Edge{v, (v + 1) % n});
  return build_csr(std::move(edges), n);
}

Csr star_graph(VertexId leaves, bool out) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= leaves; ++v) {
    edges.push_back(out ? Edge{0, v} : Edge{v, 0});
  }
  return build_csr(std::move(edges), leaves + 1);
}

Csr complete_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v) edges.push_back(Edge{u, v});
    }
  }
  return build_csr(std::move(edges), n);
}

Csr grid_graph(VertexId rows, VertexId cols) {
  std::vector<Edge> edges;
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        edges.push_back(Edge{id(r, c), id(r, c + 1)});
        edges.push_back(Edge{id(r, c + 1), id(r, c)});
      }
      if (r + 1 < rows) {
        edges.push_back(Edge{id(r, c), id(r + 1, c)});
        edges.push_back(Edge{id(r + 1, c), id(r, c)});
      }
    }
  }
  return build_csr(std::move(edges), rows * cols);
}

Csr erdos_renyi(VertexId n, double p, std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v && rng.chance(p)) edges.push_back(Edge{u, v});
    }
  }
  return build_csr(std::move(edges), n);
}

}  // namespace sg::graph
