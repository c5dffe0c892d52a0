#include "comm/sync_structure.hpp"

#include <stdexcept>

namespace sg::comm {

using graph::VertexId;
using partition::LocalGraph;

SyncStructure::SyncStructure(const partition::DistGraph& dg)
    : num_devices_(dg.num_devices()) {
  const auto slots =
      static_cast<std::size_t>(num_devices_) * num_devices_;
  with_out_.resize(slots);
  with_in_.resize(slots);
  all_.resize(slots);

  // Masters are numbered in global-id order on their owner, so a
  // master's local id is its rank among that owner's masters.
  const std::vector<int>& master_of = dg.master_directory();
  std::vector<VertexId> rank(master_of.size());
  std::vector<VertexId> next(static_cast<std::size_t>(num_devices_), 0);
  for (std::size_t gid = 0; gid < master_of.size(); ++gid) {
    rank[gid] = next[static_cast<std::size_t>(master_of[gid])]++;
  }

  for (int d = 0; d < num_devices_; ++d) {
    const LocalGraph& lg = dg.part(d);
    for (VertexId m = lg.num_masters; m < lg.num_local; ++m) {
      const VertexId gid = lg.l2g[m];
      const int owner = master_of[gid];
      const LocalGraph& master_part = dg.part(owner);
      const VertexId master_local = rank[gid];
      if (master_local >= master_part.num_masters ||
          master_part.l2g[master_local] != gid) {
        throw std::logic_error(
            "SyncStructure: master proxy missing on owner device");
      }
      const std::size_t s = slot(d, owner);
      all_[s].mirror_local.push_back(m);
      all_[s].master_local.push_back(master_local);
      if (lg.has_out(m)) {
        with_out_[s].mirror_local.push_back(m);
        with_out_[s].master_local.push_back(master_local);
      }
      if (lg.has_in(m)) {
        with_in_[s].mirror_local.push_back(m);
        with_in_[s].master_local.push_back(master_local);
      }
    }
  }
}

const ExchangeList& SyncStructure::list(int mirror_dev, int master_dev,
                                        ProxyFilter filter) const {
  switch (filter) {
    case ProxyFilter::kNone: return empty_;
    case ProxyFilter::kWithOut: return with_out_[slot(mirror_dev, master_dev)];
    case ProxyFilter::kWithIn: return with_in_[slot(mirror_dev, master_dev)];
    case ProxyFilter::kAll: return all_[slot(mirror_dev, master_dev)];
  }
  return empty_;
}

std::uint64_t SyncStructure::shared_entries(int dev,
                                            ProxyFilter filter) const {
  std::uint64_t total = 0;
  for (int o = 0; o < num_devices_; ++o) {
    total += list(dev, o, filter).size();   // dev as mirror side
    total += list(o, dev, filter).size();   // dev as master side
  }
  return total;
}

std::uint64_t SyncStructure::total_mirrors() const {
  std::uint64_t total = 0;
  for (const ExchangeList& l : all_) total += l.size();
  return total;
}

double SyncStructure::replication_factor(
    const partition::DistGraph& dg) const {
  std::uint64_t masters = 0;
  for (int d = 0; d < num_devices_; ++d) {
    masters += dg.part(d).num_masters;
  }
  if (masters == 0) return 0.0;
  return static_cast<double>(masters + total_mirrors()) /
         static_cast<double>(masters);
}

std::uint64_t SyncStructure::metadata_bytes(int dev) const {
  std::uint64_t entries = 0;
  for (int o = 0; o < num_devices_; ++o) {
    entries += all_[slot(dev, o)].size();  // mirror-side index list
    entries += all_[slot(o, dev)].size();  // master-side index list
  }
  return entries * sizeof(VertexId);
}

}  // namespace sg::comm
