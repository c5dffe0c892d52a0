#include "serve/cache.hpp"

namespace sg::serve {

void ResultCache::invalidate_stale(std::uint64_t current_epoch) {
  hop.sweep(current_epoch);
  sssp.sweep(current_epoch);
  ppr.sweep(current_epoch);
}

void ResultCache::extract_tenant(std::uint32_t owner,
                                 partition::ByteWriter& w) {
  w(owner);
  hop.archive(owner, w);
  sssp.archive(owner, w);
  ppr.archive(owner, w);
}

void ResultCache::absorb(partition::ByteReader& r) {
  std::uint32_t owner = 0;
  r(owner);
  hop.replay(owner, r);
  sssp.replay(owner, r);
  ppr.replay(owner, r);
  // Migrated entries honor this cache's budget, not the source's.
  trim(hop);
  trim(sssp);
  trim(ppr);
}

ResultCache::Stats ResultCache::stats() const {
  Stats s = hop.stats();
  s += sssp.stats();
  s += ppr.stats();
  return s;
}

}  // namespace sg::serve
