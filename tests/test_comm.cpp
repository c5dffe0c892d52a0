// Communication-substrate unit tests: bitsets, reduction ops, memoized
// sync structures, the wire-size model, and functional reduce/broadcast
// in both AS and UO modes.
#include <gtest/gtest.h>

#include "comm/bitset.hpp"
#include "comm/field_sync.hpp"
#include "comm/reduction.hpp"
#include "comm/sync_structure.hpp"
#include "graph/generators.hpp"
#include "partition/dist_graph.hpp"

namespace sg::comm {
namespace {

using graph::VertexId;
using partition::DistGraph;
using partition::partition_graph;
using partition::Policy;

// ---- Bitset -----------------------------------------------------------------

TEST(BitsetT, SetTestResetClear) {
  Bitset b(130);
  EXPECT_FALSE(b.any());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
  b.clear();
  EXPECT_FALSE(b.any());
  EXPECT_EQ(b.count(), 0u);
}

TEST(BitsetT, WireBytesRoundsUp) {
  EXPECT_EQ(Bitset(8).wire_bytes(), 1u);
  EXPECT_EQ(Bitset(9).wire_bytes(), 2u);
  EXPECT_EQ(Bitset(64).wire_bytes(), 8u);
}

// ---- reduction ops -----------------------------------------------------------

TEST(ReduceOps, MinCombine) {
  std::uint32_t x = 10;
  EXPECT_TRUE(MinOp<std::uint32_t>::combine(x, 5));
  EXPECT_EQ(x, 5u);
  EXPECT_FALSE(MinOp<std::uint32_t>::combine(x, 7));
  EXPECT_EQ(x, 5u);
  EXPECT_FALSE(MinOp<std::uint32_t>::reset_after_extract);
}

TEST(ReduceOps, AddCombineAndReset) {
  float x = 1.0f;
  EXPECT_TRUE(AddOp<float>::combine(x, 2.5f));
  EXPECT_FLOAT_EQ(x, 3.5f);
  EXPECT_FALSE(AddOp<float>::combine(x, 0.0f));
  EXPECT_TRUE(AddOp<float>::reset_after_extract);
  EXPECT_FLOAT_EQ(AddOp<float>::identity(), 0.0f);
}

TEST(ReduceOps, MaxCombine) {
  float x = 1.0f;
  EXPECT_FALSE(MaxOp<float>::combine(x, 0.5f));
  EXPECT_TRUE(MaxOp<float>::combine(x, 2.0f));
  EXPECT_FLOAT_EQ(x, 2.0f);
}

TEST(ReduceOps, AssignCombine) {
  int x = 3;
  EXPECT_FALSE(AssignOp<int>::combine(x, 3));
  EXPECT_TRUE(AssignOp<int>::combine(x, 4));
  EXPECT_EQ(x, 4);
}

// ---- wire size model ----------------------------------------------------------

TEST(WireBytes, AsShipsWholeList) {
  EXPECT_EQ(wire_bytes(100, 100, 4, SyncMode::kAS), 16u + 400u);
  // AS size is independent of how many entries actually changed.
  EXPECT_EQ(wire_bytes(100, 3, 4, SyncMode::kAS), 16u + 400u);
}

TEST(WireBytes, UoShipsChangedPlusCheaperIndex) {
  // Few updates: explicit 4-byte indices win over a 100-bit bitset? No:
  // bitset is 13 bytes, 3 indices are 12 bytes -> indices.
  EXPECT_EQ(wire_bytes(100, 3, 4, SyncMode::kUO), 16u + 12u + 12u);
  // Many updates: the bitset (13 bytes) is cheaper than 50 indices.
  EXPECT_EQ(wire_bytes(100, 50, 4, SyncMode::kUO), 16u + 200u + 13u);
}

TEST(WireBytes, UoEmptyUpdateIsHeaderOnly) {
  EXPECT_EQ(wire_bytes(100, 0, 4, SyncMode::kUO), 16u);
}

TEST(WireBytes, EmptyListIsFree) {
  EXPECT_EQ(wire_bytes(0, 0, 4, SyncMode::kAS), 0u);
  EXPECT_EQ(wire_bytes(0, 0, 4, SyncMode::kUO), 0u);
}

// ---- SyncStructure --------------------------------------------------------------

class SyncStructureTest : public testing::Test {
 protected:
  void SetUp() override {
    graph::SyntheticSpec s;
    s.vertices = 800;
    s.edges = 8000;
    s.zipf_out = 0.7;
    s.zipf_in = 0.8;
    s.seed = 13;
    g_ = graph::synthetic(s);
  }
  graph::Csr g_;
};

TEST_F(SyncStructureTest, ListsPairMirrorsWithTheirMasters) {
  const auto dg = partition_graph(g_, {.policy = Policy::CVC,
                                       .num_devices = 8});
  const SyncStructure sync(dg);
  for (int d = 0; d < 8; ++d) {
    for (int o = 0; o < 8; ++o) {
      const auto& list = sync.list(d, o, ProxyFilter::kAll);
      for (std::uint32_t i = 0; i < list.size(); ++i) {
        const VertexId gid = dg.part(d).l2g[list.mirror_local[i]];
        EXPECT_EQ(dg.master_of(gid), o);
        EXPECT_EQ(dg.part(o).l2g[list.master_local[i]], gid);
        EXPECT_FALSE(dg.part(d).is_master(list.mirror_local[i]));
        EXPECT_TRUE(dg.part(o).is_master(list.master_local[i]));
      }
    }
  }
}

TEST_F(SyncStructureTest, AllListCoversEveryMirror) {
  const auto dg = partition_graph(g_, {.policy = Policy::HVC,
                                       .num_devices = 4});
  const SyncStructure sync(dg);
  for (int d = 0; d < 4; ++d) {
    std::uint64_t listed = 0;
    for (int o = 0; o < 4; ++o) {
      listed += sync.list(d, o, ProxyFilter::kAll).size();
    }
    EXPECT_EQ(listed, dg.part(d).num_mirrors());
  }
}

TEST_F(SyncStructureTest, FiltersPartitionTheMirrors) {
  const auto dg = partition_graph(g_, {.policy = Policy::CVC,
                                       .num_devices = 8});
  const SyncStructure sync(dg);
  for (int d = 0; d < 8; ++d) {
    for (int o = 0; o < 8; ++o) {
      const auto& all = sync.list(d, o, ProxyFilter::kAll);
      const auto& wo = sync.list(d, o, ProxyFilter::kWithOut);
      const auto& wi = sync.list(d, o, ProxyFilter::kWithIn);
      EXPECT_LE(wo.size(), all.size());
      EXPECT_LE(wi.size(), all.size());
      // Every mirror has at least one local edge, so WithOut union
      // WithIn covers kAll (they may overlap).
      EXPECT_GE(wo.size() + wi.size(), all.size());
      EXPECT_EQ(sync.list(d, o, ProxyFilter::kNone).size(), 0u);
    }
  }
}

TEST_F(SyncStructureTest, OecHasNoBroadcastLists) {
  // All out-edges at the master: no mirror carries out-edges, so the
  // push-pattern broadcast (WithOut) is structurally elided.
  const auto dg = partition_graph(g_, {.policy = Policy::OEC,
                                       .num_devices = 8});
  const SyncStructure sync(dg);
  for (int d = 0; d < 8; ++d) {
    for (int o = 0; o < 8; ++o) {
      EXPECT_EQ(sync.list(d, o, ProxyFilter::kWithOut).size(), 0u);
    }
  }
}

TEST_F(SyncStructureTest, CvcListsOnlyOnRowOrColumnPartners) {
  const auto dg = partition_graph(g_, {.policy = Policy::CVC,
                                       .num_devices = 8});
  const SyncStructure sync(dg);
  const auto& grid = dg.grid();
  for (int d = 0; d < 8; ++d) {
    for (int o = 0; o < 8; ++o) {
      if (d == o) continue;
      if (sync.list(d, o, ProxyFilter::kWithOut).size() > 0) {
        EXPECT_EQ(grid.row_of(d), grid.row_of(o));
      }
      if (sync.list(d, o, ProxyFilter::kWithIn).size() > 0) {
        EXPECT_EQ(grid.col_of(d), grid.col_of(o));
      }
    }
  }
}

TEST_F(SyncStructureTest, SharedEntriesCountBothRoles) {
  const auto dg = partition_graph(g_, {.policy = Policy::IEC,
                                       .num_devices = 4});
  const SyncStructure sync(dg);
  for (int d = 0; d < 4; ++d) {
    std::uint64_t manual = 0;
    for (int o = 0; o < 4; ++o) {
      manual += sync.list(d, o, ProxyFilter::kAll).size();
      manual += sync.list(o, d, ProxyFilter::kAll).size();
    }
    EXPECT_EQ(sync.shared_entries(d, ProxyFilter::kAll), manual);
    EXPECT_EQ(sync.metadata_bytes(d), manual * sizeof(VertexId));
  }
}

// ---- FieldSync -------------------------------------------------------------------

class FieldSyncTest : public testing::Test {
 protected:
  // A hand-built exchange list: 4 mirrors on dev 0 (locals 10..13)
  // mapping to masters (locals 0..3) on dev 1.
  ExchangeList list_{{10, 11, 12, 13}, {0, 1, 2, 3}};
  using FS = FieldSync<std::uint32_t, MinOp<std::uint32_t>>;
};

TEST_F(FieldSyncTest, UoExtractShipsOnlyDirtyAndClearsBits) {
  std::vector<std::uint32_t> vals(16, 100);
  vals[11] = 7;
  vals[13] = 9;
  Bitset dirty(16);
  dirty.set(11);
  dirty.set(13);
  auto p = FS::extract_reduce(list_, vals, dirty, SyncMode::kUO, 0, 1);
  ASSERT_EQ(p.count(), 2u);
  EXPECT_EQ(p.positions, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(p.values, (std::vector<std::uint32_t>{7, 9}));
  EXPECT_FALSE(dirty.any());
}

TEST_F(FieldSyncTest, AsExtractShipsEverything) {
  std::vector<std::uint32_t> vals(16, 0);
  for (int i = 0; i < 4; ++i) vals[10 + i] = 50 + i;
  Bitset dirty(16);
  auto p = FS::extract_reduce(list_, vals, dirty, SyncMode::kAS, 0, 1);
  ASSERT_EQ(p.count(), 4u);
  EXPECT_TRUE(p.positions.empty());
  EXPECT_EQ(p.values, (std::vector<std::uint32_t>{50, 51, 52, 53}));
}

TEST_F(FieldSyncTest, ApplyReduceCombinesAndMarksChanged) {
  std::vector<std::uint32_t> master_vals(8, 60);
  Bitset bcast_dirty(8);
  Payload<std::uint32_t> p;
  p.from = 0;
  p.to = 1;
  p.positions = {0, 2};
  p.values = {55, 70};  // 55 improves master 0; 70 does not improve 2
  std::vector<VertexId> changed;
  const auto n = FS::apply_reduce(list_, p, master_vals, bcast_dirty,
                                  &changed);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(master_vals[0], 55u);
  EXPECT_EQ(master_vals[2], 60u);
  EXPECT_EQ(changed, (std::vector<VertexId>{0}));
  EXPECT_TRUE(bcast_dirty.test(0));
  EXPECT_FALSE(bcast_dirty.test(2));
}

TEST_F(FieldSyncTest, BroadcastRoundTripUpdatesMirrors) {
  std::vector<std::uint32_t> master_vals = {5, 6, 7, 8, 0, 0, 0, 0};
  Bitset dirty(8);
  dirty.set(1);
  dirty.set(3);
  auto p = FieldSync<std::uint32_t, MinOp<std::uint32_t>>::extract_broadcast(
      list_, master_vals, dirty, SyncMode::kUO, 1, 0);
  ASSERT_EQ(p.count(), 2u);
  EXPECT_EQ(p.values, (std::vector<std::uint32_t>{6, 8}));
  // Broadcast-extract must not clear the master's dirty bits (other
  // partners still need them).
  EXPECT_TRUE(dirty.test(1));

  std::vector<std::uint32_t> mirror_vals(16, 100);
  std::vector<VertexId> changed;
  FS::apply_broadcast(list_, p, mirror_vals, &changed);
  EXPECT_EQ(mirror_vals[11], 6u);
  EXPECT_EQ(mirror_vals[13], 8u);
  EXPECT_EQ(changed, (std::vector<VertexId>{11, 13}));
}

TEST_F(FieldSyncTest, AccumulatorResetsAfterExtract) {
  using AddFS = FieldSync<float, AddOp<float>>;
  std::vector<float> vals(16, 0.0f);
  vals[10] = 1.5f;
  vals[12] = 2.5f;
  Bitset dirty(16);
  dirty.set(10);
  dirty.set(12);
  auto p = AddFS::extract_reduce(list_, vals, dirty, SyncMode::kUO, 0, 1);
  EXPECT_EQ(p.count(), 2u);
  EXPECT_FLOAT_EQ(vals[10], 0.0f);  // reset so it is not re-sent
  EXPECT_FLOAT_EQ(vals[12], 0.0f);

  std::vector<float> master_vals(8, 1.0f);
  Bitset bd(8);
  AddFS::apply_reduce(list_, p, master_vals, bd, nullptr);
  EXPECT_FLOAT_EQ(master_vals[0], 2.5f);
  EXPECT_FLOAT_EQ(master_vals[2], 3.5f);
}

TEST_F(FieldSyncTest, UoAndAsConvergeToSameMasterValues) {
  std::vector<std::uint32_t> mirrors_a(16), mirrors_b(16);
  for (int i = 0; i < 16; ++i) mirrors_a[i] = mirrors_b[i] = 90 + i;
  Bitset dirty_a(16), dirty_b(16);
  dirty_a.set(10);
  dirty_a.set(12);  // only some marked in UO
  auto pa = FS::extract_reduce(list_, mirrors_a, dirty_a, SyncMode::kUO, 0, 1);
  auto pb = FS::extract_reduce(list_, mirrors_b, dirty_b, SyncMode::kAS, 0, 1);

  std::vector<std::uint32_t> masters_a(8, 1000), masters_b(8, 1000);
  Bitset bda(8), bdb(8);
  FS::apply_reduce(list_, pa, masters_a, bda, nullptr);
  FS::apply_reduce(list_, pb, masters_b, bdb, nullptr);
  // AS ships everything; UO shipped only dirty entries, but for min
  // reduction the merged result at dirty slots matches.
  EXPECT_EQ(masters_a[0], masters_b[0]);
  EXPECT_EQ(masters_a[2], masters_b[2]);
  // UO is strictly smaller on the wire here.
  EXPECT_LT(pa.bytes, pb.bytes);
}

// ---- wire protocol: checksums, sealing, deterministic corruption ------------

Payload<std::uint32_t> sample_payload() {
  Payload<std::uint32_t> p;
  p.from = 0;
  p.to = 1;
  p.positions = {3, 7, 12};
  p.values = {10, 20, 30};
  return p;
}

TEST(Wire, ChecksumDetectsValueAndPositionChanges) {
  auto p = sample_payload();
  const std::uint64_t base = payload_checksum(p);
  EXPECT_NE(base, 0u);
  EXPECT_EQ(payload_checksum(p), base);  // pure function of the content

  auto v = p;
  v.values[1] ^= 1u;  // single-bit value flip
  EXPECT_NE(payload_checksum(v), base);

  auto q = p;
  q.positions[0] = 4;  // position flip changes the hash too
  EXPECT_NE(payload_checksum(q), base);

  // Swapping two (position, value) pairs changes the byte order even
  // though the multiset of entries is identical — FNV-1a is order
  // sensitive, which is what pins the exchange-list layout.
  auto s = p;
  std::swap(s.values[0], s.values[2]);
  std::swap(s.positions[0], s.positions[2]);
  EXPECT_NE(payload_checksum(s), base);
}

TEST(Wire, VerifySkipsUnsealedAndElidedChecksums) {
  auto p = sample_payload();
  EXPECT_FALSE(p.header.sealed());
  EXPECT_TRUE(verify_payload(p));  // protocol off: trivially fine

  p.header.version = kWireVersion;
  EXPECT_TRUE(p.header.sealed());
  EXPECT_TRUE(verify_payload(p));  // sealed, checksum elided (0)

  p.header.checksum = payload_checksum(p);
  EXPECT_TRUE(verify_payload(p));
  p.values[2] += 1;
  EXPECT_FALSE(verify_payload(p));
}

TEST(Wire, CorruptPayloadIsDeterministicSingleBit) {
  const auto pristine = sample_payload();
  auto a = pristine;
  auto b = pristine;
  corrupt_payload(a, 0xdeadbeefULL);
  corrupt_payload(b, 0xdeadbeefULL);
  EXPECT_EQ(a.values, b.values);  // same hash -> same flip
  EXPECT_EQ(a.positions, pristine.positions);  // values only

  // Exactly one value differs from pristine, by exactly one bit.
  int changed = 0;
  std::uint32_t diff = 0;
  for (std::size_t i = 0; i < pristine.values.size(); ++i) {
    if (a.values[i] != pristine.values[i]) {
      ++changed;
      diff = a.values[i] ^ pristine.values[i];
    }
  }
  EXPECT_EQ(changed, 1);
  EXPECT_EQ(diff & (diff - 1), 0u);  // power of two: a single bit
  EXPECT_NE(diff, 0u);

  // A different hash picks a different flip (for this fixture).
  auto c = pristine;
  corrupt_payload(c, 0x1234567ULL);
  EXPECT_NE(c.values, a.values);

  // And the checksum catches the corruption.
  auto sealed = pristine;
  sealed.header.version = kWireVersion;
  sealed.header.checksum = payload_checksum(sealed);
  corrupt_payload(sealed, 0xdeadbeefULL);
  EXPECT_FALSE(verify_payload(sealed));
}

TEST(Wire, CorruptPayloadNoOpOnEmpty) {
  Payload<float> p;
  p.header.version = kWireVersion;
  corrupt_payload(p, 0xabcdefULL);  // must not touch empty values
  EXPECT_TRUE(p.values.empty());
  EXPECT_TRUE(verify_payload(p));
}

TEST(Wire, ChecksumChainsAcrossPositionsAndValues) {
  // positions and values are hashed as one chained FNV-1a stream, and
  // the chain is order sensitive — hashing "b" seeded with hash("a")
  // equals hashing "ab" in one pass, and permuting bytes changes it.
  Payload<std::uint8_t> a;
  a.positions = {1};
  a.values = {2, 3};
  Payload<std::uint8_t> b;
  b.positions = {1};
  b.values = {3, 2};
  EXPECT_NE(payload_checksum(a), payload_checksum(b));
  EXPECT_NE(fnv1a("ab", 2), fnv1a("ba", 2));
  EXPECT_EQ(fnv1a("ab", 2), fnv1a("b", 1, fnv1a("a", 1)));
}

}  // namespace
}  // namespace sg::comm
