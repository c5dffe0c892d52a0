#pragma once

#include <filesystem>

#include "partition/dist_graph.hpp"

namespace sg::partition {

/// On-disk partition store — the production workflow the paper
/// describes (Section IV footnote): "graphs can be partitioned once,
/// and in-memory representations of the partitions can be written to
/// disk. Applications can then load these partitions directly."
///
/// Layout under `dir`:
///   manifest.sgp   - global metadata (policy, device count, sizes,
///                    CVC grid, master directory)
///   part_<d>.sgp   - one LocalGraph per device, written verbatim
///
/// Loading reconstructs a DistGraph bit-identical to the one stored
/// (including partition statistics), so a loaded partition can be used
/// with the communication substrate and executors directly. A part whose
/// local numbering is not masters then mirrors, each strictly ascending
/// by global id and below the manifest's vertex count, is refused with a
/// std::runtime_error naming the file, checksum or not.
void save_partition(const DistGraph& dg, const std::filesystem::path& dir);

[[nodiscard]] DistGraph load_partition(const std::filesystem::path& dir);

/// Re-reads one device's part file (checksum-verified, and checked like
/// load_partition against the manifest). The fault layer's elastic
/// redistribution uses this to recover a lost device's subgraph from
/// durable storage without reloading the other parts.
[[nodiscard]] LocalGraph load_partition_part(const std::filesystem::path& dir,
                                             int device);

}  // namespace sg::partition
