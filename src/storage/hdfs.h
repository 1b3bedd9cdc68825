// Simulated HDFS: a durable key -> bytes store living *outside* the
// simulated nodes (it survives container failures, like the real HDFS the
// paper checkpoints to). Reads and writes are charged to the calling
// node's simulated clock via the cluster cost model, and counted in
// Metrics ("hdfs.bytes_read"/"hdfs.bytes_written").

#ifndef PSGRAPH_STORAGE_HDFS_H_
#define PSGRAPH_STORAGE_HDFS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "sim/cluster.h"

namespace psgraph::storage {

class Hdfs {
 public:
  /// I/O is charged to `cluster`'s clocks and counted in its metrics.
  explicit Hdfs(sim::SimCluster* cluster) : cluster_(cluster) {}

  /// Creates or overwrites `path` with `bytes`. The write is charged as a
  /// sequential disk write plus one network transfer on `node`'s clock.
  Status Write(const std::string& path, std::vector<uint8_t> bytes,
               sim::NodeId node = -1);
  Status WriteString(const std::string& path, const std::string& text,
                     sim::NodeId node = -1) {
    return Write(path,
                 std::vector<uint8_t>(text.begin(), text.end()), node);
  }

  Result<std::vector<uint8_t>> Read(const std::string& path,
                                    sim::NodeId node = -1);
  Result<std::string> ReadString(const std::string& path,
                                 sim::NodeId node = -1);

  bool Exists(const std::string& path) const;
  Result<uint64_t> FileSize(const std::string& path) const;
  /// Removes `path`. Charged as one metadata round-trip (disk seek +
  /// network latency) on `node`'s clock; counted in
  /// "hdfs.files_deleted".
  Status Delete(const std::string& path, sim::NodeId node = -1);
  /// Atomic rename; fails with NotFound if `from` does not exist.
  Status Rename(const std::string& from, const std::string& to);
  /// All paths with the given prefix, sorted. Charged as one metadata
  /// round-trip plus the transfer of the returned path names; counted in
  /// "hdfs.lists" / "hdfs.files_listed".
  std::vector<std::string> List(const std::string& prefix,
                                sim::NodeId node = -1) const;

 private:
  void ChargeIo(sim::NodeId node, uint64_t bytes, bool write) const;
  /// Namenode metadata operation: one disk seek plus a small network
  /// round-trip carrying `bytes` of path/listing payload.
  void ChargeMetadataOp(sim::NodeId node, uint64_t bytes) const;
  Metrics& metrics() const { return cluster_->metrics(); }

  sim::SimCluster* cluster_;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<uint8_t>> files_;
};

}  // namespace psgraph::storage

#endif  // PSGRAPH_STORAGE_HDFS_H_
