#include "storage/hdfs.h"

#include "common/metrics.h"

namespace psgraph::storage {

Status Hdfs::Write(const std::string& path, std::vector<uint8_t> bytes,
                   sim::NodeId node) {
  ChargeIo(node, bytes.size(), /*write=*/true);
  metrics().Add("hdfs.bytes_written", bytes.size());
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = std::move(bytes);
  return Status::OK();
}

Result<std::vector<uint8_t>> Hdfs::Read(const std::string& path,
                                        sim::NodeId node) {
  std::vector<uint8_t> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) {
      return Status::NotFound("hdfs: no such file: " + path);
    }
    out = it->second;
  }
  ChargeIo(node, out.size(), /*write=*/false);
  metrics().Add("hdfs.bytes_read", out.size());
  return out;
}

Result<std::string> Hdfs::ReadString(const std::string& path,
                                     sim::NodeId node) {
  PSG_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, Read(path, node));
  return std::string(bytes.begin(), bytes.end());
}

bool Hdfs::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Result<uint64_t> Hdfs::FileSize(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("hdfs: no such file: " + path);
  }
  return static_cast<uint64_t>(it->second.size());
}

Status Hdfs::Delete(const std::string& path, sim::NodeId node) {
  ChargeMetadataOp(node, path.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("hdfs: no such file: " + path);
  }
  metrics().Add("hdfs.files_deleted", 1);
  return Status::OK();
}

Status Hdfs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return Status::NotFound("hdfs: no such file: " + from);
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

std::vector<std::string> Hdfs::List(const std::string& prefix,
                                    sim::NodeId node) const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      out.push_back(it->first);
    }
  }
  uint64_t listing_bytes = prefix.size();
  for (const std::string& p : out) listing_bytes += p.size();
  ChargeMetadataOp(node, listing_bytes);
  metrics().Add("hdfs.lists", 1);
  metrics().Add("hdfs.files_listed", out.size());
  return out;
}

void Hdfs::ChargeIo(sim::NodeId node, uint64_t bytes, bool write) const {
  if (node < 0) return;
  const auto& cost = cluster_->cost();
  double t = write ? cost.DiskWriteTime(bytes) : cost.DiskReadTime(bytes);
  // HDFS is remote storage: the transfer also crosses the network.
  t += cost.NetworkTime(bytes);
  cluster_->clock().Advance(node, t);
}

void Hdfs::ChargeMetadataOp(sim::NodeId node, uint64_t bytes) const {
  if (node < 0) return;
  const auto& cost = cluster_->cost();
  // One namenode seek plus a round-trip carrying the path/listing text.
  cluster_->clock().Advance(node, cost.DiskReadTime(0) +
                                      cost.NetworkTime(bytes));
}

}  // namespace psgraph::storage
