#include "cluster/cluster.hpp"

namespace vrmr::cluster {

Cluster::Cluster(sim::Engine& engine, ClusterConfig config)
    : engine_(&engine), config_(std::move(config)) {
  config_.validate();
  fabric_ = std::make_unique<net::Fabric>(engine, config_.hw.fabric, config_.num_nodes);

  const int gpus = config_.total_gpus();
  gpus_.reserve(static_cast<size_t>(gpus));
  gpu_streams_.reserve(static_cast<size_t>(gpus));
  for (int g = 0; g < gpus; ++g) {
    gpus_.push_back(std::make_unique<gpusim::Device>(g, config_.hw.gpu));
    gpu_streams_.push_back(
        std::make_unique<sim::Resource>(engine, "gpu[" + std::to_string(g) + "]"));
  }

  disks_.reserve(static_cast<size_t>(config_.num_nodes));
  pcie_.reserve(static_cast<size_t>(config_.num_nodes));
  cpus_.reserve(static_cast<size_t>(config_.num_nodes));
  for (int n = 0; n < config_.num_nodes; ++n) {
    disks_.push_back(std::make_unique<io::VirtualDisk>(engine, config_.hw.disk,
                                                       "disk[" + std::to_string(n) + "]"));
    pcie_.push_back(
        std::make_unique<sim::Resource>(engine, "pcie[" + std::to_string(n) + "]"));
    cpus_.push_back(std::make_unique<sim::ResourcePool>(
        engine, "cpu[" + std::to_string(n) + "]", config_.hw.cpu.cores));
  }
}

double Cluster::total_gpu_busy() const {
  double t = 0.0;
  for (const auto& r : gpu_streams_) t += r->busy_time();
  return t;
}

double Cluster::total_pcie_busy() const {
  double t = 0.0;
  for (const auto& r : pcie_) t += r->busy_time();
  return t;
}

double Cluster::total_nic_busy() const {
  double t = 0.0;
  for (int n = 0; n < config_.num_nodes; ++n) t += fabric_->tx(n).busy_time();
  return t;
}

double Cluster::total_disk_busy() const {
  double t = 0.0;
  for (const auto& d : disks_) t += d->resource().busy_time();
  return t;
}

}  // namespace vrmr::cluster
