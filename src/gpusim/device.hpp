/// \file device.hpp
/// The simulated GPU: grid-level task distribution over blocks/SMs.
///
/// Launch() takes a flat list of warp tasks (for GAMMA: one per updated
/// edge), statically grid-strides them over blocks, executes every block
/// to completion (blocks are independent, so host threads may run them in
/// parallel without affecting the simulated result), and reports the
/// kernel makespan as the maximum block finish time — all resident blocks
/// start together, which models a grid that fits the device in one wave.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/block.hpp"
#include "gpusim/device_allocator.hpp"
#include "gpusim/device_config.hpp"
#include "gpusim/warp_task.hpp"

namespace bdsm {

class Device {
 public:
  explicit Device(DeviceConfig cfg = {}, uint32_t host_threads = 0);

  const DeviceConfig& config() const { return cfg_; }
  DeviceAllocator& allocator() { return allocator_; }

  /// Executes the tasks as one kernel launch and returns its statistics.
  /// Deterministic for a given (cfg, tasks) regardless of host threads.
  DeviceStats Launch(std::vector<std::unique_ptr<WarpTask>> tasks);

 private:
  DeviceConfig cfg_;
  DeviceAllocator allocator_;
  uint32_t host_threads_;
};

}  // namespace bdsm
