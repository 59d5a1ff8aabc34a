#ifndef OE_SIM_PRICING_H_
#define OE_SIM_PRICING_H_

#include <cstdint>
#include <string>

namespace oe::sim {

/// Cloud pricing model for the parameter-server tier (Table V). Prices are
/// the paper's Alibaba Cloud "Pay-As-You-Go" figures.
struct InstanceSpec {
  std::string type;
  double dollars_per_hour = 0;
  uint64_t dram_gb = 0;
  uint64_t pmem_gb = 0;
};

/// ecs.r6e.13xlarge: 52 cores, 384 GB DRAM.
inline InstanceSpec DramServerSpec() {
  // Table V: two of these cost $6.07/h -> $3.035 each.
  return {"ecs.r6e.13xlarge", 6.07 / 2.0, 384, 0};
}

/// ecs.re6p.13xlarge: 52 cores, 192 GB DRAM + 756 GB PMem.
inline InstanceSpec PmemServerSpec() {
  return {"ecs.re6p.13xlarge", 3.80, 192, 756};
}

struct PsDeployment {
  InstanceSpec instance;
  int machines = 1;

  double DollarsPerHour() const {
    return instance.dollars_per_hour * machines;
  }
  double DollarsPerEpoch(double epoch_hours) const {
    return DollarsPerHour() * epoch_hours;
  }
};

/// Machines needed to hold `model_gb` of embeddings on DRAM servers
/// (DRAM-PS needs the whole model resident).
inline int DramMachinesFor(uint64_t model_gb) {
  const auto spec = DramServerSpec();
  return static_cast<int>((model_gb + spec.dram_gb - 1) / spec.dram_gb);
}

/// Machines needed on PMem servers (model lives in PMem).
inline int PmemMachinesFor(uint64_t model_gb) {
  const auto spec = PmemServerSpec();
  return static_cast<int>((model_gb + spec.pmem_gb - 1) / spec.pmem_gb);
}

}  // namespace oe::sim

#endif  // OE_SIM_PRICING_H_
