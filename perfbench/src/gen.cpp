#include "gen.hpp"

#include <algorithm>

#include "bench_suite/scales.hpp"
#include "common.hpp"

namespace psbench {

std::vector<std::vector<DagItem>> make_stream_dag(std::uint64_t seed,
                                                  const StreamDagConfig& cfg) {
  Rng rng(seed);
  std::vector<std::vector<DagItem>> waves(
      static_cast<std::size_t>(cfg.waves));
  for (auto& wave : waves) {
    wave.reserve(static_cast<std::size_t>(cfg.wave_ops));
    for (int i = 0; i < cfg.wave_ops; ++i) {
      DagItem it;
      it.stream = static_cast<sim::StreamId>(rng.below(cfg.streams));
      const auto dev = static_cast<sim::DeviceId>(it.stream % cfg.devices);
      const double u = rng.uniform();
      if (u < 0.55) {
        it.kind = sim::OpKind::Kernel;
        it.work = rng.uniform(5.0, 16.0);
        it.sm_demand = 1 + rng.below(4);
        it.occupancy = rng.uniform(0.5, 1.0);
        it.bw_need = rng.uniform() < 0.2 ? 50.0 : 0.0;
      } else if (u < 0.67) {
        it.kind = sim::OpKind::CopyH2D;
        it.work = rng.uniform(1e4, 1.7e4);
      } else if (u < 0.79) {
        it.kind = sim::OpKind::CopyD2H;
        it.work = rng.uniform(1e4, 1.7e4);
      } else if (u < 0.90 && cfg.devices > 1) {
        it.kind = sim::OpKind::CopyP2P;
        it.peer = static_cast<sim::DeviceId>(
            (dev + 1 + rng.below(cfg.devices - 1)) % cfg.devices);
        it.work = rng.uniform(1e4, 1.7e4);
      } else {
        it.kind = sim::OpKind::Fault;
        it.work = rng.uniform(5e3, 1e4);
      }
      // A cross-stream edge on one op in eight, once the wave has a few
      // dozen ops in flight to depend on.
      if (i > 32 && rng.below(8) == 0) {
        const int other = (it.stream + 1 + rng.below(cfg.streams - 1)) %
                          cfg.streams;
        it.wait_on = static_cast<sim::StreamId>(other);
      }
      wave.push_back(it);
    }
  }
  return waves;
}

std::vector<PaperPick> paper_picks(std::uint64_t seed,
                                   const sim::DeviceSpec& spec) {
  Rng rng(seed ^ 0x70617065725F7375ull);
  static constexpr int kBlocks[] = {128, 256, 512};
  std::vector<PaperPick> picks;
  for (const benchsuite::BenchId id : benchsuite::all_benchmarks()) {
    const std::vector<long> fitting = benchsuite::fitting_scales(id, spec);
    PaperPick p;
    p.id = id;
    const long base = fitting.empty() ? 1000 : fitting.front();
    p.scale = std::max<long>(
        1, static_cast<long>(static_cast<double>(base) *
                             rng.uniform(0.9, 1.1)));
    p.block_size = kBlocks[rng.below(3)];
    picks.push_back(p);
  }
  return picks;
}

TenantMixInputs make_tenant_mix_inputs(std::uint64_t seed, int requests,
                                       double period_us, double jitter_us,
                                       int batch_tenants, int rounds,
                                       int kernels_lo, int kernels_hi) {
  Rng rng(seed ^ 0x74656E616E745F6Dull);
  TenantMixInputs in;
  in.request_due_us.reserve(static_cast<std::size_t>(requests));
  for (int k = 0; k < requests; ++k) {
    in.request_due_us.push_back(period_us * (k + 1) +
                                rng.uniform(-jitter_us, jitter_us));
  }
  in.round_kernels.resize(static_cast<std::size_t>(batch_tenants));
  for (auto& rs : in.round_kernels) {
    rs.reserve(static_cast<std::size_t>(rounds));
    for (int r = 0; r < rounds; ++r) {
      rs.push_back(kernels_lo + rng.below(kernels_hi - kernels_lo + 1));
    }
  }
  return in;
}

}  // namespace psbench
