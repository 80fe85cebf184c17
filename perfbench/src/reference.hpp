// The benchmark's reference kernel: a fixed piece of allocation- and
// memory-heavy work, owned by the benchmark and independent of src/, timed
// beside every round and construction. The host this benchmark runs on
// slows down by up to half for seconds or minutes at a time (other tenants
// share its caches and memory); the simulator and this kernel slow down
// together, so a round time scaled by the kernel's speed is steady while
// a change to the simulator still moves it in full.
#pragma once

namespace perfbench {

/// Wall ms the kernel takes at the reference speed (its typical time on
/// the 4-vCPU VM the benchmark was tuned on). Calibrated times read as
/// wall ms on that machine.
inline constexpr double kReferenceMs = 2.0;

/// Runs the kernel once; returns its wall time in ms.
double reference_ms();

/// `raw_ms` measured while the kernel took `ref_ms`, scaled to the
/// reference speed.
inline double calibrated(double raw_ms, double ref_ms) {
  return ref_ms > 0.0 ? raw_ms * kReferenceMs / ref_ms : raw_ms;
}

}  // namespace perfbench
