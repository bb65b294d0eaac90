// Clock-rate calibration for the end-to-end times.
//
// The benchmark runs on shared virtual machines whose effective clock rate
// drifts by up to a third over minutes (other guests, frequency scaling),
// longer than one run, so even the fastest repetition of an operation
// differs that much between runs. A fixed chain of dependent multiplies
// runs at the rate the host gives the guest's CPU and touches no memory:
// timed before every operation, its fastest pass tells how fast the host
// ran when the operations ran at their fastest. Dividing a host time by it
// and multiplying by the chain's time at a fixed reference speed gives
// seconds at that reference speed. On one host over four minutes of drift
// this cut the run-to-run spread of `verify` from 9% to 2%.
//
// Only workloads whose time follows the clock are scaled: where state
// outgrows the caches, time follows memory latency, which the chain does
// not see (Workload::clock_bound).
#pragma once

namespace perfbench {

/// Host seconds one pass of the calibration chain takes now.
double calibration_seconds();

/// The chain's time at the reference speed: its fastest pass on a
/// 4-vCPU KVM guest (Xeon, GCC 12, Release). Fixed, so scaled times of
/// two commits compare directly.
inline constexpr double kReferenceCalibrationSeconds = 0.0015;

}  // namespace perfbench
