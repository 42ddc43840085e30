/**
 * @file
 * Shared declarations of the repository benchmark's driver: the probe
 * inputs a workload hands to the per-layer probes, and the clock the
 * driver stamps everything with.
 */

#ifndef DOSA_PERFBENCH_DRIVER_HH
#define DOSA_PERFBENCH_DRIVER_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "util/json.hh"
#include "workload/layer.hh"

namespace perfbench {

/** Seconds on the steady clock (CLOCK_MONOTONIC on Linux, the clock
 *  Python's time.monotonic reads, so run.py can measure process
 *  start to first dispatch across the exec boundary). */
inline double
nowS()
{
    return std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch()).count();
}

/**
 * What a workload hands the probes: its own networks and a trace it
 * recorded, so every probe times a public call on inputs of the same
 * shape the workload just ran.
 */
struct ProbeInputs
{
    /** The workload's networks (unique layers with repeat counts). */
    std::vector<std::vector<dosa::Layer>> nets;
    /** A recorded trace of the workload, streamed by the wire probe. */
    std::vector<double> trace;
    uint64_t seed = 1;
};

/**
 * Time one public call per layer the benchmark reports on. Returns an
 * object of probe name -> value (units are in the names: `_ms`,
 * `_us`, `_ns`).
 */
dosa::json::Value runProbes(const ProbeInputs &in);

} // namespace perfbench

#endif // DOSA_PERFBENCH_DRIVER_HH
