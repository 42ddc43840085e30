/**
 * @file
 * CoSA-substitute constructive mapper.
 *
 * The paper uses CoSA (a Gurobi mixed-integer program) to seed gradient
 * descent and as a strong constant-mapper baseline. This substitute is
 * a deterministic greedy constructor pursuing the same objectives CoSA
 * encodes: maximize spatial utilization of the PE array, then maximize
 * buffer utilization (biggest tiles that fit) with weight/input reuse
 * ordering. It requires no solver and produces valid mappings for any
 * layer/hardware pair. README.md's substitutes table lists it with the
 * reproduction's other stand-ins.
 */

#ifndef DOSA_SEARCH_COSA_MAPPER_HH
#define DOSA_SEARCH_COSA_MAPPER_HH

#include "arch/hardware_config.hh"
#include "mapping/mapping.hh"
#include "workload/layer.hh"

namespace dosa {

/**
 * Construct a performant valid mapping of `layer` onto `hw`.
 * The result is complete, positive and fits the hardware.
 */
Mapping cosaMap(const Layer &layer, const HardwareConfig &hw);

} // namespace dosa

#endif // DOSA_SEARCH_COSA_MAPPER_HH
