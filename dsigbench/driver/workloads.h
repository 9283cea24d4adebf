// The benchmark's workloads. Each fills every metric of the report it can
// measure (both modes; run.py keeps the mode's set), plus attempted/failed
// counts, the oracle verdict and the run environment.
#ifndef DSIGBENCH_DRIVER_WORKLOADS_H_
#define DSIGBENCH_DRIVER_WORKLOADS_H_

#include "driver/common.h"

namespace dsigbench {

// paged_cold and hot_labels: the library in-process, closed loop.
void RunInproc(const Args& args, RunOutcome* out);

// serve_mixed: the dsig_serve binary over loopback, open loop.
void RunServe(const Args& args, RunOutcome* out);

}  // namespace dsigbench

#endif  // DSIGBENCH_DRIVER_WORKLOADS_H_
