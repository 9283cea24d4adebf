// SIMD dispatch gauges (util/simd/simd.h).
//
//   simd.dispatch_level — the active simd::SimdLevel as its integer enum
//                         value (0 scalar, 1 sse2)
//   simd.detected_level — the best level the build compiled, before any
//                         DSIG_FORCE_SCALAR override
//
// Recording both makes a forced-scalar run self-describing: a stats dump or
// serve report where dispatch_level < detected_level was pinned on purpose.
#ifndef DSIG_OBS_SIMD_METRICS_H_
#define DSIG_OBS_SIMD_METRICS_H_

namespace dsig::obs {

// Refreshes the simd.* gauges from the dispatcher's current state; cheap
// and idempotent, call before exporting metrics.
void PublishSimdMetrics();

}  // namespace dsig::obs

#endif  // DSIG_OBS_SIMD_METRICS_H_
