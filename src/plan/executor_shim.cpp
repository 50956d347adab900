// Plan-driven executor construction.
//
// The constructors are *declared* on bulk::HostBulkExecutor /
// bulk::StreamingExecutor (so executors "accept an ExecutionPlan" at the
// call site) but *defined* here, in the plan library: bulk/ sits below
// plan/ in the layering and must not link upward.  Any binary using these
// constructors links obx_plan (obx::obx does).
//
// The pre-plan Options constructors remain as the thin compatibility shim —
// an Options struct carries exactly the decisions a one-off forced plan
// would make (ExecutionPlan::host_options()/streaming_options() produce
// them), it just skips the planning.
#include "bulk/host_executor.hpp"
#include "bulk/streaming_executor.hpp"
#include "plan/plan.hpp"

namespace obx::bulk {

HostBulkExecutor::HostBulkExecutor(const plan::ExecutionPlan& plan, std::size_t lanes)
    : HostBulkExecutor(lanes, plan.host_options()) {}

StreamingExecutor::StreamingExecutor(const plan::ExecutionPlan& plan,
                                     std::size_t max_resident_lanes)
    : StreamingExecutor(plan.streaming_options(max_resident_lanes)) {}

}  // namespace obx::bulk
