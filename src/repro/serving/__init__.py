"""Discrete-event serving simulation: traces, batching schedulers, metrics.

The per-inference pipeline answers "how long does one forward pass take";
this package answers "what happens under load": seeded arrival traces feed a
deterministic event loop whose batching scheduler and per-device occupancy
model turn the same lowered plans into throughput, tail latency, and
utilization numbers.  On top of the single engine, :mod:`repro.serving.cluster`
replicates it into a fault-tolerant fleet (admission policies, fault
injection, retries/hedging, admission control).  Both the engine and the
router run the columnar fast paths (:mod:`repro.serving.columnar`) — the
router for every fleet but an autoscaled one — bit-identical to the scalar
reference loops, with ``backend_used`` on the result saying which ran, and
both support O(1)-memory streaming metrics behind a
``record_requests`` cap.  See the README's "Serving model", "Cluster &
fault model", and "Scaling the serving simulator" sections.
"""

from repro.serving.autoscale import (
    AutoscaleConfig,
    AutoscaleObservation,
    Autoscaler,
    GoodputAutoscaler,
    StepAutoscaler,
    TargetUtilizationAutoscaler,
    autoscaler_entries,
    get_autoscaler,
    list_autoscalers,
    register_autoscaler,
)
from repro.serving.cluster import (
    AdmissionPolicy,
    ClusterConfig,
    ClusterRouter,
    LeastLoadedPolicy,
    PowerOfTwoPolicy,
    RoundRobinPolicy,
    get_policy,
    list_policies,
    policy_entries,
    register_policy,
    serve_cluster_point,
    simulate_cluster,
)
from repro.serving.columnar import kernel_for, run_fast
from repro.serving.cost import BatchCost, BatchCostModel, batch_cost_from_simulation
from repro.serving.engine import (
    ServingConfig,
    ServingEngine,
    serve_point,
    simulate_serving,
)
from repro.serving.faults import (
    ACCEL_LOSS,
    CRASH,
    FaultInjector,
    FaultSchedule,
    FaultWindow,
    fault_profile_entries,
    list_fault_profiles,
    register_fault_profile,
)
from repro.serving.metrics import (
    REQUEST_FAILED,
    REQUEST_OK,
    REQUEST_SHED,
    ClusterRequestRecord,
    ClusterResult,
    RequestRecord,
    ScaleEvent,
    ServingResult,
    StreamingQuantile,
    StreamingStats,
    apply_static_lifecycle,
    cap_cluster_result,
    cap_serving_result,
    nearest_rank,
    sample_record_indices,
    streaming_stats,
)
from repro.serving.scheduler import (
    BatchScheduler,
    ContinuousBatchScheduler,
    Dispatch,
    DynamicBatchScheduler,
    FIFOScheduler,
    StaticBatchScheduler,
    get_scheduler,
    list_schedulers,
    register_scheduler,
    scheduler_entries,
)
from repro.serving.trace import (
    Request,
    RequestTrace,
    bursty_trace,
    closed_loop_trace,
    list_traces,
    make_trace,
    poisson_trace,
    register_trace,
    seeded_trace,
    trace_entries,
)

__all__ = [
    "ACCEL_LOSS",
    "CRASH",
    "AdmissionPolicy",
    "AutoscaleConfig",
    "AutoscaleObservation",
    "Autoscaler",
    "BatchCost",
    "BatchCostModel",
    "BatchScheduler",
    "ClusterConfig",
    "ClusterRequestRecord",
    "ClusterResult",
    "ClusterRouter",
    "ContinuousBatchScheduler",
    "Dispatch",
    "DynamicBatchScheduler",
    "FIFOScheduler",
    "FaultInjector",
    "FaultSchedule",
    "FaultWindow",
    "GoodputAutoscaler",
    "LeastLoadedPolicy",
    "PowerOfTwoPolicy",
    "REQUEST_FAILED",
    "REQUEST_OK",
    "REQUEST_SHED",
    "Request",
    "RequestRecord",
    "RequestTrace",
    "RoundRobinPolicy",
    "ScaleEvent",
    "ServingConfig",
    "ServingEngine",
    "ServingResult",
    "StaticBatchScheduler",
    "StepAutoscaler",
    "StreamingQuantile",
    "StreamingStats",
    "TargetUtilizationAutoscaler",
    "apply_static_lifecycle",
    "autoscaler_entries",
    "batch_cost_from_simulation",
    "bursty_trace",
    "cap_cluster_result",
    "cap_serving_result",
    "closed_loop_trace",
    "fault_profile_entries",
    "get_autoscaler",
    "get_policy",
    "get_scheduler",
    "kernel_for",
    "list_autoscalers",
    "list_fault_profiles",
    "list_policies",
    "list_schedulers",
    "list_traces",
    "make_trace",
    "nearest_rank",
    "poisson_trace",
    "run_fast",
    "sample_record_indices",
    "seeded_trace",
    "streaming_stats",
    "policy_entries",
    "register_autoscaler",
    "register_fault_profile",
    "register_policy",
    "register_scheduler",
    "register_trace",
    "serve_cluster_point",
    "serve_point",
    "simulate_cluster",
    "simulate_serving",
    "trace_entries",
]
