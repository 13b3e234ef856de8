"""repro.serve — online inference with runtime layout re-scheduling.

The serving pipeline: ``admission -> micro-batcher -> engine``, with a
:class:`~repro.serve.rescheduler.FormatRescheduler` watching the
observed batch-size mix and swapping the support-vector matrix's
storage format when the cost model's ``batch_k`` amortisation moves
the winner — the paper's runtime data layout scheduling applied at
serving time instead of training time.

The fleet tier (:mod:`repro.serve.fleet`) scales that pipeline across
worker processes: models are published once into shared memory
(:mod:`repro.serve.shm`), shards attach them as zero-copy views, a
front door routes and rebalances (:mod:`repro.serve.router`), and each
replica re-schedules its own layout under its own traffic mix.
"""

from repro.serve.admission import AdmissionController, Request, Verdict
from repro.serve.batcher import MicroBatcher
from repro.serve.engine import (
    EXACT_SERVE_FORMATS,
    InferenceEngine,
    PairSlice,
    ServedModel,
)
from repro.serve.fleet import (
    FleetReport,
    FleetSnapshot,
    ServiceModel,
    ServingFleet,
    simulate_fleet,
)
from repro.serve.loadgen import (
    TenantSpec,
    TimedRequest,
    Workload,
    bursty,
    closed_loop,
    diurnal,
    multi_tenant,
    open_loop,
    phase_shift,
    query_sampler,
    replay_unbatched,
)
from repro.serve.metrics import LatencySummary, ServeMetrics, summarise_latencies
from repro.serve.rescheduler import (
    BatchSizeHistogram,
    FormatRescheduler,
    RescheduleEvent,
)
from repro.serve.router import (
    HotSpot,
    HotSpotDetector,
    RebalanceEvent,
    Router,
    ShardTable,
)
from repro.serve.shm import (
    Attachment,
    ModelHandle,
    ModelPublication,
    SegmentGroup,
    attach_model,
    pack_model,
)
from repro.serve.worker import (
    FleetWorkerError,
    LocalShard,
    ProcessShard,
    ShardServer,
)

__all__ = [
    "AdmissionController",
    "Attachment",
    "BatchSizeHistogram",
    "EXACT_SERVE_FORMATS",
    "FleetReport",
    "FleetSnapshot",
    "FleetWorkerError",
    "FormatRescheduler",
    "HotSpot",
    "HotSpotDetector",
    "InferenceEngine",
    "LatencySummary",
    "LocalShard",
    "MicroBatcher",
    "ModelHandle",
    "ModelPublication",
    "PairSlice",
    "ProcessShard",
    "RebalanceEvent",
    "RescheduleEvent",
    "Request",
    "Router",
    "SegmentGroup",
    "ServeMetrics",
    "ServedModel",
    "ServiceModel",
    "ServingFleet",
    "ShardServer",
    "ShardTable",
    "TenantSpec",
    "TimedRequest",
    "Verdict",
    "Workload",
    "attach_model",
    "bursty",
    "closed_loop",
    "diurnal",
    "multi_tenant",
    "open_loop",
    "pack_model",
    "phase_shift",
    "query_sampler",
    "replay_unbatched",
    "simulate_fleet",
    "summarise_latencies",
]
