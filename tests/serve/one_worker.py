"""One-worker fleet sessions: the single-engine serving setup.

A ``local`` fleet of one worker with ``ServiceModel(0, 0, 0)`` serves a
workload as one in-process engine would, and its latency is pure
coalescing wait.  The loadgen, determinism, golden-session and
instrumentation tests share this setup.
"""

from repro.serve import ServiceModel, ServingFleet, simulate_fleet

#: The model key every one-worker session serves under.
KEY = "m"
ZERO_SERVICE = ServiceModel(0.0, 0.0, 0.0)


def one_worker_fleet(model, *, fmt0=None, rescheduler=None):
    """A one-worker ``local`` fleet serving ``model`` as :data:`KEY`.

    ``fmt0`` pins the starting format; ``rescheduler`` is a
    :class:`~repro.serve.rescheduler.FormatRescheduler` config dict.
    """
    return ServingFleet(
        {KEY: model},
        1,
        backend="local",
        initial_formats=None if fmt0 is None else {KEY: fmt0},
        rescheduler=rescheduler,
    )


def serve_one_worker(model, workload, *, fmt0=None, rescheduler=None,
                     **kwargs):
    """Serve ``workload`` on :func:`one_worker_fleet` with zero modelled
    service time; returns the :class:`~repro.serve.fleet.FleetReport`."""
    with one_worker_fleet(
        model, fmt0=fmt0, rescheduler=rescheduler
    ) as fleet:
        return simulate_fleet(
            fleet, workload, service=ZERO_SERVICE, **kwargs
        )
