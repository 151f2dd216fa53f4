"""The request priority/deadline model shared by the batcher and the server.

* :class:`Priority` — lower values run first (so :data:`Priority.HIGH`
  streaming traffic preempts :data:`Priority.LOW` bulk scoring), FIFO
  within one level;
* :class:`DeadlineExceeded` — how a request whose deadline lapses while
  queued resolves, instead of occupying a batch slot.

Scale-out lives in :class:`~repro.serve.batcher.DynamicBatcher` itself:
``num_workers=N`` runs ``N`` forming threads over its one priority queue,
each executing the batch it formed, and supervises them (crash respawn,
soft timeouts, a restart budget).  The module keeps its name so the
request model stays importable from where it always was.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["DeadlineExceeded", "Priority"]


class Priority(IntEnum):
    """Request urgency classes; lower values are served first.

    The gaps leave room for caller-defined intermediate levels — any int
    is accepted wherever a ``Priority`` is, and ties are broken FIFO by
    submission order.
    """

    HIGH = 0
    NORMAL = 10
    LOW = 20


class DeadlineExceeded(TimeoutError):
    """A request's deadline lapsed before a worker could serve it.

    Raised *through the request's future* (never into batch-mates): the
    expired request is dropped from batch formation so its slot goes to a
    request that can still meet its deadline.
    """
