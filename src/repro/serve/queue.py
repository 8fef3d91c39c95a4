"""The bounded request queue: FIFO buffering with per-tenant accounting.

A thin layer over :class:`asyncio.Queue` that adds the three things the
serving tier needs and asyncio does not provide: a *hard* bound that is
observable (``high_water`` proves the bound was never exceeded), per-
tenant depth accounting for the ``serve_queue_depth{tenant=...}`` gauge,
and a synchronous drain used at non-graceful shutdown to shed whatever
is still buffered.

``try_put`` is the shed path (fail fast when full); ``put`` is the
backpressure path (the *submitter's* coroutine blocks until a slot
frees, which is exactly the signal an open-loop client needs to slow
down).  Both run on the event loop — no locks needed beyond asyncio's
own.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List

from repro.errors import InvalidInputError
from repro.serve.request import ServeRequest

__all__ = ["BoundedRequestQueue"]


class BoundedRequestQueue:
    """FIFO of :class:`~repro.serve.request.ServeRequest` with a hard bound."""

    def __init__(self, bound: int) -> None:
        if bound < 1:
            raise InvalidInputError(f"queue bound must be >= 1, got {bound}")
        self.bound = int(bound)
        self._q: "asyncio.Queue[ServeRequest]" = asyncio.Queue(maxsize=self.bound)
        self._by_tenant: Dict[str, int] = {}
        self.high_water = 0
        self.total_enqueued = 0

    # ------------------------------------------------------------- producers
    def try_put(self, req: ServeRequest) -> bool:
        """Enqueue without waiting; False when the queue is at its bound."""
        try:
            self._q.put_nowait(req)
        except asyncio.QueueFull:
            return False
        self._note_put(req)
        return True

    async def put(self, req: ServeRequest) -> None:
        """Enqueue, awaiting a free slot — backpressure to the submitter."""
        await self._q.put(req)
        self._note_put(req)

    def _note_put(self, req: ServeRequest) -> None:
        self.total_enqueued += 1
        self._by_tenant[req.tenant] = self._by_tenant.get(req.tenant, 0) + 1
        self.high_water = max(self.high_water, self.depth)

    # ------------------------------------------------------------- consumers
    async def get(self) -> ServeRequest:
        req = await self._q.get()
        self._note_get(req)
        return req

    def _note_get(self, req: ServeRequest) -> None:
        left = self._by_tenant.get(req.tenant, 0) - 1
        if left > 0:
            self._by_tenant[req.tenant] = left
        else:
            self._by_tenant.pop(req.tenant, None)

    def task_done(self) -> None:
        self._q.task_done()

    async def join(self) -> None:
        """Resolve once every dequeued request has been marked done."""
        await self._q.join()

    def drain(self) -> List[ServeRequest]:
        """Empty the queue synchronously (non-graceful shutdown shed)."""
        drained: List[ServeRequest] = []
        while True:
            try:
                req = self._q.get_nowait()
            except asyncio.QueueEmpty:
                return drained
            self._note_get(req)
            self._q.task_done()
            drained.append(req)

    # ------------------------------------------------------------- queries
    @property
    def depth(self) -> int:
        return self._q.qsize()

    def depth_of(self, tenant: str) -> int:
        return self._by_tenant.get(tenant, 0)

    def tenants(self) -> List[str]:
        return sorted(self._by_tenant)
