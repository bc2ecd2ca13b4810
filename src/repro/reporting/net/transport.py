"""Device-side TCP transport for :class:`~repro.reporting.client.ReportClient`.

A ``ReportClient`` takes any callable ``transport(signed) -> SubmitStatus``
and handles retry/backoff/spooling when it raises
:class:`~repro.errors.TransportError`.  :class:`TcpTransport` is that
callable over a real socket: encode the report as one DRPT frame, send
it, read back the one status byte the service answers per frame.  Every
network failure -- refused connect, reset, EOF mid-read, a chaos-armed
``net.partition`` -- collapses into ``TransportError``, so the client's
retry semantics carry over a socket unchanged.

**Cluster failover is the transport's job, not the client's.**  The
endpoint may be:

* a single ``(host, port)`` pair,
* a *list* of pairs (the cluster's known endpoints; the transport
  rotates to the next on a connect failure, so a dead leader costs one
  failed attempt, not a dead client), or
* a callable returning ``(host, port)`` (a fleet re-points thousands of
  logical clients at a promoted follower by rebinding one cell).

A fenced stale leader answers ``NOT_LEADER`` followed by a redirect
payload (``epoch | new endpoint``); the transport re-points itself and
retries the same frame against the new leader *within the same call*,
bounded by ``redirect_budget``.  The budget is deliberately distinct
from the client's retry/backoff budget: a redirect is not a failure --
no backoff is charged, and the client's ``max_attempts`` is untouched --
so spooled reports drain through a failover in one ``flush()`` pass.
Exactly-once holds because ``NOT_LEADER`` is answered *before* the
frame reaches the server: a redirected resend is the report's first
arrival anywhere, and the promoted leader's recovered dedup window
absorbs any frame the old leader had already accepted.

Chaos integration: ``net.partition`` (raise mode) severs the link
before the frame leaves, ``net.slow_link`` (latency mode) advances the
transport's virtual link clock -- the fleet charges that skew to the
device's report timestamps rather than sleeping, keeping chaotic runs
replayable from their seed.
"""

from __future__ import annotations

import socket
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.chaos.faults import fault_point
from repro.errors import FaultInjected, TransportError, WireError
from repro.reporting.net.framing import decode_status, recv_redirect
from repro.reporting.server import SubmitStatus
from repro.reporting.wire import SignedReport, encode_report

Endpoint = Union[
    Tuple[str, int],
    Sequence[Tuple[str, int]],
    Callable[[], Tuple[str, int]],
]


class _LinkClock:
    """Accumulates ``net.slow_link`` skew (the latency-mode ``device``)."""

    __slots__ = ("skew",)

    def __init__(self) -> None:
        self.skew = 0.0

    def advance(self, seconds: float) -> None:
        self.skew += seconds


class TcpTransport:
    """One persistent client connection to the ingest cluster."""

    def __init__(
        self,
        endpoint: Endpoint,
        *,
        timeout: float = 10.0,
        redirect_budget: int = 2,
    ) -> None:
        self._endpoint_fn: Optional[Callable[[], Tuple[str, int]]] = None
        self._targets: List[Tuple[str, int]] = []
        self._active = 0
        if callable(endpoint):
            self._endpoint_fn = endpoint
        elif endpoint and isinstance(endpoint[0], (tuple, list)):
            self._targets = [(host, int(port)) for host, port in endpoint]
        else:
            host, port = endpoint  # type: ignore[misc]
            self._targets = [(host, int(port))]
        self.timeout = timeout
        self.redirect_budget = redirect_budget
        self._sock: Optional[socket.socket] = None
        self._link = _LinkClock()
        #: Severed-link count (``net.partition`` fires).
        self.partitions = 0
        #: NOT_LEADER redirects followed across the transport's lifetime.
        self.redirects = 0
        #: Highest epoch any redirect carried (0 before the first).
        self.last_epoch = 0
        # Endpoint learned from a redirect; overrides the configured
        # target until the next redirect (or a connect failure to it).
        self._redirect: Optional[Tuple[str, int]] = None

    @property
    def delay_injected(self) -> float:
        """Total virtual seconds of ``net.slow_link`` skew injected."""
        return self._link.skew

    def endpoint(self) -> Tuple[str, int]:
        if self._redirect is not None:
            return self._redirect
        if self._endpoint_fn is not None:
            return self._endpoint_fn()
        return self._targets[self._active % len(self._targets)]

    def __call__(self, signed: SignedReport) -> SubmitStatus:
        try:
            fault_point("net.partition")
        except FaultInjected:
            self.close()
            self.partitions += 1
            raise TransportError("link partitioned") from None
        fault_point("net.slow_link", device=self._link)
        frame = encode_report(signed)
        redirects_left = self.redirect_budget
        while True:
            try:
                status, redirect = self._send_frame(frame)
            except OSError as exc:
                self.close()
                self._rotate()
                raise TransportError(f"report transport failed: {exc}") from exc
            if status is not SubmitStatus.NOT_LEADER:
                return status
            self._follow_redirect(redirect)
            if redirects_left <= 0:
                # The cluster keeps pointing elsewhere: surface it as a
                # transport failure so the client's backoff takes over
                # (by then the redirect target is already re-pointed).
                raise TransportError(
                    f"redirect budget exhausted at epoch {self.last_epoch}"
                )
            redirects_left -= 1

    def _send_frame(
        self, frame: bytes
    ) -> Tuple[SubmitStatus, Optional[Tuple[int, str]]]:
        sock = self._connect()
        sock.sendall(frame)
        answer = self._recv_status(sock)
        if answer is None:
            # EOF instead of a status byte: server died under us.
            self.close()
            raise TransportError("server closed the connection mid-report")
        return answer

    def send_many(self, frames: List[bytes]) -> List[SubmitStatus]:
        """Pipeline many frames in one write; statuses come back in order.

        The bench uses this to measure service-side throughput without
        a per-frame client round trip.  NOT_LEADER answers are re-sent
        once to the redirect target; their statuses are overwritten in
        place (a NOT_LEADER frame never reached the old server, so the
        resend is its first arrival).
        """
        if not frames:
            return []
        statuses, retry = self._pipeline(frames)
        if retry:
            self.close()
            retry_statuses, still = self._pipeline([frames[i] for i in retry])
            for position, status in zip(retry, retry_statuses):
                statuses[position] = status
        return statuses

    def _pipeline(
        self, frames: List[bytes]
    ) -> Tuple[List[SubmitStatus], List[int]]:
        try:
            sock = self._connect()
            sock.sendall(b"".join(frames))
            statuses: List[SubmitStatus] = []
            retry: List[int] = []
            for position in range(len(frames)):
                answer = self._recv_status(sock)
                if answer is None:
                    self.close()
                    raise TransportError("server closed mid-pipeline")
                status, redirect = answer
                if status is SubmitStatus.NOT_LEADER:
                    self._follow_redirect(redirect)
                    retry.append(position)
                statuses.append(status)
            return statuses, retry
        except OSError as exc:
            self.close()
            self._rotate()
            raise TransportError(f"pipelined transport failed: {exc}") from exc

    def _recv_status(
        self, sock: socket.socket
    ) -> Optional[Tuple[SubmitStatus, Optional[Tuple[int, str]]]]:
        data = sock.recv(1)
        if not data:
            return None
        try:
            status = decode_status(data[0])
        except WireError as exc:
            self.close()
            raise TransportError(str(exc)) from exc
        if status is not SubmitStatus.NOT_LEADER:
            return status, None
        # A NOT_LEADER byte is followed by its redirect payload.
        try:
            epoch, endpoint = recv_redirect(sock)
        except TransportError:
            self.close()
            raise
        except WireError as exc:
            self.close()
            raise TransportError(str(exc)) from exc
        return status, (epoch, endpoint)

    def _follow_redirect(self, redirect: Optional[Tuple[int, str]]) -> None:
        """Re-point at the endpoint a NOT_LEADER answer named."""
        self.close()
        self.redirects += 1
        if redirect is None:
            return
        epoch, endpoint = redirect
        if epoch > self.last_epoch:
            self.last_epoch = epoch
        if endpoint:
            from repro.reporting.net.framing import parse_endpoint

            try:
                self._redirect = parse_endpoint(endpoint)
            except WireError:
                self._redirect = None

    def _rotate(self) -> None:
        """Advance to the next configured endpoint after a failure.

        A failed redirect target falls back to the configured list --
        the transport never wedges itself on a dead endpoint it was
        redirected to.
        """
        if self._redirect is not None:
            self._redirect = None
            return
        if len(self._targets) > 1:
            self._active = (self._active + 1) % len(self._targets)

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.endpoint(), timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
