"""Control plane: RPC-delivered control messages.

Tasks own a :class:`ControlQueue`; the job manager (and peer tasks, for
replay/determinant requests) send messages that arrive after the RPC
latency.  Handling a control message at a particular point in the record
stream is itself nondeterministic (Section 4.1, Checkpoints & Received
RPCs) — the task-side handlers log the appropriate determinants.

Plain sends are fire-and-forget (a lost RPC is simply gone — the queue
counts the loss).  Recovery-critical messages use ``send(reliable=True)``:
the message carries an id, delivery is acked, and an unacked send is resent
on a jittered exponential backoff; the receiver suppresses duplicate ids,
so the handler side stays idempotent.  This is what lets recovery make
progress over a lossy control plane instead of wedging.
"""

from __future__ import annotations

import random
from typing import Any, Callable, NamedTuple, Optional

from collections import deque
from typing import Deque

from repro.config import CostModel, RetryPolicy
from repro.sim.core import Environment
from repro.sim.queues import Signal

#: Fallback resend schedule when the sender has no JobConfig in reach.
_DEFAULT_RPC_RETRY = RetryPolicy(max_attempts=8, base_delay=0.02,
                                 multiplier=2.0, max_delay=0.5)


class ControlMessage(NamedTuple):
    kind: str
    payload: Any
    sender: str
    msg_id: Optional[str] = None


class ControlQueue:
    """A task's inbound control mailbox."""

    def __init__(
        self, env: Environment, cost: CostModel, owner: str, jm=None,
        signal: Optional[Signal] = None,
    ):
        self.env = env
        self.cost = cost
        self.owner = owner
        self.jm = jm
        #: Pulsed on every delivery; a task passes the one signal it waits on.
        self.signal = signal if signal is not None else Signal(env)
        self._messages: Deque[ControlMessage] = deque()
        self.closed = False
        # -- loss accounting (chaos runs assert against these) ---------------
        self.delivered = 0
        #: Messages that evaporated because the queue was closed (dead task).
        self.drops_closed = 0
        #: Messages lost to injected control-plane chaos.
        self.drops_lost = 0
        #: Resends whose id had already been delivered (at-least-once working
        #: as designed: the duplicate is suppressed, the ack repeated).
        self.duplicates_suppressed = 0
        self._seen_ids: set = set()
        self._send_counter = 0
        self._rng: Optional[random.Random] = None

    # -- chaos hook -----------------------------------------------------------

    def _chaos(self):
        """The job-wide control-plane chaos model, when one is installed."""
        return getattr(self.jm, "control_chaos", None) if self.jm is not None else None

    def _note_drop(self, kind: str, reason: str) -> None:
        if self.jm is not None and hasattr(self.jm, "note_control_drop"):
            self.jm.note_control_drop(self.owner, kind, reason)

    # -- sending --------------------------------------------------------------

    def send(
        self,
        kind: str,
        payload: Any = None,
        sender: str = "jobmanager",
        immediate: bool = False,
        reliable: bool = False,
        retry: Optional[RetryPolicy] = None,
        on_retry: Optional[Callable[[int], None]] = None,
        on_give_up: Optional[Callable[[int], None]] = None,
    ) -> Optional[str]:
        """Deliver a message after the RPC latency (or immediately for
        intra-process notifications).

        ``reliable=True`` upgrades the send to at-least-once: the message
        gets an id, delivery is acked after another RPC latency, and a
        missing ack triggers resends per ``retry`` (``on_retry(n)`` fires
        before resend *n*; ``on_give_up(attempts)`` when the policy is
        exhausted).  Returns the message id, or None for plain sends.
        """
        if reliable:
            return self._send_reliable(kind, payload, sender, retry,
                                       on_retry, on_give_up)
        message = ControlMessage(kind, payload, sender)
        if immediate:
            self._deliver(message)
        else:
            self.env.schedule_callback(
                self.cost.rpc_latency, lambda m=message: self._deliver(m)
            )
        return None

    def _send_reliable(self, kind, payload, sender, retry, on_retry, on_give_up):
        self._send_counter += 1
        msg_id = f"{sender}->{self.owner}#{self._send_counter}"
        policy = retry or _DEFAULT_RPC_RETRY
        state = {"acked": False, "attempts": 0}
        if self._rng is None:
            # Deterministic jitter: per-queue stream derived from the job
            # seed when reachable, else a fixed seed (unit-test queues).
            streams = getattr(self.jm, "streams", None)
            self._rng = (streams.stream(f"rpc-retry:{self.owner}")
                         if streams is not None else random.Random(0))

        def ack() -> None:
            state["acked"] = True

        def attempt() -> None:
            if state["acked"]:
                return
            state["attempts"] += 1
            message = ControlMessage(kind, payload, sender, msg_id)
            self.env.schedule_callback(
                self.cost.rpc_latency, lambda m=message: self._deliver(m, ack)
            )
            wait = self.cost.rpc_ack_timeout + policy.delay(
                state["attempts"] - 1, self._rng
            )
            self.env.schedule_callback(wait, check)

        def check() -> None:
            if state["acked"]:
                return
            if state["attempts"] >= policy.max_attempts:
                if on_give_up is not None:
                    on_give_up(state["attempts"])
                return
            if on_retry is not None:
                on_retry(state["attempts"])
            attempt()

        attempt()
        return msg_id

    # -- delivery -------------------------------------------------------------

    def _deliver(self, message: ControlMessage,
                 ack: Optional[Callable[[], None]] = None) -> None:
        if self.closed:
            # RPCs to dead tasks vanish — but no longer silently: the queue
            # and the job-wide ledger both record the loss.
            self.drops_closed += 1
            self._note_drop(message.kind, "closed")
            return
        chaos = self._chaos()
        if chaos is not None and chaos.should_drop(
            self.env.now, message.sender, self.owner
        ):
            self.drops_lost += 1
            self._note_drop(message.kind, "lost")
            return
        if message.msg_id is not None and message.msg_id in self._seen_ids:
            self.duplicates_suppressed += 1
        else:
            if message.msg_id is not None:
                self._seen_ids.add(message.msg_id)
            self._messages.append(message)
            self.delivered += 1
            self.signal.pulse()
            if chaos is not None and chaos.should_duplicate(
                self.env.now, message.sender, self.owner
            ):
                # Chaos-injected duplicate: id-less messages genuinely arrive
                # twice (handlers must cope); id-carrying ones get suppressed
                # on the second delivery above.
                self.env.schedule_callback(
                    self.cost.rpc_latency, lambda m=message: self._deliver(m, ack)
                )
        if ack is not None:
            # Duplicates are re-acked: the first ack may have been the loss.
            def send_ack() -> None:
                live_chaos = self._chaos()
                if live_chaos is not None and live_chaos.should_drop(
                    self.env.now, message.sender, self.owner
                ):
                    self.drops_lost += 1
                    self._note_drop(message.kind, "ack-lost")
                    return
                ack()

            self.env.schedule_callback(self.cost.rpc_latency, send_ack)

    def poll(self):
        return self._messages.popleft() if self._messages else None

    def __len__(self) -> int:
        return len(self._messages)

    def close(self) -> None:
        self.closed = True
        self._messages.clear()

    def reopen(self) -> None:
        self.closed = False
