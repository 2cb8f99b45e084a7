"""Generator-driven simulation processes.

A :class:`Process` wraps a Python generator.  The generator advances by
yielding :class:`~repro.sim.events.Event` objects; the process suspends until
the yielded event is processed and then resumes with the event's value (or
with the event's exception raised at the yield point).

Processes are themselves events: they trigger when the generator returns,
with the generator's return value as payload.  This makes ``yield process``
a natural join operation.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .events import NORMAL, PENDING, URGENT, Event, Interrupt


class Process(Event):
    """A running simulation process (also an event: fires at termination)."""

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(self, env, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently suspended on.
        self._target: Optional[Event] = None
        #: ``self._resume`` bound once: every suspension appends it to the
        #: target's callbacks, and an interrupt removes it again.
        self._resume_cb = self._resume
        bootstrap = Event(env)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks.append(self._resume_cb)
        env.schedule(bootstrap, delay=0, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is a silent no-op, which lets callers
        fire-and-forget preemption notices without racing on liveness.
        """
        if self._value is not PENDING:
            return
        # The interruptor fails with the Interrupt the process will see;
        # it is defused because delivery throws it, the loop must not.
        interruptor = Event(self.env)
        interruptor._ok = False
        interruptor._value = Interrupt(cause)
        interruptor._defused = True
        interruptor.callbacks.append(self._deliver_interrupt)
        self.env.schedule(interruptor, delay=0, priority=URGENT)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _deliver_interrupt(self, interruptor: Event) -> None:
        if self._value is not PENDING:
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._resume(interruptor)

    def _resume(self, event: Event) -> None:
        """Feed ``event``'s outcome to the generator, then drive it until
        it suspends on a pending event or ends."""
        self._target = None
        if event._ok:
            send, throw = event._value, None
        else:
            event._defused = True
            send, throw = None, event._value
        generator = self._generator
        while True:
            try:
                if throw is not None:
                    target = generator.throw(throw)
                else:
                    target = generator.send(send)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env.schedule(self, delay=0, priority=NORMAL)
                return
            except Interrupt as exc:
                # An unhandled Interrupt escaping a process is a bug in the
                # process code; surface it as a failure.
                self._ok = False
                self._value = RuntimeError(
                    f"process {self.name!r} did not handle {exc!r}"
                )
                self.env.schedule(self, delay=0, priority=NORMAL)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env.schedule(self, delay=0, priority=NORMAL)
                return

            if not isinstance(target, Event):
                throw = TypeError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                send = None
                continue
            if target is self:
                throw = ValueError("a process cannot wait on itself")
                send = None
                continue
            if target.callbacks is not None:
                # Pending, or triggered but not yet processed: suspend.
                target.callbacks.append(self._resume_cb)
                self._target = target
                return
            # Already processed: consume its outcome immediately.
            if target._ok:
                send, throw = target._value, None
            else:
                target._defused = True
                send, throw = None, target._value
