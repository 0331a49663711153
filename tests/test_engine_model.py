"""The simulation engine against a reference model.

The reference keeps its pending entries in a plain list sorted by
``(time, seq)``.  Hypothesis draws programs of ``schedule_at``,
``schedule_in``, ``call_at``, ``schedule_periodic`` and ``cancel`` actions
over a few colliding times; every scheduled callback carries actions of its
own, so scheduling and cancelling also happen from inside callbacks.  The
program runs in segments (``run(until)``, then more top-level actions), and
the engine must make the model's dispatches exactly:

* the same callbacks at the same clock, in ``(time, creation)`` order;
* one ``engine.dispatch`` event per dispatch with the model's ``time``,
  ``event_seq``, ``callback`` and ``queued`` — so a cancelled entry neither
  moves the clock nor emits;
* ``pending()`` equal to the model's count of live entries at every segment
  boundary;
* the same run driven by ``step()`` alone.

Every time is a multiple of 0.5, so all clock arithmetic is exact.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.obs.events import EventKind
from repro.obs.trace import MemorySink, Tracer, set_tracer
from repro.sim import SimulationEngine

DELTAS = st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.0))


def _action(depth: int):
    kids = (
        st.just(()) if depth == 0
        else st.lists(_action(depth - 1), max_size=3).map(tuple)
    )
    return st.one_of(
        st.tuples(st.sampled_from(("at", "in", "call")), DELTAS, kids),
        st.tuples(
            st.just("periodic"), st.sampled_from((0.5, 1.0)), st.integers(1, 3), kids
        ),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
    )


ACTIONS = st.lists(_action(2), max_size=6)
#: (initial actions, [(clock advance, actions after that run)])
PROGRAMS = st.tuples(
    ACTIONS,
    st.lists(
        st.tuples(st.sampled_from((0.0, 0.5, 1.0, 1.5, 3.0)), ACTIONS), max_size=3
    ),
)


class EngineSide:
    """Interprets a program against a real :class:`SimulationEngine`."""

    def __init__(self) -> None:
        self.engine = SimulationEngine()
        self.handles: list = []
        self.labels = itertools.count()
        #: (clock, label) per callback run.
        self.log: list[tuple[float, int]] = []

    def perform(self, actions, base: float) -> None:
        engine = self.engine
        for action in actions:
            if action[0] == "cancel":
                if self.handles:
                    engine.cancel(self.handles[action[1] % len(self.handles)])
                continue
            label = next(self.labels)
            kids = action[-1]

            def fire(_engine, label=label, kids=kids) -> None:
                self.run_callback(label, kids)

            if action[0] == "periodic":
                _, interval, count, _ = action
                self.handles.append(
                    engine.schedule_periodic(
                        interval, fire, start=base + interval, until=base + interval * count
                    )
                )
            elif action[0] == "call":
                engine.call_at(base + action[1], self.on_call, (label, kids))
            elif action[0] == "at":
                self.handles.append(engine.schedule_at(base + action[1], fire))
            else:
                self.handles.append(engine.schedule_in(base - engine.now + action[1], fire))

    def on_call(self, arg) -> None:
        self.run_callback(*arg)

    def run_callback(self, label: int, kids) -> None:
        self.log.append((self.engine.now, label))
        self.perform(kids, self.engine.now)


HANDLE_NAME = "EngineSide.perform.<locals>.fire"
TICK_NAME = "SimulationEngine.schedule_periodic.<locals>.tick"
CALL_NAME = EngineSide.on_call.__qualname__


class _Entry:
    __slots__ = ("time", "seq", "name", "fire", "cancelled")

    def __init__(self, time, seq, name, fire) -> None:
        self.time, self.seq, self.name, self.fire = time, seq, name, fire
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _Series:
    """A periodic series: the next tick is created after the callback ran."""

    def __init__(self, model, label, kids, first, interval, until) -> None:
        self.model, self.label, self.kids = model, label, kids
        self.first, self.interval, self.until = first, interval, until
        self.cancelled = False
        self.fired = 0
        self.current = model.push(first, TICK_NAME, self.tick) if first <= until else None

    def tick(self) -> None:
        self.current = None
        self.fired += 1
        self.model.run_callback(self.label, self.kids)
        next_time = self.first + self.fired * self.interval
        if not self.cancelled and next_time <= self.until:
            self.current = self.model.push(next_time, TICK_NAME, self.tick)

    def cancel(self) -> None:
        self.cancelled = True
        if self.current is not None:
            self.current.cancel()


class Model:
    """Reference engine: a plain list of entries sorted by ``(time, seq)``."""

    def __init__(self) -> None:
        self.entries: list[_Entry] = []
        self.seq = 0
        self.now = 0.0
        self.handles: list = []
        self.labels = itertools.count()
        self.log: list[tuple[float, int]] = []
        #: (time, seq, callback name, queue length after the pop)
        self.dispatched: list[tuple[float, int, str, int]] = []

    def push(self, time: float, name: str, fire) -> _Entry:
        assert time >= self.now
        entry = _Entry(time, self.seq, name, fire)
        self.seq += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e.time, e.seq))
        return entry

    def pending(self) -> int:
        return sum(1 for e in self.entries if not e.cancelled)

    def run(self, until: float | None = None) -> None:
        limit = math.inf if until is None else until
        while self.entries and self.entries[0].time <= limit:
            entry = self.entries.pop(0)
            if entry.cancelled:
                continue
            self.now = entry.time
            self.dispatched.append((entry.time, entry.seq, entry.name, len(self.entries)))
            entry.fire()
        if until is not None and until > self.now:
            self.now = until

    def perform(self, actions, base: float) -> None:
        for action in actions:
            if action[0] == "cancel":
                if self.handles:
                    self.handles[action[1] % len(self.handles)].cancel()
                continue
            label = next(self.labels)
            kids = action[-1]
            if action[0] == "periodic":
                _, interval, count, _ = action
                self.handles.append(
                    _Series(self, label, kids, base + interval, interval, base + interval * count)
                )
                continue
            entry = self.push(
                base + action[1],
                CALL_NAME if action[0] == "call" else HANDLE_NAME,
                lambda label=label, kids=kids: self.run_callback(label, kids),
            )
            if action[0] != "call":
                self.handles.append(entry)

    def run_callback(self, label: int, kids) -> None:
        self.log.append((self.now, label))
        self.perform(kids, self.now)


def _dispatches(sink: MemorySink) -> list[tuple[float, int, str, int]]:
    return [
        (e.time, e.data["event_seq"], e.data["callback"], e.data["queued"])
        for e in sink.of_kind(EventKind.ENGINE_DISPATCH)
    ]


def _traced(drive) -> tuple[EngineSide, list]:
    sink = MemorySink()
    previous = set_tracer(Tracer([sink]))
    try:
        side = drive()
    finally:
        set_tracer(previous)
    return side, _dispatches(sink)


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS)
def test_engine_dispatches_what_the_sorted_list_model_does(program) -> None:
    initial, segments = program

    model = Model()
    model.perform(initial, 0.0)
    boundaries = [(model.pending(), 0)]
    until = 0.0
    for advance, actions in segments:
        until += advance
        model.run(until)
        assert model.now == until
        boundaries.append((model.pending(), len(model.dispatched)))
        model.perform(actions, until)
    model.run()

    def by_run() -> EngineSide:
        side = EngineSide()
        engine = side.engine
        side.perform(initial, 0.0)
        assert engine.pending() == boundaries[0][0]
        until = 0.0
        for (advance, actions), (pending, _) in zip(segments, boundaries[1:]):
            until += advance
            assert engine.run(until) == until
            assert engine.pending() == pending
            side.perform(actions, until)
        engine.run()
        assert engine.now == model.now
        assert engine.pending() == 0
        return side

    def by_step() -> EngineSide:
        side = EngineSide()
        engine = side.engine
        side.perform(initial, 0.0)
        until = 0.0
        done = 0
        for (advance, actions), (pending, dispatched) in zip(segments, boundaries[1:]):
            until += advance
            for _ in range(dispatched - done):
                assert engine.step() is True
            done = dispatched
            assert engine.pending() == pending
            side.perform(actions, until)
        while engine.step():
            pass
        assert engine.pending() == 0
        return side

    run_side, run_dispatches = _traced(by_run)
    step_side, step_dispatches = _traced(by_step)

    assert run_side.log == model.log
    assert run_dispatches == model.dispatched
    assert step_side.log == run_side.log
    assert step_dispatches == run_dispatches
    # Creation order breaks every tie in simulated time.
    keys = [(time, seq) for time, seq, _, _ in run_dispatches]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
