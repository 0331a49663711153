"""The simulation engine against a reference model.

The reference keeps its pending entries in a plain list sorted by
``(time, seq)``.  Hypothesis draws programs of ``schedule_at``, ``call_at``,
``schedule_periodic`` (with and without ``demand``) and series ``cancel``
actions over a few colliding times; every scheduled callback carries
actions of its own, so scheduling and cancelling also happen from inside
callbacks.  A ``demand`` is a cyclic pattern of answers, one per call.  The
program runs in segments (``run(until)``, then more top-level actions), and
the engine must make the model's dispatches exactly:

* the same callbacks at the same clock, in ``(time, creation)`` order;
* one ``engine.dispatch`` event per dispatch with the model's ``time``,
  ``event_seq``, ``callback`` and ``queued`` — a cancelled series' pending
  tick included, which dispatches as a no-op;
* ``pending()`` equal to the model's entry count at every segment boundary;
* per series, the model's ``ticks``, ``fired``, ``cancelled`` and ``active``
  at every segment boundary.

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
#: ``None`` (no ``demand``) or the cyclic answers of a series' ``demand()``.
DEMANDS = st.none() | st.lists(st.booleans(), min_size=1, max_size=3).map(tuple)


def _action(depth: int):
    kids = (
        st.just(()) if depth == 0
        else st.lists(_action(depth - 1), max_size=3).map(tuple)
    )
    return st.one_of(
        st.tuples(st.sampled_from(("at", "call")), DELTAS, kids),
        st.tuples(
            st.just("periodic"), st.sampled_from((0.5, 1.0)), st.integers(1, 4),
            DEMANDS, kids,
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


def _demand(answers):
    """A ``demand()`` that returns ``answers`` cyclically, one per call."""
    if answers is None:
        return None
    calls = itertools.count()
    return lambda: answers[next(calls) % len(answers)]


def _series_state(handles) -> list[tuple[int, int, bool, bool]]:
    return [(h.ticks, h.fired, h.cancelled, h.active) for h in handles]


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
                    self.handles[action[1] % len(self.handles)].cancel()
                continue
            label = next(self.labels)
            kids = action[-1]

            def fire(_engine, label=label, kids=kids) -> None:
                self.run_callback(label, kids)

            if action[0] == "periodic":
                _, interval, count, answers, _ = action
                self.handles.append(
                    engine.schedule_periodic(
                        interval, fire, until=base + interval * count,
                        demand=_demand(answers),
                    )
                )
            elif action[0] == "call":
                engine.call_at(base + action[1], self.on_call, (label, kids))
            else:
                engine.schedule_at(base + action[1], fire)

    def on_call(self, arg) -> None:
        self.run_callback(*arg)

    def run_callback(self, label: int, kids) -> None:
        self.log.append((self.engine.now, label))
        self.perform(kids, self.engine.now)


AT_NAME = "EngineSide.perform.<locals>.fire"
TICK_NAME = "PeriodicHandle._tick"
CALL_NAME = EngineSide.on_call.__qualname__


class _Entry:
    __slots__ = ("time", "seq", "name", "fire")

    def __init__(self, time, seq, name, fire) -> None:
        self.time, self.seq, self.name, self.fire = time, seq, name, fire


class _Series:
    """A periodic series on the grid ``origin + k * interval``: every grid
    tick dispatches, the next one is created after the callback ran, and
    ``demand()`` decides only whether the callback runs."""

    def __init__(self, model, label, kids, interval, until, demand) -> None:
        self.model, self.label, self.kids = model, label, kids
        self.origin, self.interval, self.until = model.now, interval, until
        self.demand = demand
        self.cancelled = False
        self.ticks = self.fired = 0
        self.schedule_next()

    def schedule_next(self) -> None:
        next_time = self.origin + (self.ticks + 1) * self.interval
        self.pending = next_time <= self.until
        if self.pending:
            self.model.push(next_time, TICK_NAME, self.tick)

    def tick(self) -> None:
        self.pending = False
        if self.cancelled:
            return
        self.ticks += 1
        if self.demand is None or self.demand():
            self.fired += 1
            self.model.run_callback(self.label, self.kids)
        if not self.cancelled:
            self.schedule_next()

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled and self.pending


class Model:
    """Reference engine: a plain list of entries sorted by ``(time, seq)``."""

    def __init__(self) -> None:
        self.entries: list[_Entry] = []
        self.seq = 0
        self.now = 0.0
        self.handles: list[_Series] = []
        self.labels = itertools.count()
        self.log: list[tuple[float, int]] = []
        #: (time, seq, callback name, queue length after the pop)
        self.dispatched: list[tuple[float, int, str, int]] = []

    def push(self, time: float, name: str, fire) -> None:
        assert time >= self.now
        self.entries.append(_Entry(time, self.seq, name, fire))
        self.seq += 1
        self.entries.sort(key=lambda e: (e.time, e.seq))

    def pending(self) -> int:
        return len(self.entries)

    def run(self, until: float | None = None) -> None:
        limit = math.inf if until is None else until
        while self.entries and self.entries[0].time <= limit:
            entry = self.entries.pop(0)
            self.now = entry.time
            self.dispatched.append((entry.time, entry.seq, entry.name, len(self.entries)))
            entry.fire()
        if until is not None and until > self.now:
            self.now = until

    def perform(self, actions, base: float) -> None:
        assert base == self.now
        for action in actions:
            if action[0] == "cancel":
                if self.handles:
                    self.handles[action[1] % len(self.handles)].cancel()
                continue
            label = next(self.labels)
            kids = action[-1]
            if action[0] == "periodic":
                _, interval, count, answers, _ = action
                self.handles.append(
                    _Series(self, label, kids, interval, base + interval * count,
                            _demand(answers))
                )
                continue
            self.push(
                base + action[1],
                CALL_NAME if action[0] == "call" else AT_NAME,
                lambda label=label, kids=kids: self.run_callback(label, kids),
            )

    def run_callback(self, label: int, kids) -> None:
        self.log.append((self.now, label))
        self.perform(kids, self.now)


def _dispatches(sink: MemorySink) -> list[tuple[float, int, str, int]]:
    return [
        (e.time, e.data["event_seq"], e.data["callback"], e.data["queued"])
        for e in sink.of_kind(EventKind.ENGINE_DISPATCH)
    ]


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS)
def test_engine_dispatches_what_the_sorted_list_model_does(program) -> None:
    initial, segments = program

    model = Model()
    model.perform(initial, 0.0)
    boundaries = [(model.pending(), _series_state(model.handles))]
    until = 0.0
    for advance, actions in segments:
        until += advance
        model.run(until)
        assert model.now == until
        boundaries.append((model.pending(), _series_state(model.handles)))
        model.perform(actions, until)
    model.run()
    final = _series_state(model.handles)

    side = EngineSide()
    engine = side.engine
    sink = MemorySink()
    previous = set_tracer(Tracer([sink]))
    try:
        side.perform(initial, 0.0)
        assert (engine.pending(), _series_state(side.handles)) == boundaries[0]
        until = 0.0
        for (advance, actions), boundary in zip(segments, boundaries[1:]):
            until += advance
            assert engine.run(until) == until
            assert (engine.pending(), _series_state(side.handles)) == boundary
            side.perform(actions, until)
        engine.run()
    finally:
        set_tracer(previous)

    assert engine.now == model.now
    assert engine.pending() == 0
    assert _series_state(side.handles) == final
    assert side.log == model.log
    dispatches = _dispatches(sink)
    assert dispatches == model.dispatched
    # Creation order breaks every tie in simulated time.
    keys = [(time, seq) for time, seq, _, _ in dispatches]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
