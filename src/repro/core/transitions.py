"""Signals and transitions of the binary circuit model.

The circuit model of Függer et al. (DATE 2015 / DATE 2018) describes the
digital abstraction of a waveform as a *signal*: a list of alternating
rising/falling transitions.  This module provides the :class:`Transition`
and :class:`Signal` types together with the invariants the paper imposes:

S1  the initial transition is at time ``-inf``; all other transitions are
    at times ``t >= 0``,
S2  the sequence of transition times is strictly increasing,
S3  if there are infinitely many transitions, their times are unbounded
    (trivially satisfied here because we only represent finite prefixes).

Every signal uniquely corresponds to a right-continuous *signal trace*
``R -> {0, 1}`` whose value at time ``t`` is the value of the most recent
transition at or before ``t``.
"""

from __future__ import annotations

import gc
import math
import weakref
from array import array as _array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "RISING",
    "FALLING",
    "Transition",
    "Pulse",
    "Signal",
    "SignalError",
]

#: Value carried by a rising transition.
RISING = 1
#: Value carried by a falling transition.
FALLING = 0


class SignalError(ValueError):
    """Raised when a list of transitions violates the signal invariants."""


@dataclass(frozen=True, order=True, slots=True)
class Transition:
    """A single transition of a binary signal.

    Attributes
    ----------
    time:
        The time at which the transition occurs.  May be ``-inf`` only for
        the implicit initial transition of a signal.
    value:
        The value *after* the transition: ``1`` for a rising transition,
        ``0`` for a falling transition.
    """

    time: float
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise SignalError(f"transition value must be 0 or 1, got {self.value!r}")

    @property
    def is_rising(self) -> bool:
        """True if this is a rising transition."""
        return self.value == RISING

    @property
    def is_falling(self) -> bool:
        """True if this is a falling transition."""
        return self.value == FALLING

    def shifted(self, delta: float) -> "Transition":
        """Return a copy of this transition shifted by ``delta`` in time."""
        return Transition(self.time + delta, self.value)

    def __reduce__(self):
        # Plain constructor-args pickling: much cheaper than the default
        # slots-state protocol (executions shipped between sweep workers
        # contain hundreds of thousands of transitions).
        return (Transition, (self.time, self.value))

    def inverted(self) -> "Transition":
        """Return a copy with the opposite value (used by inverting gates)."""
        return Transition(self.time, 1 - self.value)


@dataclass(frozen=True)
class Pulse:
    """A single positive or negative pulse.

    A *pulse of length* ``length`` *at time* ``start`` (paper, Section IV)
    has initial value ``1 - polarity``, a transition to ``polarity`` at
    ``start`` and a transition back at ``start + length``.
    """

    start: float
    length: float
    polarity: int = 1

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise SignalError(f"pulse length must be positive, got {self.length}")
        if self.polarity not in (0, 1):
            raise SignalError("pulse polarity must be 0 or 1")

    @property
    def end(self) -> float:
        """Time of the trailing transition of the pulse."""
        return self.start + self.length

    def to_signal(self) -> "Signal":
        """Return the two-transition signal containing exactly this pulse."""
        return Signal(
            initial_value=1 - self.polarity,
            transitions=[
                Transition(self.start, self.polarity),
                Transition(self.end, 1 - self.polarity),
            ],
        )


class Signal:
    """A binary signal: an initial value plus alternating transitions.

    Parameters
    ----------
    initial_value:
        The value of the implicit transition at time ``-inf``.
    transitions:
        Transitions at finite times ``>= 0``, strictly increasing and
        alternating in value, the first one differing from
        ``initial_value``.
    allow_negative_times:
        The paper requires transition times ``>= 0`` (invariant S1).  Some
        internal computations (e.g. tentative output transitions of a
        channel) produce negative times before cancellation; those callers
        relax the check.

    Representations
    ---------------
    A signal exists in one of two forms with identical behaviour:

    * *eager* -- built from :class:`Transition` objects (the constructor,
      the scalar engine);
    * *packed* -- its transition times held as float64 bytes, the pickle
      and checkpoint wire format (vector result assembly, unpickling,
      checkpoint resume).  Values are not stored: alternation is a hard
      invariant, so they toggle starting from ``1 - initial_value``.
      :attr:`transitions` builds the :class:`Transition` objects on first
      access and caches them (for every live signal assembled in the
      same batch, see ``_materialize``); equality, hashing, ``len``,
      :attr:`final_value`, :meth:`transition_times`,
      :meth:`stabilization_time`, :meth:`is_constant`, :meth:`is_zero`
      and pickling never build them.

    Equality and hashing depend only on the initial value and the
    transition times (compared as floats, so ``0.0 == -0.0``), so eager
    and packed signals of the same waveform are equal and hash alike.
    """

    __slots__ = ("_initial_value", "_transitions")

    _initial_value: int
    _transitions: Tuple[Transition, ...]

    def __init__(
        self,
        initial_value: int,
        transitions: Iterable[Transition] = (),
        *,
        allow_negative_times: bool = False,
    ) -> None:
        if initial_value not in (0, 1):
            raise SignalError("initial value must be 0 or 1")
        trans = [t if isinstance(t, Transition) else Transition(*t) for t in transitions]
        _validate_transitions(initial_value, trans, allow_negative_times)
        self._initial_value = initial_value
        self._transitions = tuple(trans)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def _trusted(cls, initial_value: int, transitions: Sequence[Transition]) -> "Signal":
        """Fast path for internally generated, already well-formed transitions.

        Skips per-transition validation; callers (the execution engine's
        result assembly) guarantee strictly increasing times and alternating
        values by construction.
        """
        signal = cls.__new__(cls)
        signal._initial_value = initial_value
        signal._transitions = tuple(transitions)
        return signal

    def _pack_times(self) -> bytes:
        """The transition times as packed float64 bytes (the wire format)."""
        return _array("d", [tr.time for tr in self._transitions]).tobytes()

    def __reduce__(self):
        # Packed pickling: the initial value plus times as a double array.
        # The process-based sweep backend ships whole executions (dozens
        # of signals per run) back to the parent, and packing beats
        # per-Transition object pickling by roughly an order of magnitude;
        # the sharded checkpoint writer runs through here on every chunk.
        return (_signal_from_packed, (self._initial_value, self._pack_times()))

    @classmethod
    def constant(cls, value: int) -> "Signal":
        """The signal that is constantly ``value``."""
        return cls(value, [])

    @classmethod
    def zero(cls) -> "Signal":
        """The constant-0 signal (the *zero signal* of the paper)."""
        return cls.constant(0)

    @classmethod
    def one(cls) -> "Signal":
        """The constant-1 signal."""
        return cls.constant(1)

    @classmethod
    def step(cls, time: float, value: int = 1) -> "Signal":
        """A single transition to ``value`` at ``time``."""
        return cls(1 - value, [Transition(time, value)])

    @classmethod
    def pulse(cls, start: float, length: float, polarity: int = 1) -> "Signal":
        """A single pulse of ``length`` starting at ``start``."""
        return Pulse(start, length, polarity).to_signal()

    @classmethod
    def from_times(
        cls,
        times: Sequence[float],
        initial_value: int = 0,
        *,
        allow_negative_times: bool = False,
    ) -> "Signal":
        """Build a signal from transition *times* alone.

        Values alternate starting from ``1 - initial_value``.
        """
        value = 1 - initial_value
        transitions = []
        for t in times:
            transitions.append(Transition(float(t), value))
            value = 1 - value
        return cls(initial_value, transitions, allow_negative_times=allow_negative_times)

    @classmethod
    def pulse_train(
        cls,
        start: float,
        up_times: Sequence[float],
        down_times: Sequence[float],
        initial_value: int = 0,
    ) -> "Signal":
        """A train of ``len(up_times)`` positive pulses.

        Pulse ``i`` is high for ``up_times[i]`` and followed by a low phase
        of ``down_times[i]`` (the last down phase extends to infinity, so
        ``down_times`` may have one element less than ``up_times``).
        """
        if not up_times:
            return cls.constant(initial_value)
        if len(down_times) < len(up_times) - 1:
            raise SignalError("need at least len(up_times) - 1 down times")
        times: List[float] = []
        t = start
        for i, up in enumerate(up_times):
            if up <= 0:
                raise SignalError("pulse up-times must be positive")
            times.append(t)
            t += up
            times.append(t)
            if i < len(up_times) - 1:
                down = down_times[i]
                if down <= 0:
                    raise SignalError("pulse down-times must be positive")
                t += down
        return cls.from_times(times, initial_value)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def initial_value(self) -> int:
        """Value of the signal before its first finite transition."""
        return self._initial_value

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        """The finite-time transitions of the signal.

        On a packed signal the first access builds the objects.
        """
        return self._transitions

    @property
    def final_value(self) -> int:
        """Value after the last transition (the eventual steady state)."""
        if self._transitions:
            return self._transitions[-1].value
        return self._initial_value

    def __len__(self) -> int:
        return len(self._transitions)

    def __iter__(self) -> Iterator[Transition]:
        return iter(self._transitions)

    def __getitem__(self, index):
        return self._transitions[index]

    def __eq__(self, other: object) -> bool:
        # Values alternate from the initial value, so the initial value
        # and the times determine the signal.
        if not isinstance(other, Signal):
            return NotImplemented
        return (
            self._initial_value == other._initial_value
            and len(self) == len(other)
            and self.transition_times() == other.transition_times()
        )

    def __hash__(self) -> int:
        return hash((self._initial_value, tuple(self.transition_times())))

    def __repr__(self) -> str:
        parts = ", ".join(f"({t.time:g},{t.value})" for t in self._transitions[:6])
        more = "..." if len(self._transitions) > 6 else ""
        return f"Signal(init={self._initial_value}, [{parts}{more}])"

    # ------------------------------------------------------------------ #
    # Trace evaluation
    # ------------------------------------------------------------------ #

    def value_at(self, time: float) -> int:
        """Value of the signal trace at ``time`` (right-continuous)."""
        value = self._initial_value
        for tr in self._transitions:
            if tr.time <= time:
                value = tr.value
            else:
                break
        return value

    def values_at(self, times: Sequence[float]) -> List[int]:
        """Vectorised :meth:`value_at` for a sorted or unsorted time list."""
        return [self.value_at(t) for t in times]

    def transition_times(self) -> List[float]:
        """The list of finite transition times."""
        return [t.time for t in self._transitions]

    def is_zero(self) -> bool:
        """True if this is the zero signal (constant 0)."""
        return self._initial_value == 0 and not self._transitions

    def is_constant(self) -> bool:
        """True if the signal has no finite transitions."""
        return not self._transitions

    # ------------------------------------------------------------------ #
    # Pulse queries (paper, Section IV definitions)
    # ------------------------------------------------------------------ #

    def pulses(self, polarity: int = 1) -> List[Pulse]:
        """Return all maximal pulses of the given polarity.

        A (positive) pulse is a rising transition followed by the next
        falling transition.  A trailing rising transition without a
        matching falling transition is *not* a pulse (it is a step) and is
        not reported.
        """
        result: List[Pulse] = []
        open_start: Optional[float] = None
        for tr in self._transitions:
            if tr.value == polarity:
                open_start = tr.time
            elif open_start is not None:
                result.append(Pulse(open_start, tr.time - open_start, polarity))
                open_start = None
        return result

    def contains_pulse_shorter_than(self, epsilon: float, polarity: int = 1) -> bool:
        """True if the signal contains a pulse of length ``< epsilon``.

        This is the negation of SPF condition F4 for a single output signal.
        """
        return any(p.length < epsilon for p in self.pulses(polarity))

    def shortest_pulse_length(self, polarity: int = 1) -> Optional[float]:
        """Length of the shortest pulse of given polarity, or None."""
        pulses = self.pulses(polarity)
        if not pulses:
            return None
        return min(p.length for p in pulses)

    def duty_cycles(self) -> List[float]:
        """Duty cycles ``gamma_n = Delta_n / P_n`` of consecutive positive pulses.

        The period ``P_n`` of pulse ``n`` is measured from its rising
        transition to the rising transition of the next pulse, matching the
        definition used in Lemma 5/6 of the paper.  The last pulse has no
        successor and therefore no duty cycle.
        """
        pulses = self.pulses(1)
        cycles: List[float] = []
        for current, following in zip(pulses, pulses[1:]):
            period = following.start - current.start
            cycles.append(current.length / period)
        return cycles

    def up_down_times(self) -> Tuple[List[float], List[float]]:
        """Return (up_times, down_times) of the positive pulse train.

        ``up_times[i]`` is the length of pulse ``i``; ``down_times[i]`` is
        the gap between pulse ``i`` and pulse ``i + 1``.
        """
        pulses = self.pulses(1)
        ups = [p.length for p in pulses]
        downs = [nxt.start - cur.end for cur, nxt in zip(pulses, pulses[1:])]
        return ups, downs

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def shifted(self, delta: float) -> "Signal":
        """Return the signal shifted by ``delta`` in time."""
        return Signal(
            self._initial_value,
            [t.shifted(delta) for t in self._transitions],
            allow_negative_times=True,
        )

    def inverted(self) -> "Signal":
        """Return the logical complement of the signal."""
        return Signal(
            1 - self._initial_value,
            [t.inverted() for t in self._transitions],
            allow_negative_times=True,
        )

    def restricted(self, until: float) -> "Signal":
        """Return the signal with transitions strictly after ``until`` dropped."""
        return Signal(
            self._initial_value,
            [t for t in self._transitions if t.time <= until],
            allow_negative_times=True,
        )

    def after(self, time: float) -> "Signal":
        """Return the signal as seen from ``time`` on.

        The initial value becomes the value at ``time`` and only strictly
        later transitions are kept (not re-based; absolute times are kept).
        """
        return Signal(
            self.value_at(time),
            [t for t in self._transitions if t.time > time],
            allow_negative_times=True,
        )

    def stabilization_time(self) -> float:
        """Time of the last transition, or ``-inf`` for constant signals."""
        if not self._transitions:
            return -math.inf
        return self._transitions[-1].time

    def to_samples(self, times: Sequence[float]) -> List[int]:
        """Sample the signal trace at the given times."""
        return self.values_at(times)


def _validate_transitions(
    initial_value: int,
    transitions: List[Transition],
    allow_negative_times: bool,
) -> None:
    """Check invariants S1/S2 plus value alternation."""
    previous_time = -math.inf
    previous_value = initial_value
    for tr in transitions:
        if math.isnan(tr.time):
            raise SignalError("transition time must not be NaN")
        if not allow_negative_times and tr.time < 0:
            raise SignalError(
                f"transition times must be >= 0 (invariant S1), got {tr.time}"
            )
        if tr.time == -math.inf:
            raise SignalError("only the implicit initial transition may be at -inf")
        if tr.time <= previous_time:
            raise SignalError(
                "transition times must be strictly increasing (invariant S2): "
                f"{tr.time} after {previous_time}"
            )
        if tr.value == previous_value:
            raise SignalError(
                f"transition values must alternate, got two consecutive {tr.value}s"
            )
        previous_time = tr.time
        previous_value = tr.value


class _PackedSignal(Signal):
    """A :class:`Signal` held as packed float64 transition times.

    Only :func:`_signal_from_packed` creates these.  The inherited
    ``_transitions`` slot stays empty until something reads it; that
    read lands in :meth:`__getattr__`, which fills the slot.  The
    accessors that never need :class:`Transition` objects work on
    ``_times`` directly.  Eager signals keep plain slot reads: none of
    this sits on their path.
    """

    __slots__ = ("_times", "_batch", "__weakref__")

    _times: bytes
    #: The signals assembled together with this one (weakly held), until
    #: one of them is read; see :func:`_materialize`.
    _batch: Optional[List["weakref.ref[_PackedSignal]"]]

    def __getattr__(self, name: str) -> Tuple[Transition, ...]:
        # Only reached when normal lookup fails: for ``_transitions``
        # that means the slot is still empty.
        if name != "_transitions":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        _materialize(self)
        return self._transitions

    def _pack_times(self) -> bytes:
        return self._times

    @property
    def final_value(self) -> int:
        return self._initial_value ^ (len(self) & 1)

    def __len__(self) -> int:
        return len(self._times) >> 3

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _PackedSignal) and self._times == other._times:
            return self._initial_value == other._initial_value
        return super().__eq__(other)

    __hash__ = Signal.__hash__

    def transition_times(self) -> List[float]:
        return _array("d", self._times).tolist()

    def is_zero(self) -> bool:
        return self._initial_value == 0 and not self._times

    def is_constant(self) -> bool:
        return not self._times

    def stabilization_time(self) -> float:
        if not self._times:
            return -math.inf
        return _array("d", self._times[-8:])[0]


def _signal_from_packed(
    initial_value: int,
    times: bytes,
    batch: Optional[List["weakref.ref[_PackedSignal]"]] = None,
) -> Signal:
    """A :class:`Signal` from its initial value and packed float64 times.

    The unpickler of :meth:`Signal.__reduce__`, the vector backend's
    result assembly and checkpoint decoding all build signals here, in
    O(1): the bytes are kept as they are and the :class:`Transition`
    objects are only built if :attr:`Signal.transitions` is read.  The
    times must come from a well-formed signal (the vector engine's result
    rows, or a packed signal); only their length is checked.

    Signals assembled together (one vector run, one checkpoint chunk)
    share a ``batch`` list: reading one of them builds the objects of
    every one still alive, see :func:`_materialize`.

    Raises
    ------
    ValueError
        If ``times`` is not a whole number of float64 values.
    """
    times = bytes(times)
    if len(times) & 7:
        raise ValueError(f"packed signal times of {len(times)} bytes are not float64s")
    signal = _PackedSignal.__new__(_PackedSignal)
    signal._initial_value = initial_value
    signal._times = times
    signal._batch = batch
    if batch is not None:
        batch.append(weakref.ref(signal))
    return signal


def _materialize(signal: _PackedSignal) -> None:
    """Build the :class:`Transition` objects of ``signal`` and its batch.

    The one place they are built from packed times.  Values toggle
    starting from ``1 - initial_value``.  The objects are assembled with
    ``__new__`` and the slot setters (what the frozen dataclass
    ``__init__`` does, minus its argument handling and value check).

    The signal's whole batch is built in the same burst, with the cyclic
    garbage collector paused (Transition objects hold a float and an int
    and cannot form cycles).  Readers usually read every signal of a
    result, and a million objects arriving signal by signal would make
    the collector re-scan the growing heap several times over; built in
    one burst, they are scanned once.
    """
    batch = signal._batch
    signals: List[Optional[_PackedSignal]] = (
        [signal] if batch is None else [ref() for ref in batch]
    )
    new = Transition.__new__
    set_time = _SET_TIME
    set_value = _SET_VALUE
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for packed in signals:
            if packed is None:
                continue
            transitions: List[Transition] = []
            append = transitions.append
            value = 1 - packed._initial_value
            for t in _array("d", packed._times).tolist():
                transition = new(Transition)
                set_time(transition, t)
                set_value(transition, value)
                append(transition)
                value ^= 1
            packed._transitions = tuple(transitions)
            packed._batch = None
    finally:
        if gc_was_enabled:
            gc.enable()
    if batch is not None:
        batch.clear()


# Slot setters of the frozen Transition, which bypass its __setattr__.
_SET_TIME = Transition.__dict__["time"].__set__
_SET_VALUE = Transition.__dict__["value"].__set__
