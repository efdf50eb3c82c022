"""Unit tests for signals and transitions."""

import gc
import math
import pickle

import pytest

from repro.core import Pulse, Signal, SignalError, Transition
from repro.core import transitions as transitions_module
from repro.core.transitions import _signal_from_packed


class TestTransition:
    def test_rising_and_falling_flags(self):
        assert Transition(1.0, 1).is_rising
        assert not Transition(1.0, 1).is_falling
        assert Transition(2.0, 0).is_falling

    def test_invalid_value_rejected(self):
        with pytest.raises(SignalError):
            Transition(0.0, 2)

    def test_shifted(self):
        assert Transition(1.0, 1).shifted(0.5) == Transition(1.5, 1)

    def test_inverted(self):
        assert Transition(1.0, 1).inverted() == Transition(1.0, 0)

    def test_ordering_by_time(self):
        assert Transition(1.0, 0) < Transition(2.0, 1)


class TestPulse:
    def test_end_time(self):
        assert Pulse(1.0, 2.0).end == 3.0

    def test_nonpositive_length_rejected(self):
        with pytest.raises(SignalError):
            Pulse(0.0, 0.0)
        with pytest.raises(SignalError):
            Pulse(0.0, -1.0)

    def test_to_signal_positive(self):
        signal = Pulse(1.0, 2.0).to_signal()
        assert signal.initial_value == 0
        assert signal.transition_times() == [1.0, 3.0]
        assert [t.value for t in signal] == [1, 0]

    def test_to_signal_negative_polarity(self):
        signal = Pulse(1.0, 2.0, polarity=0).to_signal()
        assert signal.initial_value == 1
        assert [t.value for t in signal] == [0, 1]


class TestSignalConstruction:
    def test_constant_signals(self):
        assert Signal.zero().is_zero()
        assert Signal.one().final_value == 1
        assert Signal.zero().is_constant()

    def test_step(self):
        step = Signal.step(2.0)
        assert step.initial_value == 0
        assert step.value_at(1.9) == 0
        assert step.value_at(2.0) == 1

    def test_pulse_constructor(self):
        pulse = Signal.pulse(1.0, 0.5)
        assert len(pulse) == 2
        assert pulse.final_value == 0

    def test_from_times_alternates(self):
        signal = Signal.from_times([1.0, 2.0, 3.0])
        assert [t.value for t in signal] == [1, 0, 1]

    def test_from_times_initial_one(self):
        signal = Signal.from_times([1.0, 2.0], initial_value=1)
        assert [t.value for t in signal] == [0, 1]

    def test_pulse_train(self):
        train = Signal.pulse_train(0.0, [1.0, 2.0, 1.0], [0.5, 0.5])
        assert len(train) == 6
        ups, downs = train.up_down_times()
        assert ups == [1.0, 2.0, 1.0]
        assert downs == [0.5, 0.5]

    def test_pulse_train_empty(self):
        assert Signal.pulse_train(0.0, [], []).is_zero()

    def test_pulse_train_rejects_bad_downs(self):
        with pytest.raises(SignalError):
            Signal.pulse_train(0.0, [1.0, 1.0], [])

    def test_nonmonotonic_times_rejected(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(2.0, 1), Transition(1.0, 0)])

    def test_equal_times_rejected(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(1.0, 1), Transition(1.0, 0)])

    def test_non_alternating_values_rejected(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(1.0, 1), Transition(2.0, 1)])

    def test_first_value_must_differ_from_initial(self):
        with pytest.raises(SignalError):
            Signal(1, [Transition(1.0, 1)])

    def test_negative_times_rejected_by_default(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(-1.0, 1)])

    def test_negative_times_allowed_when_requested(self):
        signal = Signal(0, [Transition(-1.0, 1)], allow_negative_times=True)
        assert signal.value_at(0.0) == 1

    def test_nan_time_rejected(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(math.nan, 1)])

    def test_invalid_initial_value(self):
        with pytest.raises(SignalError):
            Signal(2, [])


class TestSignalQueries:
    def test_value_at(self):
        signal = Signal.from_times([1.0, 2.0, 3.0])
        assert signal.value_at(0.5) == 0
        assert signal.value_at(1.0) == 1
        assert signal.value_at(2.5) == 0
        assert signal.value_at(10.0) == 1

    def test_values_at(self):
        signal = Signal.pulse(1.0, 1.0)
        assert signal.values_at([0.0, 1.5, 3.0]) == [0, 1, 0]

    def test_final_value(self):
        assert Signal.pulse(0.0, 1.0).final_value == 0
        assert Signal.step(0.0).final_value == 1
        assert Signal.zero().final_value == 0

    def test_pulses_positive(self):
        train = Signal.pulse_train(0.0, [1.0, 2.0], [3.0])
        pulses = train.pulses()
        assert [p.length for p in pulses] == [1.0, 2.0]
        assert [p.start for p in pulses] == [0.0, 4.0]

    def test_pulses_negative_polarity(self):
        signal = Signal.pulse(1.0, 2.0, polarity=0)
        pulses = signal.pulses(0)
        assert len(pulses) == 1
        assert pulses[0].length == 2.0

    def test_trailing_step_not_a_pulse(self):
        signal = Signal.step(1.0)
        assert signal.pulses() == []

    def test_shortest_pulse_length(self):
        train = Signal.pulse_train(0.0, [1.0, 0.25, 2.0], [1.0, 1.0])
        assert train.shortest_pulse_length() == 0.25
        assert Signal.zero().shortest_pulse_length() is None

    def test_contains_pulse_shorter_than(self):
        train = Signal.pulse_train(0.0, [1.0, 0.25], [1.0])
        assert train.contains_pulse_shorter_than(0.5)
        assert not train.contains_pulse_shorter_than(0.2)

    def test_duty_cycles(self):
        train = Signal.pulse_train(0.0, [1.0, 1.0], [1.0])
        # First pulse: up 1.0, period 2.0 (rise to rise).
        assert train.duty_cycles() == [0.5]

    def test_up_down_times(self):
        train = Signal.pulse_train(2.0, [1.0, 3.0], [0.5])
        ups, downs = train.up_down_times()
        assert ups == [1.0, 3.0]
        assert downs == [0.5]

    def test_stabilization_time(self):
        assert Signal.zero().stabilization_time() == -math.inf
        assert Signal.pulse(1.0, 2.0).stabilization_time() == 3.0


class TestSignalTransformations:
    def test_shifted(self):
        shifted = Signal.pulse(1.0, 1.0).shifted(2.0)
        assert shifted.transition_times() == [3.0, 4.0]

    def test_inverted(self):
        inverted = Signal.pulse(1.0, 1.0).inverted()
        assert inverted.initial_value == 1
        assert [t.value for t in inverted] == [0, 1]
        assert inverted.inverted() == Signal.pulse(1.0, 1.0)

    def test_restricted(self):
        # Transitions at 0, 1, 2, 3.
        train = Signal.pulse_train(0.0, [1.0, 1.0], [1.0])
        assert len(train.restricted(2.5)) == 3
        assert len(train.restricted(1.5)) == 2

    def test_after(self):
        train = Signal.pulse_train(0.0, [1.0, 1.0], [1.0])
        later = train.after(2.5)
        assert later.initial_value == 1
        assert len(later) == 1
        assert later.transition_times() == [3.0]

    def test_equality_and_hash(self):
        a = Signal.pulse(1.0, 1.0)
        b = Signal.pulse(1.0, 1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Signal.pulse(1.0, 2.0)

    def test_repr_is_compact(self):
        text = repr(Signal.pulse_train(0.0, [1.0] * 10, [1.0] * 9))
        assert "..." in text


def _packed(signal):
    """The same waveform as a packed signal (what unpickling builds)."""
    return _signal_from_packed(signal.initial_value, signal._pack_times())


def _materialized(signal):
    """Whether ``signal`` holds Transition objects, read without building them."""
    try:
        Signal._transitions.__get__(signal)
    except AttributeError:
        return False
    return True


PARITY_SIGNALS = [
    Signal.zero(),
    Signal.one(),
    Signal.step(2.0),
    Signal.from_times([-0.0, 3.0], initial_value=1),
    Signal.from_times([0.5, 1.0, 4.25, 7.0, 7.5]),
    Signal.pulse_train(1.0, [0.3] * 40, [0.7] * 39, initial_value=1),
]


class TestPackedSignals:
    @pytest.mark.parametrize("eager", PARITY_SIGNALS, ids=repr)
    def test_packed_and_eager_agree(self, eager):
        packed = _packed(eager)
        assert packed == eager and eager == packed
        assert not packed != eager
        assert hash(packed) == hash(eager)
        assert len(packed) == len(eager)
        assert packed.final_value == eager.final_value
        assert packed.transition_times() == eager.transition_times()
        assert packed.stabilization_time() == eager.stabilization_time()
        assert packed.is_constant() == eager.is_constant()
        assert packed.is_zero() == eager.is_zero()
        assert packed.transitions == eager.transitions
        assert pickle.loads(pickle.dumps(packed)) == eager
        assert pickle.loads(pickle.dumps(eager)) == packed

    def test_times_keep_their_bits(self):
        packed = _packed(Signal.from_times([-0.0, 3.0], initial_value=1))
        assert math.copysign(1.0, packed.transition_times()[0]) == -1.0
        assert math.copysign(1.0, packed.transitions[0].time) == -1.0
        # Equality compares float values, as Transition does.
        assert packed == Signal.from_times([0.0, 3.0], initial_value=1)
        assert packed == _packed(Signal.from_times([0.0, 3.0], initial_value=1))
        assert hash(packed) == hash(Signal.from_times([0.0, 3.0], initial_value=1))

    def test_differences_are_seen(self):
        base = _packed(Signal.from_times([1.0, 2.0]))
        assert base != _packed(Signal.from_times([1.0, 2.5]))
        assert base != _packed(Signal.from_times([1.0, 2.0], initial_value=1))
        assert base != Signal.from_times([1.0])
        assert base != Signal.from_times([1.0, 2.0], initial_value=1)

    def test_cheap_accessors_build_no_transitions(self):
        from repro.engine.shard import _pack_signal

        signal = _packed(PARITY_SIGNALS[-1])
        other = _packed(PARITY_SIGNALS[-1])
        len(signal)
        signal.transition_times()
        signal.final_value
        signal.stabilization_time()
        signal.is_constant()
        signal.is_zero()
        assert signal == other
        assert signal != _packed(PARITY_SIGNALS[-2])
        hash(signal)
        pickle.dumps(signal)
        _pack_signal(signal)
        assert not _materialized(signal) and not _materialized(other)
        assert signal.transitions == PARITY_SIGNALS[-1].transitions
        assert _materialized(signal)

    def test_reading_one_signal_builds_its_batch(self):
        batch = []
        signals = [
            _signal_from_packed(s.initial_value, s._pack_times(), batch)
            for s in PARITY_SIGNALS
        ]
        del signals[1]  # a dead member is skipped
        signals[0].transitions
        assert all(_materialized(s) for s in signals)
        assert batch == []
        assert [s.transitions for s in signals] == [
            s.transitions for s in PARITY_SIGNALS if s is not PARITY_SIGNALS[1]
        ]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_building_restores_the_gc_state(self, enabled, monkeypatch):
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            _packed(PARITY_SIGNALS[-1]).transitions
            assert gc.isenabled() == enabled

            def broken(transition, time):
                raise RuntimeError("boom")

            monkeypatch.setattr(transitions_module, "_SET_TIME", broken)
            with pytest.raises(RuntimeError):
                _packed(PARITY_SIGNALS[-1]).transitions
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_times_must_be_whole_float64s(self):
        with pytest.raises(ValueError):
            _signal_from_packed(0, bytes(12))
