"""Shared fixtures and generators for the test suite."""

import pytest
from hypothesis import strategies as st

from ipdlab import Action, FsmSpec, builtin_fsm, default_registry
from ipdlab.rng import GOLDEN, MASK64, SplitMix64, mix64


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def e8():
    return builtin_fsm("EvolvedFSM8")


@pytest.fixture(scope="session")
def e6():
    return builtin_fsm("EvolvedFSM6")


@pytest.fixture(scope="session")
def secondprac():
    return builtin_fsm("SecondPrac")


@pytest.fixture(scope="session")
def fourthprac():
    return builtin_fsm("FourthPrac")


def build_fsm(name, start, initial, rows):
    """Compact FsmSpec builder for tests.

    rows maps state -> ((target on C, action on C), (target on D, action on D))
    with actions as 'C'/'D' strings.
    """
    transitions = {}
    for state, (on_c, on_d) in rows.items():
        transitions[(state, Action.C)] = (on_c[0], Action.from_token(on_c[1]))
        transitions[(state, Action.D)] = (on_d[0], Action.from_token(on_d[1]))
    return FsmSpec(
        name=name,
        states=tuple(sorted(rows)),
        start_state=start,
        initial_action=Action.from_token(initial),
        transitions=transitions,
    )


@st.composite
def fsm_specs(draw, max_states=4, name="machine"):
    """Uniformly random valid machines with small state counts."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    states = tuple(range(1, n + 1))
    transitions = {}
    for s in states:
        for opp in (Action.C, Action.D):
            target = draw(st.sampled_from(states))
            own = draw(st.sampled_from((Action.C, Action.D)))
            transitions[(s, opp)] = (target, own)
    return FsmSpec(
        name=name,
        states=states,
        start_state=draw(st.sampled_from(states)),
        initial_action=draw(st.sampled_from((Action.C, Action.D))),
        transitions=transitions,
    )


action_sequences = st.lists(
    st.sampled_from((Action.C, Action.D)), min_size=0, max_size=12
)


def reference_play(side_a, side_b, turns, noise, seed):
    """One match played turn by turn, as the draw-order contract in
    `ipdlab.game` reads: the oracle the match kernel must agree with.

    A side is an FsmSpec, or the probability p that a coin cooperates.
    Returns the recorded action codes (C = 0, D = 1) of A and of B, and
    each side's machine state on every turn (None for a coin).
    """
    # stream tag of a match starts in state mix64(seed + tag * GOLDEN)
    stream_a, stream_b, noise_stream = (SplitMix64(mix64((seed + tag * GOLDEN) & MASK64))
                                        for tag in (1, 2, 3))
    sides, streams = (side_a, side_b), (stream_a, stream_b)
    state = [None, None]
    recorded, states = ([], []), ([], [])
    for turn in range(turns):
        chosen = []
        for me, side in enumerate(sides):
            if not isinstance(side, FsmSpec):
                move = int(streams[me].next_double() >= side)  # C when the double is below p
            elif turn == 0:
                state[me], move = side.start_state, side.initial_action
            else:
                # a machine steps on the opponent's recorded move, not on its own
                state[me], move = side.transitions[(state[me], recorded[1 - me][-1])]
            chosen.append(int(move))
            states[me].append(state[me])
        for me in (0, 1):
            flip = noise > 0 and noise_stream.next_double() < noise
            recorded[me].append(chosen[me] ^ flip)
    return tuple(recorded[0]), tuple(recorded[1]), tuple(states[0]), tuple(states[1])


def reference_side(entry):
    """A roster entry as reference_play takes it: its machine, or its coin's p."""
    return entry.program.p if entry.spec is None else entry.spec
