"""Finite-state-machine strategies: the C/D Action, data model, analysis, text format.

A machine is a Moore-style automaton keyed on the opponent's last action.
It starts in `start_state` and plays `initial_action` on turn one; from
then on, being in state s and seeing the opponent play x means following
the transition (s, x) -> (next state, own action).  Transitions must be
total: every state needs both a C row and a D row.

The text format is line oriented::

    fsm TitForTat
    start 1 C
    1 C -> 1 C
    1 D -> 1 D

First a `fsm <name>` line, then `start <state> <action>`, then one line
per transition; state ids are ASCII digits.  `#` starts a comment, blank
lines are skipped, tokens are separated by any amount of whitespace.
Canonical serialization emits states in ascending order with the C row
before the D row, single spaces between tokens, and a trailing newline.

The module also holds the package's text file reader and writer,
read_text and write_texts: it needs no numpy, so neither do prune and equiv.
"""

import contextlib
import io
import os
from collections import deque
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Mapping


class Action(IntEnum):
    """Cooperate or defect.  The integer values double as array indices."""

    C = 0
    D = 1

    def flip(self) -> "Action":
        return Action(self.value ^ 1)

    @classmethod
    def from_token(cls, token: str) -> "Action":
        if token == "C":
            return cls.C
        if token == "D":
            return cls.D
        raise ValueError(f"expected action token 'C' or 'D', got {token!r}")


_BOTH_ACTIONS = (Action.C, Action.D)


@dataclass(frozen=True)
class FsmSpec:
    """Immutable description of one machine.

    transitions maps (state id, opponent action) to (next state id, own
    action).  Use validate_fsm to check totality and dangling targets;
    the constructor deliberately accepts broken machines so that the
    validator has something to report on.
    """

    name: str
    states: tuple
    start_state: int
    initial_action: Action
    transitions: Mapping


class FsmParseError(ValueError):
    """Raised when FSM text cannot be read at all.  Carries a line number.

    In single-line text (statements joined by ';') the position counts
    statements instead, and the message says so.
    """

    def __init__(self, message: str, line_number: int, unit: str = "line"):
        super().__init__(f"{unit} {line_number}: {message}")
        self.message = message
        self.line_number = line_number


class FsmValidationError(ValueError):
    """Raised when parsed FSM text is well-formed but not a valid machine.
    From parse_fsm it names the line (or statement) of the first violation."""

    def __init__(self, violations, line_number=None, unit: str = "line"):
        message = "; ".join(violations)
        super().__init__(message if line_number is None else f"{unit} {line_number}: {message}")
        self.violations = list(violations)
        self.line_number = line_number


def _name_fault(name) -> str:
    """What is wrong with a machine name, or '' when it is one token without
    ';' (log statements), ',' (rosters, CSVs), '|' (history dumps) or '#' (comments)."""
    if not name or any(ch.isspace() or ch in ";,|#" for ch in name):
        return f"name {name!r} must be a single token without ';', ',', '|' or '#'"
    return ""


def validate_fsm(spec: FsmSpec) -> list:
    """Return a list of human-readable violations, empty when valid."""
    return [violation for violation, _ in _violations(spec)]


def _violations(spec: FsmSpec) -> list:
    """validate_fsm's violations, each paired with the (state, opponent
    action) entry it concerns, or None for a fault of the whole machine."""
    violations = []

    seen = set()
    for s in spec.states:
        if not isinstance(s, int) or isinstance(s, bool) or s < 1:
            violations.append((f"state id {s!r} is not a positive integer", None))
        elif s in seen:
            violations.append((f"duplicate state id {s}", None))
        else:
            seen.add(s)

    if fault := _name_fault(spec.name):
        violations.append((fault, None))

    if spec.start_state not in seen:
        violations.append((f"start state {spec.start_state} not in state set", None))
    if spec.initial_action not in _BOTH_ACTIONS:
        violations.append((f"initial action {spec.initial_action!r} is not C or D", None))

    for s in sorted(seen):
        for act in _BOTH_ACTIONS:
            if (s, act) not in spec.transitions:
                violations.append((f"missing transition {s}/{act.name}", (s, act)))

    for (s, act), (nxt, own) in spec.transitions.items():
        if s not in seen:
            name = getattr(act, "name", act)
            violations.append((f"transition from unknown state {s}/{name}", (s, act)))
            continue
        if nxt not in seen:
            violations.append((f"dangling target {s}/{act.name}->{nxt}", (s, act)))
        if own not in _BOTH_ACTIONS:
            violations.append((f"own action {own!r} on {s}/{act.name} is not C or D", (s, act)))

    return violations


def fsm_step(spec: FsmSpec, state: int, opponent_action: Action) -> tuple:
    """One transition: (state, opponent action) -> (next state, own action).

    Stepping from a state the machine does not define is a caller bug,
    hence KeyError rather than a validation-style message list.
    """
    try:
        return spec.transitions[(state, opponent_action)]
    except KeyError:
        raise KeyError(
            f"state {state} has no {opponent_action.name} transition in machine {spec.name!r}"
        ) from None


@dataclass(frozen=True)
class ReachabilityReport:
    reachable: frozenset
    unreachable: frozenset


def reachable_states(spec: FsmSpec) -> ReachabilityReport:
    """Breadth-first closure from the start state over both edge labels."""
    reachable = {spec.start_state}
    frontier = deque([spec.start_state])
    while frontier:
        s = frontier.popleft()
        for act in _BOTH_ACTIONS:
            nxt = spec.transitions[(s, act)][0]
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return ReachabilityReport(
        reachable=frozenset(reachable),
        unreachable=frozenset(spec.states) - reachable,
    )


def prune_unreachable(spec: FsmSpec) -> FsmSpec:
    """Drop states the start state can never reach.  Behavior-preserving.

    State ids, the start state, and the initial action are untouched, so
    pruning twice is the same as pruning once.
    """
    keep = reachable_states(spec).reachable
    return replace(
        spec,
        states=tuple(s for s in spec.states if s in keep),
        transitions={k: v for k, v in spec.transitions.items() if k[0] in keep},
    )


def behaviorally_equivalent(a: FsmSpec, b: FsmSpec, horizon: int = None) -> bool:
    """Do two machines emit identical actions against every opponent?

    Runs the product automaton breadth first.  With horizon=None the
    answer is exact: the walk visits at most |a| * |b| joint states, so
    termination does not depend on any cutoff.  A positive horizon
    limits the check to opponent action sequences of at most that
    length (the turn-one actions are always compared).

    Both machines must be valid; feed them through validate_fsm first
    if they came from anywhere untrusted.
    """
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be positive or None, got {horizon}")
    if a.initial_action != b.initial_action:
        return False

    start = (a.start_state, b.start_state)
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier and (horizon is None or depth < horizon):
        next_frontier = []
        for sa, sb in frontier:
            for opp in _BOTH_ACTIONS:
                na, ea = a.transitions[(sa, opp)]
                nb, eb = b.transitions[(sb, opp)]
                if ea != eb:
                    return False
                if (na, nb) not in seen:
                    seen.add((na, nb))
                    next_frontier.append((na, nb))
        frontier = next_frontier
        depth += 1
    return True


@dataclass(frozen=True)
class TransitionDiff:
    """Entry-by-entry comparison of two machines over the same state set.

    Each bucket holds (state, opponent action) keys.  An entry is
    unchanged only when target state and emitted action both agree.
    """

    unchanged: tuple
    action_changed: tuple
    target_changed: tuple
    both_changed: tuple
    initial_action_changed: bool = field(default=False)
    start_state_changed: bool = field(default=False)

    @property
    def total(self) -> int:
        return (
            len(self.unchanged)
            + len(self.action_changed)
            + len(self.target_changed)
            + len(self.both_changed)
        )


def compare_transitions(a: FsmSpec, b: FsmSpec) -> TransitionDiff:
    """Classify every transition entry of two same-state-set machines."""
    if set(a.states) != set(b.states):
        raise ValueError(
            f"machines {a.name!r} and {b.name!r} have different state sets; "
            "entry-wise comparison needs matching ids"
        )
    unchanged, action_changed, target_changed, both_changed = [], [], [], []
    for s in sorted(set(a.states)):
        for act in _BOTH_ACTIONS:
            ta, ea = a.transitions[(s, act)]
            tb, eb = b.transitions[(s, act)]
            key = (s, act)
            if ta == tb and ea == eb:
                unchanged.append(key)
            elif ta == tb:
                action_changed.append(key)
            elif ea == eb:
                target_changed.append(key)
            else:
                both_changed.append(key)
    return TransitionDiff(
        unchanged=tuple(unchanged),
        action_changed=tuple(action_changed),
        target_changed=tuple(target_changed),
        both_changed=tuple(both_changed),
        initial_action_changed=a.initial_action != b.initial_action,
        start_state_changed=a.start_state != b.start_state,
    )


# ── text format ──────────────────────────────────────────────────────


def _parse_state_id(token: str, line_number: int) -> int:
    """A state id as serialize_fsm writes it: plain ASCII digits, not 0."""
    try:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(token)
        value = int(token)  # refuses more digits than sys.get_int_max_str_digits()
    except ValueError:
        raise FsmParseError(f"expected a state id, got {token!r}", line_number) from None
    if value < 1:
        raise FsmParseError(f"state ids are positive, got {value}", line_number)
    return value


def _parse_action(token: str, line_number: int) -> Action:
    try:
        return Action.from_token(token)
    except ValueError:
        raise FsmParseError(f"expected C or D, got {token!r}", line_number) from None


def parse_fsm(text: str) -> FsmSpec:
    """Read one machine from text.

    Raises FsmParseError (with a line number) for malformed lines and
    FsmValidationError when the lines parse but the machine is broken,
    e.g. a transition targets a state that has no rows of its own; it
    names the line of the first violation.
    """
    name = None
    start_state = None
    initial_action = None
    transitions = {}
    line_of = {}
    lhs_states = set()

    # lines break at '\n', '\r' and '\r\n' only, as text mode reads a file
    for line_number, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()

        if name is None:
            if tokens[0] != "fsm":
                raise FsmParseError(f"expected 'fsm <name>', got {raw.strip()!r}", line_number)
            if len(tokens) != 2:
                raise FsmParseError("'fsm' takes exactly one name token", line_number)
            if fault := _name_fault(tokens[1]):
                raise FsmParseError(fault, line_number)
            name = tokens[1]
            continue

        if start_state is None:
            if tokens[0] != "start":
                raise FsmParseError("expected 'start <state> <action>' after the fsm line", line_number)
            if len(tokens) != 3:
                raise FsmParseError("'start' takes a state id and an action", line_number)
            start_state = _parse_state_id(tokens[1], line_number)
            initial_action = _parse_action(tokens[2], line_number)
            start_line = line_number
            continue

        if len(tokens) != 5 or tokens[2] != "->":
            raise FsmParseError(
                f"expected '<state> <action> -> <state> <action>', got {raw.strip()!r}",
                line_number,
            )
        state = _parse_state_id(tokens[0], line_number)
        opp = _parse_action(tokens[1], line_number)
        target = _parse_state_id(tokens[3], line_number)
        own = _parse_action(tokens[4], line_number)
        if (state, opp) in transitions:
            raise FsmParseError(f"duplicate transition {state} {opp.name}", line_number)
        transitions[(state, opp)] = (target, own)
        line_of[(state, opp)] = line_number
        lhs_states.add(state)

    if name is None:
        raise FsmParseError("no 'fsm <name>' line found", 1)
    if start_state is None:
        raise FsmParseError("no 'start' line found", 1)

    spec = FsmSpec(
        name=name,
        states=tuple(sorted(lhs_states | {start_state})),
        start_state=start_state,
        initial_action=initial_action,
        transitions=transitions,
    )
    violations = _violations(spec)
    if violations:
        # every fault a parsed machine can have concerns one entry; a missing
        # one is named by its state's other transition, else by the start line
        state, opp = violations[0][1]
        line_number = line_of.get((state, opp)) or line_of.get((state, opp.flip()), start_line)
        raise FsmValidationError([violation for violation, _ in violations], line_number)
    return spec


def serialize_fsm(spec: FsmSpec) -> str:
    """Canonical text for a valid machine (ascending states, C before D)."""
    lines = [f"fsm {spec.name}", f"start {spec.start_state} {spec.initial_action.name}"]
    for s in sorted(set(spec.states)):
        for act in _BOTH_ACTIONS:
            target, own = spec.transitions[(s, act)]
            lines.append(f"{s} {act.name} -> {target} {own.name}")
    return "\n".join(lines) + "\n"


def serialize_fsm_line(spec: FsmSpec) -> str:
    """Single-line form used in generation logs: statements joined by ';'."""
    return serialize_fsm(spec).rstrip("\n").replace("\n", ";")


def parse_fsm_line(text: str) -> FsmSpec:
    """Inverse of serialize_fsm_line."""
    try:
        return parse_fsm(text.replace(";", "\n"))
    except FsmParseError as exc:
        raise FsmParseError(exc.message, exc.line_number, "statement") from None
    except FsmValidationError as exc:
        raise FsmValidationError(exc.violations, exc.line_number, "statement") from None


def read_text(path, data: bytes = None) -> str:
    """The text of the file at path, or of data read from it, with each
    line end ('\\r\\n', '\\r' or '\\n', as text mode reads them) made '\\n'.

    A byte that is not UTF-8 raises ValueError naming the file and its
    line, so every reader names it before any other fault of the file.
    """
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]  # '\r\n' ends one line, as in text mode
        line_number = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}: line {line_number}: byte 0x{data[exc.start]:02x} "
                         "is not UTF-8 text") from None
    # text mode's own translation, which returns a text without '\r' at
    # once; str.replace("\r\n", "\n") slowly scans every character even then
    return io.IncrementalNewlineDecoder(None, translate=True).decode(text, final=True)


def write_texts(staged):
    """Write every (path, text) pair to a temp file, then rename each over its path.

    No path is replaced until every text is written, so a failed write
    leaves every destination as it was.  A set of renames is not atomic,
    so a rename that fails leaves the outputs renamed before it replaced;
    on any failure, every temp file not yet renamed is removed.
    """
    temps = []  # (temp, path) pairs created and not yet renamed
    try:
        for path, text in staged:
            tmp = f"{path}.tmp{os.getpid()}"
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                temps.append((tmp, path))
                fh.writelines(text[at:at + 65536] for at in range(0, len(text), 65536))  # not one encoded copy of the whole
        while temps:
            os.replace(*temps[0])
            del temps[0]
    except BaseException:
        for tmp, _ in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


def load_fsm_file(path) -> FsmSpec:
    """Parse a machine from a file on disk; an error's message starts with the path."""
    text = read_text(path)
    try:
        return parse_fsm(text)
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
