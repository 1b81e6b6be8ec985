"""The built-in opponent roster.

Every deterministic built-in is a finite-state machine.  The seven
classics (Cooperator, Defector, TitForTat, ...) are defined once, as
the FSM text below; the hand-built and evolved machines ship as text
files under data/, read on the first `default_registry` call.  Each data
file's sha256 is pinned below, so a corrupted or edited copy stops the
registry from loading rather than silently changing tournament results.
Random is the one stochastic entry, a coin with no machine behind it.

A roster entry is a `RegisteredStrategy`: its identity, the kernel
program every match plays, and its FsmSpec when it has one.
`fsm_entry` turns any FsmSpec into such an entry.
"""

import functools
import hashlib
from dataclasses import dataclass, replace
from importlib import resources

from . import kernels
from .fsm import FsmSpec, FsmValidationError, parse_fsm, read_text, validate_fsm

_GOLDEN_SHA256 = {
    "FirstPrac": "23e24bc26f60cbaee1cd446f613b4ac56dcf493526a28beee5597bf46cf2acf3",
    "SecondPrac": "37f70116307369d98fb8d01da935e74d8440cdee586aaec7b446acc09d6c308c",
    "SecondPrac2": "6516310220306a5efbc5f26177f6d530d85f9ec1124ed6684344928bc5d86438",
    "SecondPrac3": "6e1c1600e83d56aafd1e87d4f252c01810ea574b9d035a774a03deefff3118fd",
    "FourthPrac": "e32b588174816d7e45114cc341b753e2f082e5ee86dc90024b40349efa10b4d7",
    "EvolvedFSM8": "3e5cf0a39f89ebf0d6886a15ed5ec4876307b2eb9b0b3db9546169113007bc21",
    "EvolvedFSM6": "8efe56ff7cb424f3b8048a466b305ea1d4a275639981909725baa200d7818afb",
}


class UnknownStrategyError(ValueError):
    """Asked the registry for a name it has never heard of."""


class _GoldenFileError(RuntimeError, ValueError):
    """A bundled file failed its pin: a RuntimeError to a library caller, a data error to the CLI."""


# ── the deterministic classics ───────────────────────────────────────

_CLASSIC_FSM_TEXT = {
    "Cooperator": """
        fsm Cooperator
        start 1 C
        1 C -> 1 C
        1 D -> 1 C
    """,
    "Defector": """
        fsm Defector
        start 1 D
        1 C -> 1 D
        1 D -> 1 D
    """,
    "TitForTat": """
        fsm TitForTat
        start 1 C
        1 C -> 1 C
        1 D -> 1 D
    """,
    # state 1: clean slate, state 2: one defection on record
    "TitForTwoTats": """
        fsm TitForTwoTats
        start 1 C
        1 C -> 1 C
        1 D -> 2 C
        2 C -> 1 C
        2 D -> 2 D
    """,
    "Grudger": """
        fsm Grudger
        start 1 C
        1 C -> 1 C
        1 D -> 2 D
        2 C -> 2 D
        2 D -> 2 D
    """,
    # states track own last move; both edges flip it
    "Alternator": """
        fsm Alternator
        start 1 C
        1 C -> 2 D
        1 D -> 2 D
        2 C -> 1 C
        2 D -> 1 C
    """,
    # under any valid payoff matrix the good outcomes (t and r) are the
    # ones where the opponent cooperated: stay on C, shift on D
    "WinStayLoseShift": """
        fsm WinStayLoseShift
        start 1 C
        1 C -> 1 C
        1 D -> 2 D
        2 C -> 2 D
        2 D -> 1 C
    """,
}

CLASSIC_FSMS = {name: parse_fsm(text) for name, text in _CLASSIC_FSM_TEXT.items()}


# ── registry ─────────────────────────────────────────────────────────


@dataclass(frozen=True)
class StrategyId:
    """Stable identity of a roster entry: canonical name plus kind."""

    name: str
    kind: str  # "behavioral", "stochastic", or "fsm"


@dataclass(frozen=True)
class RegisteredStrategy:
    id: StrategyId
    program: object  # kernel Program; every entry has one
    spec: object  # FsmSpec when one exists, else None


def _load_golden(name: str) -> FsmSpec:
    path = resources.files("ipdlab") / "data" / f"{name}.fsm"
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    expected = _GOLDEN_SHA256[name]
    if digest != expected:
        raise _GoldenFileError(
            f"built-in machine {name} failed its checksum "
            f"(expected {expected}, found {digest}); refusing to load a "
            "modified golden file"
        )
    spec = parse_fsm(read_text(path, data))
    if spec.name != name:
        raise _GoldenFileError(f"golden file for {name} declares name {spec.name!r}")
    return spec


class Registry:
    """Case-insensitive name -> strategy lookup.

    The built-in registry is immutable; `with_fsm` returns an extended
    copy for machines loaded from user files.
    """

    def __init__(self, entries):
        self._entries = {}
        for entry in entries:
            key = entry.id.name.lower()
            if key in self._entries:
                raise ValueError(f"duplicate strategy name {entry.id.name!r}")
            self._entries[key] = entry

    def get(self, name: str) -> RegisteredStrategy:
        entry = self._entries.get(name.lower())
        if entry is None:
            raise UnknownStrategyError(f"unknown strategy {name!r}; known: {', '.join(self.names())}")
        return entry

    def names(self):
        return sorted(entry.id.name for entry in self._entries.values())

    def with_fsm(self, spec: FsmSpec) -> "Registry":
        return Registry(list(self._entries.values()) + [fsm_entry(spec)])


def fsm_entry(spec: FsmSpec) -> RegisteredStrategy:
    """The roster entry that plays spec; FsmValidationError if it is invalid."""
    violations = validate_fsm(spec)
    if violations:
        raise FsmValidationError(violations)
    return RegisteredStrategy(
        id=StrategyId(spec.name, "fsm"),
        program=kernels.fsm_program(spec),
        spec=spec,
    )


def _build_default_registry() -> Registry:
    entries = [replace(fsm_entry(spec), id=StrategyId(name, "behavioral"))
               for name, spec in CLASSIC_FSMS.items()]
    entries.append(
        RegisteredStrategy(
            id=StrategyId("Random", "stochastic"),
            program=kernels.random_program(0.5),
            spec=None,
        )
    )
    for name in _GOLDEN_SHA256:
        entries.append(fsm_entry(_load_golden(name)))
    return Registry(entries)


@functools.cache
def default_registry() -> Registry:
    """The built-in registry, built on the first call."""
    return _build_default_registry()


def builtin_fsm(name: str) -> FsmSpec:
    """The FsmSpec behind a built-in machine (golden files only)."""
    entry = default_registry().get(name)
    if entry.spec is None or entry.id.kind != "fsm":
        raise UnknownStrategyError(f"{name!r} is not one of the built-in machines")
    return entry.spec


def roster_default():
    """The full built-in line-up, in registration order: the classics,
    Random, then the bundled machines."""
    return [entry.id for entry in default_registry()._entries.values()]
