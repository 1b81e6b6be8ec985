"""Spans at ipdlab's layer boundaries, recorded from outside the package.

Each boundary is a module-level function.  The package imports many of
them by name (`from .rng import derive_seed`), so patching the defining
module alone would miss most calls: `patch` replaces every reference to
the function in every loaded ipdlab module.  A wrapper records one span
(name, parent span, start, end) and, for the boundaries whose work is a
count, the call's arguments or result.  Spans stay in memory; the
per-layer metrics are computed from them after the invocation.
"""

import inspect
import sys
import time

# (module, function, span name).  _batch_numpy and _batch_numba are the
# two kernel step loops; both report as kernels.step.
BOUNDARIES = (
    ("tournament", "run_tournament", "tournament.run"),
    ("tournament", "cooperation_rates", "tournament.coop"),
    ("tournament", "render_history_dump", "tournament.render_dump"),
    ("tournament", "read_history_dump", "tournament.read_dump"),
    ("game", "score_actions", "game.score_actions"),
    ("game", "play_match", "game.play_match"),
    ("kernels", "play_batch", "kernels.play_batch"),
    ("kernels", "_pack", "kernels.pack"),
    ("kernels", "_batch_numpy", "kernels.step"),
    ("kernels", "_batch_numba", "kernels.step"),
    ("kernels", "fsm_program", "kernels.fsm_program"),
    ("rng", "derive_seed", "rng.derive_seed"),
    ("evolution", "evolve", "evolution.evolve"),
    ("evolution", "fitness", "evolution.fitness"),
    ("evolution", "genome_key", "evolution.genome_key"),
    ("evolution", "mutate_fsm", "evolution.mutate"),
    ("fsm", "serialize_fsm", "fsm.serialize"),
    ("cli", "_atomic_write_all", "cli.write"),
)

# Spans whose call arguments or result carry a count.
_KEEP_ARGS = {"kernels.play_batch", "kernels.pack", "cli.write"}
_KEEP_RESULT = {"tournament.render_dump", "tournament.read_dump"}

# Layer metrics: span name -> (time metric, calls metric or None).
_TIMES = {
    "tournament.run": ("tournament.run_s", None),
    "tournament.coop": ("tournament.coop_s", "tournament.coop_calls"),
    "tournament.render_dump": ("tournament.render_dump_s", None),
    "tournament.read_dump": ("tournament.read_dump_s", None),
    "game.score_actions": ("game.score_actions_s", "game.score_actions_calls"),
    "game.play_match": (None, "game.play_match_calls"),
    "kernels.play_batch": ("kernels.play_batch_s", "kernels.play_batch_calls"),
    "kernels.pack": ("kernels.pack_s", None),
    "kernels.step": ("kernels.step_s", None),
    "kernels.fsm_program": ("kernels.fsm_program_s", "kernels.fsm_program_calls"),
    "rng.derive_seed": ("rng.derive_seed_s", "rng.derive_seed_calls"),
    "evolution.evolve": ("evolution.evolve_s", None),
    "evolution.fitness": ("evolution.fitness_s", "evolution.fitness_calls"),
    "evolution.genome_key": ("evolution.genome_key_s", None),
    "evolution.mutate": ("evolution.mutate_s", None),
    "fsm.serialize": ("fsm.serialize_s", None),
    "cli.write": ("cli.write_s", None),
}
_SELF_TIMES = {"tournament.run": "tournament.run_self_s",
               "evolution.fitness": "evolution.fitness_self_s"}
_COUNTS = ("tournament.dump_bytes", "tournament.read_dump_lines", "kernels.matches",
           "kernels.turns", "kernels.packed_programs", "kernels.redundant_matches",
           "cli.bytes_written")

# What two traced runs of one seed must count identically.
EXACT_COUNTS = ("kernels.matches", "kernels.redundant_matches", "rng.derive_seed_calls",
                "evolution.fitness_calls", "game.play_match_calls", "tournament.dump_bytes")


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "bytes" if metric.endswith(("_bytes", "bytes_written")) else "count"


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ipdlab" or name.startswith("ipdlab."))]


def patch(original, replacement):
    """Point every ipdlab reference to original at replacement; returns the undo list."""
    undo = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def unpatch(undo):
    for module, attr, original in undo:
        setattr(module, attr, original)


class Tracer:
    def __init__(self, package):
        self.spans = []  # (name, parent index or -1, start, end)
        self.kept = []  # (name, args, kwargs, result)
        self.missing = []
        self._stack = []
        self._undo = []
        self._targets = []
        for module_name, fn_name, span in BOUNDARIES:
            fn = getattr(getattr(package, module_name, None), fn_name, None)
            if fn is None:
                self.missing.append(f"ipdlab.{module_name}.{fn_name}")
            else:
                self._targets.append((fn, self._wrap(span, fn)))

    def install(self):
        for fn, wrapper in self._targets:
            self._undo += patch(fn, wrapper)

    def uninstall(self):
        unpatch(self._undo)
        self._undo = []

    def clear(self):
        self.spans = []
        self.kept = []

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        keep_args = name in _KEEP_ARGS
        keep_result = name in _KEEP_RESULT

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if keep_args or keep_result:
                self.kept.append((name, args, kwargs, result if keep_result else None))
            return result

        return traced

    def layer_metrics(self, kernels, evaluations):
        """Per-layer metrics of the spans recorded since the last clear()."""
        metrics = dict.fromkeys(_COUNTS, 0)
        for time_name, calls_name in _TIMES.values():
            if time_name:
                metrics[time_name] = 0.0
            if calls_name:
                metrics[calls_name] = 0
        metrics.update(dict.fromkeys(_SELF_TIMES.values(), 0.0))

        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, parent, start, end) in enumerate(self.spans):
            time_name, calls_name = _TIMES[name]
            if time_name:
                metrics[time_name] += end - start
            if calls_name:
                metrics[calls_name] += 1
            if name in _SELF_TIMES:
                metrics[_SELF_TIMES[name]] += end - start - child_time[index]

        seen_pairs = set()
        program_keys = {}

        def count(name, args, kwargs, result):
            if name == "kernels.play_batch":
                call = inspect.signature(kernels.play_batch).bind(*args, **kwargs).arguments
                matches = len(call["seeds"])
                metrics["kernels.matches"] += matches
                metrics["kernels.turns"] += matches * call["turns"]
                if call["noise"] == 0:
                    metrics["kernels.redundant_matches"] += _redundant(
                        call["progs_a"], call["progs_b"], call["turns"], kernels.KIND_FSM,
                        seen_pairs, program_keys)
            elif name == "kernels.pack":
                metrics["kernels.packed_programs"] += len(args[0])
            elif name == "cli.write":
                metrics["cli.bytes_written"] += sum(len(text.encode("utf-8"))
                                                    for _, text in args[0])
            elif name == "tournament.render_dump":
                metrics["tournament.dump_bytes"] += len(result.encode("utf-8"))
            elif name == "tournament.read_dump":
                metrics["tournament.read_dump_lines"] += len(result)

        for record in self.kept:
            try:
                count(*record)
            except (TypeError, KeyError, AttributeError, IndexError):
                # The boundary's interface changed: its counts stay 0.
                if f"{record[0]} arguments" not in self.missing:
                    self.missing.append(f"{record[0]} arguments")

        matches = metrics["kernels.matches"]
        metrics["kernels.useful_match_ratio"] = (
            1.0 - metrics["kernels.redundant_matches"] / matches if matches else 0.0)
        metrics["evolution.cache_hit_ratio"] = (
            1.0 - metrics["evolution.fitness_calls"] / evaluations if evaluations else 0.0)
        return metrics


def _redundant(progs_a, progs_b, turns, kind_fsm, seen_pairs, program_keys):
    """Rows pairing two machines that already met for this many turns.

    Such a match consumes no random draws at noise 0, so its outcome is
    already known.  Programs are compared by content, not identity.
    """
    def key(prog):
        cached = program_keys.get(id(prog))
        if cached is None:
            cached = (prog, (prog.next_state.tobytes(), prog.emit.tobytes(),
                             int(prog.start), int(prog.first)))
            program_keys[id(prog)] = cached
        return cached[1]

    redundant = 0
    for prog_a, prog_b in zip(progs_a, progs_b):
        if prog_a.kind != kind_fsm or prog_b.kind != kind_fsm:
            continue
        pair = (key(prog_a), key(prog_b), turns)
        if pair in seen_pairs:
            redundant += 1
        else:
            seen_pairs.add(pair)
    return redundant
