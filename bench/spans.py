"""Span tracing of grpext from the outside, for the traced benchmark run.

`Tracer.install` replaces the public functions of each grpext module with
wrappers that record a span (name, start, end, parent span, entry id, oracle
calls made inside) and puts them back on `uninstall`. A function bound into
another module by `from .x import y` is replaced in every namespace that holds
it, so `decomp.element_order` and `abelian.element_order` are the same span.
Spans stay in memory until `write` saves them as JSON lines.
"""

from __future__ import annotations

import json
import math
import random
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); methods are given as "Class.method".
SPANNED = [
    ("blackbox", "load_group", "blackbox.load_group"),
    ("blackbox", "commutator_generators", "blackbox.commutator_generators"),
    ("abelian", "element_order", "abelian.element_order"),
    ("abelian", "abelian_basis", "abelian.abelian_basis"),
    ("abelian", "DecompositionTable.__init__", "abelian.DecompositionTable"),
    ("abelian", "DecompositionTable.decompose", "abelian.decompose"),
    # standard_decomposition is a thin shell around the sweep; the CLI calls the sweep.
    ("decomp", "standard_decomposition_with_attempts", "decomp.standard_decomposition"),
    ("decomp", "find_decomposition", "decomp.find_decomposition"),
    ("autring", "conjugacy", "autring.conjugacy"),
    ("autring", "matrix_order", "autring.matrix_order"),
    ("autring", "rcf", "autring.rcf"),
    ("autring", "parse_matrix_file", "autring.parse_matrix_file"),
    ("iso", "isomorphic", "iso.isomorphic"),
    ("iso", "conjugation_action", "iso.conjugation_action"),
    ("iso", "build_mu", "iso.build_mu"),
    ("iso", "verify_isomorphism", "iso.verify_isomorphism"),
    ("cli", "cmd_isomorphic", "cli.isomorphic"),
    ("cli", "cmd_standard_decomposition", "cli.standard-decomposition"),
    ("cli", "cmd_conjugacy", "cli.conjugacy"),
    ("cli", "cmd_count_classes", "cli.count-classes"),
]
# Called too often for a span each (hundreds of thousands per pass): counted only.
COUNTED = [("autring", "star_mul", "autring.star_mul")]
MODULES = ["blackbox", "abelian", "decomp", "autring", "iso", "cli"]


class Tracer:
    """Spans of one run; `now` is the clock they are timed with."""

    def __init__(self, package, now=time.perf_counter):
        self.package = package
        self._now = now
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name_id = array("H")
        self.entry_id = array("H")
        self.oracle = array("q")
        self.entries: list[str] = []
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.oracle_calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.groups: list[tuple[str, object]] = []  # (backend, handle) of the current entry
        self.pass_groups: list[tuple[str, object]] = []  # every group loaded since begin_pass
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_groups = []

    def begin_entry(self, entry: str) -> None:
        self.entries.append(entry)
        self.groups = []

    def oracle_now(self) -> int:
        return sum(g.operation_count for _, g in self.groups)

    def _open(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.entry_id.append(len(self.entries) - 1)
        now = self._now()
        self.start.append(now)
        self.end.append(now)
        self.oracle.append(0)
        frame = [idx, now, self.oracle_now(), 0.0, name]  # child time accumulates in [3]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        now = self._now()
        idx, began, oracle_before, child, name = frame
        self._stack.pop()
        spent = now - began
        calls = self.oracle_now() - oracle_before
        self.end[idx] = now
        self.oracle[idx] = calls
        self.calls[name] += 1
        self.oracle_calls[name] += calls
        self.seconds[name] += spent
        self.self_seconds[name] += spent - child
        if self._stack:
            self._stack[-1][3] += spent

    def _span(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame)
                tracer._note(name, frame[0], args, None, exc)
                raise
            tracer._close(frame)
            tracer._note(name, frame[0], args, result, None)
            return result

        return traced

    def _counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _note(self, name: str, idx: int, args, result, exc) -> None:
        """Per-function counts that need the arguments or the outcome."""
        extra = self.extra
        if name == "blackbox.load_group" and exc is None:
            head = next(ln for ln in args[0].splitlines() if ln.strip() and not ln.startswith("#"))
            self.groups.append((head.split()[0], result))
            self.pass_groups.append(self.groups[-1])
        elif name == "abelian.element_order" and exc is None:
            extra["element_order.sqrt_sum"] += math.sqrt(result)
            extra["element_order.sqrt_oracle"] += self.oracle[idx]
        elif name == "abelian.decompose" and exc is not None:
            extra["decompose.misses"] += 1
        elif name == "decomp.find_decomposition" and exc is None:
            extra["find_decomposition.ok"] += 1
        elif name == "autring.conjugacy" and exc is None and result is not None:
            extra["conjugacy.hits"] += 1

    # --- installing ----------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in [self.package, *(getattr(self.package, m) for m in MODULES + ["classes", "arith"])]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for module, attr, name in SPANNED + COUNTED:
            mod = getattr(self.package, module)
            make = self._span if (module, attr, name) in SPANNED else self._counter
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, make(name, original))
                continue
            original = getattr(mod, attr)
            wrapper = make(name, original)
            if name == "iso.build_mu":
                wrapper = self._wrap_build_mu(wrapper)
            self._replace_everywhere(original, wrapper)

    def _wrap_build_mu(self, traced_build):
        tracer = self

        def build_mu(*args, **kwargs):
            return tracer._span("iso.mu", traced_build(*args, **kwargs))

        return build_mu

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # --- results ---------------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass means of every per-layer count and time."""

        def per_pass(value: float) -> float:
            return value / passes

        out: dict[str, float] = {}
        for name in [n for _, _, n in SPANNED] + ["iso.mu"]:
            out[f"{name}.calls"] = per_pass(self.calls[name])
            out[f"{name}.oracle_calls"] = per_pass(self.oracle_calls[name])
            out[f"{name}.s"] = per_pass(self.seconds[name])
        for _, _, name in COUNTED:
            out[f"{name}.calls"] = per_pass(self.calls[name])
        for module in MODULES:
            out[f"{module}.self_s"] = per_pass(
                sum(v for k, v in self.self_seconds.items() if k.split(".")[0] == module)
            )
        extra = self.extra

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["abelian.element_order.sqrt_ratio"] = ratio(
            extra["element_order.sqrt_oracle"], extra["element_order.sqrt_sum"]
        )
        out["abelian.decompose.miss_ratio"] = ratio(
            extra["decompose.misses"], self.calls["abelian.decompose"]
        )
        out["decomp.find_decomposition.ok_ratio"] = ratio(
            extra["find_decomposition.ok"], self.calls["decomp.find_decomposition"]
        )
        out["autring.conjugacy.hit_ratio"] = ratio(
            extra["conjugacy.hits"], self.calls["autring.conjugacy"]
        )
        out["abelian.DecompositionTable.builds"] = out.pop("abelian.DecompositionTable.calls")
        out["abelian.DecompositionTable.build_oracle_calls"] = out.pop(
            "abelian.DecompositionTable.oracle_calls"
        )
        out["abelian.DecompositionTable.build_s"] = out.pop("abelian.DecompositionTable.s")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "span": i,
                            "name": self.names[self.name_id[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "entry": self.entries[self.entry_id[i]],
                            "oracle_calls": self.oracle[i],
                        }
                    )
                    + "\n"
                )


def mul_us(groups: list[tuple[str, object, int]], seed: int, now, calls: int = 20_000) -> dict[str, float]:
    """Microseconds per `mul`, replayed on each group after the pass.

    Each group multiplies `calls` pairs from a pool of random words; the
    per-backend figure weights each group by the oracle calls it made in the
    pass, so it estimates the oracle time of the pass per call. A backend the
    workload does not use reads 0.
    """
    rng = random.Random(seed)
    weighted: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for backend, handle, used in groups:
        if not used or not handle.generators:
            continue
        pool = []
        for _ in range(64):
            x = handle.identity
            for _ in range(16):
                x = handle.mul(x, rng.choice(handle.generators))
            pool.append(x)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(calls)]
        mul = handle.mul
        began = now()
        for a, b in pairs:
            mul(a, b)
        us = (now() - began) / calls * 1e6
        for key in (backend, "all"):
            weighted[key][0] += us * used
            weighted[key][1] += used
    return {
        name: (weighted[key][0] / weighted[key][1] if weighted[key][1] else 0.0)
        for key, name in (
            ("all", "blackbox.mul_us"),
            ("semidirect", "blackbox.mul_us.semidirect"),
            ("table", "blackbox.mul_us.table"),
        )
    }
