"""The traced benchmark wraps grpext functions by name: every name must resolve.

bench/spans.py is loaded by path, as a plain module, and left unchanged. A
rename or a signature change in grpext that drops one of its targets would
otherwise break only the traced benchmark run, at Tracer.install. Its `mul`
replay, the per-backend oracle metric, must time both backends.
"""

import importlib.util
import time
from pathlib import Path

import grpext
import grpext.cli  # bench/run.py imports it too: the CLI spans live there

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_and_counted_target_resolves():
    spans = _load_spans()
    targets = spans.SPANNED + spans.COUNTED
    assert targets
    for module, attr, _ in targets:
        owner = getattr(grpext, module)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(method)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
    for module in spans.MODULES:
        assert hasattr(grpext, module), module


def test_tracer_installs_and_restores_every_target():
    spans = _load_spans()
    targets = spans.SPANNED + spans.COUNTED

    def current():
        out = []
        for module, attr, _ in targets:
            owner = getattr(grpext, module)
            if "." in attr:
                cls_name, method = attr.split(".")
                out.append(vars(getattr(owner, cls_name))[method])
            else:
                out.append(getattr(owner, attr))
        return out

    before = current()
    tracer = spans.Tracer(grpext)
    tracer.install()
    try:
        installed = current()
    finally:
        tracer.uninstall()
    assert all(a is not b for a, b in zip(before, installed))
    assert all(a is b for a, b in zip(before, current()))


def test_mul_replay_times_both_backends():
    spans = _load_spans()
    texts = {"table": "table 3\n0 1 2\n1 2 0\n2 0 1\n", "semidirect": "semidirect\nA 7\nm 3\n2\n"}
    groups = []
    for backend, text in texts.items():
        G = grpext.blackbox.load_group(text)
        grpext.decomp.standard_decomposition(G)
        groups.append((backend, G, G.operation_count))
    values = spans.mul_us(groups, 0, time.perf_counter, calls=2_000)
    assert values["blackbox.mul_us.table"] > 0
    assert values["blackbox.mul_us.semidirect"] > 0
