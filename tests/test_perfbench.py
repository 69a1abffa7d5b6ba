"""The benchmark's tracing still finds what it patches, so a rename fails here first."""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

from futureworld.orchestrator import CycleConfig, Orchestrator

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_benchmark_tracing_finds_every_attribute_it_patches(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling spans.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/, write nothing there
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)

    orch = Orchestrator(CycleConfig(), tmp_path)
    tracer = run.Tracer()
    try:
        run.install_tracing(tracer)  # raises AttributeError on an attribute it cannot find
        run.time_phases(orch, tracer)
        patched = list(tracer._undo)
    finally:
        tracer.restore()
    assert patched
    assert set(run.PHASES) <= set(vars(orch))  # each phase is wrapped on the instance
    restored = [inspect.getattr_static(owner, attr) is raw for owner, attr, raw in patched]
    assert all(restored)
