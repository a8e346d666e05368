"""The names the traced benchmark patches stay bound.

``perfbench/run.py --trace 1`` wraps program functions and methods by
name: each workload's ``_install`` hands ``Tracer.wrap``/``Tracer.count``
an owner and an attribute, and the tracer reads it with ``getattr``. A
refactor that drops or renames one of them breaks only the traced run.
Installing every workload's hooks with the real tracer, then restoring
them, makes that a tier-1 failure instead. This module only reads
``perfbench/``.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD_MODULES = sorted(path.stem for path in PERFBENCH.glob("wl_*.py"))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_every_workload_module_is_found():
    assert len(WORKLOAD_MODULES) >= 4


@pytest.mark.parametrize("module_name", WORKLOAD_MODULES)
def test_install_binds_every_hook_and_restores(perfbench, module_name):
    Workload = perfbench("workloads").Workload
    Tracer = perfbench("tracing").Tracer
    module = perfbench(module_name)
    classes = [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Workload)
        and obj is not Workload
    ]
    assert classes, f"{module_name} defines no workload"
    for cls in classes:
        tracer = Tracer()
        try:
            cls()._install(tracer)
            patched = list(tracer._patches)
            assert patched, f"{cls.__name__}._install patched nothing"
        finally:
            tracer.restore()
        for owner, attr, original in patched:
            assert getattr(owner, attr) == original, (
                f"{cls.__name__}: {attr} not restored"
            )
