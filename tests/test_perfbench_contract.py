"""The benchmark's layer tracer against the current tree.

``perfbench/tracer.py`` wraps simulator methods by name, looked up in
each class's ``__dict__``; a renamed or deleted method makes the traced
benchmark run die with a ``KeyError``.  These tests install the layer
wrappers, exercise a traced run, and check that removal restores every
patched attribute.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.schedulers.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2006 import SPEC2006
from repro.workloads.synthetic import generate_trace

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_system(policy_name: str) -> CmpSystem:
    names = ["mcf", "hmmer"]
    config = SystemConfig(num_cores=len(names))
    mapper = config.mapper()
    traces = [
        generate_trace(SPEC2006[n], mapper, 1_500, partition=i, num_partitions=2)
        for i, n in enumerate(names)
    ]
    policy = make_policy(policy_name, num_threads=len(names))
    return CmpSystem(config, traces, policy, 1_500)


def test_install_and_uninstall_restore_every_attribute(tracer_module):
    tracer = tracer_module.Tracer()
    tracer_module.install_layers(tracer)
    try:
        patches = list(tracer._patches)
        assert patches, "install_layers wrapped nothing"
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    assert tracer._patches == []
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_traced_run_ticks_every_dram_cycle(tracer_module):
    """Under the tracer, live ticks equal simulated DRAM cycles: the
    benchmark's ``sim.live_frac`` reads 1.0 and its jump spans stay
    empty."""
    tracer = tracer_module.Tracer()
    system = small_system("stfm")
    tracer_module.install_layers(tracer)
    try:
        system.run()
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    counts = tracer.counts()
    assert counts["sim.ticks"] == system.now // system.config.timing.dram_cycle
    assert spans["controller.tick"][0] == counts["sim.ticks"]
    assert spans["sim.run"][0] == 1
    for name in (
        "sim.channel_quiet_bound",
        "sim.fast_forward_drain",
        "sim.inertia",
        "cpu.advance_compute",
        "cpu.bulk_advance",
        "schedulers.fast_forward",
    ):
        assert name not in spans
