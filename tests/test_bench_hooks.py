"""The benchmark wraps vqgen functions by module attribute name, from outside
the program. These tests fail when a rename or deletion in `src/` removes a
name the benchmark looks up, instead of leaving it to break `bench/run.py`."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from vqgen import data, generation, metrics, model, multimodal, numerics, probe, training

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {
    "data": data,
    "generation": generation,
    "metrics": metrics,
    "model": model,
    "multimodal": multimodal,
    "numerics": numerics,
    "probe": probe,
    "training": training,
}
CLOCK_HOOKS = {
    ("training", "stage_loss"),
    ("training", "run_stage"),
    ("numerics", "adam_step"),
    ("generation", "generate"),
    ("probe", "xsim_per_layer"),
    ("multimodal", "assemble_input"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapper():
    tracing = load_tracing()
    before = {(name, attr): getattr(mod, attr) for name, mod in MODULES.items() for attr in dir(mod)}
    with tracing.Tracer(MODULES) as tracer:
        assert tracer._saved
        for mod, attr, original in tracer._saved:
            assert getattr(mod, attr) is not original, f"{mod.__name__}.{attr}"
    after = {(name, attr): getattr(mod, attr) for name, mod in MODULES.items() for attr in dir(mod)}
    assert all(after[key] is value for key, value in before.items())


def test_tracer_times_the_per_op_finiteness_check():
    # a recorded op reaches `_check_finite` through the module attribute the
    # tracer wraps, so its `numerics.check_finite` span keeps counting
    tracing = load_tracing()
    x, w, b = (numerics.Tensor(np.ones(shape)) for shape in ((2, 3), (3, 4), (4,)))
    with tracing.Tracer(MODULES) as tracer:
        numerics.affine(x, w, b)
    assert tracer.self_s["numerics.check_finite"] > 0


def test_clock_hook_targets_exist():
    source = (BENCH / "workloads.py").read_text()
    found = set(re.findall(r'_patched\(\s*(?:self\.)?vq\.(\w+),\s*"(\w+)"', source))
    assert CLOCK_HOOKS <= found
    for module, attr in found:
        assert callable(getattr(MODULES[module], attr, None)), f"{module}.{attr}"


def test_bench_selftest_passes():
    # the benchmark's output checks read objects from `src/` (input slots,
    # parameter arrays, generated tokens); its selftest runs every one of them
    # at tiny scale, so a deletion the benchmark depends on fails here
    root = BENCH.parent
    result = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=root,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
