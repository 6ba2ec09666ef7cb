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


def test_probe_pair_starts_at_its_image_input(monkeypatch):
    # the benchmark's per-pair clock starts at each IMAGE_ONLY `assemble_input`
    # call and stops at the next one, so each pair's encode must fall between
    # its own image input and the next pair's
    events = []
    assemble, encode_states = multimodal.assemble_input, model.encode_states

    def record_assemble(mode, *args, **kwargs):
        events.append(mode)
        return assemble(mode, *args, **kwargs)

    def record_encode(*args, **kwargs):
        events.append("encode")
        return encode_states(*args, **kwargs)

    monkeypatch.setattr(multimodal, "assemble_input", record_assemble)
    monkeypatch.setattr(model, "encode_states", record_encode)
    config = model.ModelConfig(num_layers=2, num_heads=2, model_dim=8, ffn_dim=16, vocab_size=12,
                               max_positions=16, feature_dim=4, num_regions=2)
    rng = np.random.default_rng(0)
    visual = multimodal.VisualSequence(rng.normal(size=(2, 4)), rng.random((2, 4)), [2.0, 1.0])
    pairs = [(visual, [6 + k, 7]) for k in range(3)]
    probe.xsim_per_layer(model.init_parameters(config, 1), pairs)
    assert events == [multimodal.IMAGE_ONLY, multimodal.CAPTION_ONLY, "encode"] * 3
