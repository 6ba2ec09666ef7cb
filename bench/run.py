"""Benchmark entry point: run one workload of vqgen for a fixed time and print
its metrics as one JSON line.

    python3 bench/run.py --workload train_staged --seed 1 --seconds 20 --trace 0

Run from the root of a vqgen source tree; the program is imported from ./src
and the metric oracles from ./tests. Inputs are made from --seed. With
--trace 0 the last line holds the end-to-end metrics, measured with no layer
wrappers installed; with --trace 1 it holds the per-layer metrics of a traced
run (see bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# One BLAS thread. With numpy's default of one per CPU, a single other busy
# process on a 2-CPU machine doubled the decode p50 and raised its p90 six-fold,
# because each threaded GEMM waits for a descheduled helper thread; with one
# thread the p50 held and the p90 mostly did. Idle, one thread costs the train
# step about 8% and decode and probe nothing. Set before numpy is imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded; None if unknown."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_vqgen(root: Path):
    src = root / "src"
    if not (src / "vqgen" / "cli.py").is_file():
        raise SystemExit(f"error: no vqgen sources under {src}; run from the root of a vqgen checkout")
    sys.path[:0] = [str(src), str(root / "tests"), str(HERE)]
    import vqgen.cli
    from vqgen import data, generation, metrics, model, multimodal, numerics, probe, training

    class VQ:
        pass

    vq = VQ()
    for module in (vqgen.cli, data, generation, metrics, model, multimodal, numerics, probe, training):
        setattr(vq, module.__name__.rsplit(".", 1)[1], module)
    return vq


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in BLAS_ENV:
        os.environ[name] = "1"
    root = Path.cwd()
    vq = import_vqgen(root)
    from tracing import Tracer
    from workloads import WORKLOADS, Cli, OperationFailed
    import checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls, scale = WORKLOADS[args.workload]
    out_root = root / "bench_out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_root))
    try:
        cli = Cli(vq)
        workload = cls(vq, cli, args.seed, scale)
        modules = {name: getattr(vq, name) for name in
                   ("data", "generation", "metrics", "model", "multimodal", "numerics", "probe", "training")}
        setup_s = []
        for k in range(SETUP_REPEATS):
            # a traced run traces its last set-up too, for the layers only set-up uses
            setup_tracer = Tracer(modules) if args.trace and k == SETUP_REPEATS - 1 else None
            with setup_tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                workload.setup(work / f"setup{k}")
                setup_s.append(time.perf_counter() - t0)

        rounds = 0

        def one_round() -> float:
            nonlocal rounds
            # free the reference cycles the last round left (each model's
            # Parameter <-> Tensor pair), as a fresh `vqgen` process would start
            gc.collect()
            t0 = time.perf_counter()
            try:
                workload.round()
                rounds += 1
            except OperationFailed as exc:
                print(f"failed: {exc}", file=sys.stderr)
            return time.perf_counter() - t0

        start = time.perf_counter()
        if args.trace == 0:
            with workload.clock_hooks():
                while True:
                    one_round()
                    if time.perf_counter() - start >= args.seconds:
                        break
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
                **workload.e2e_metrics(),
            }
        else:
            tracer = Tracer(modules)
            plain, traced = [], []
            while not traced or time.perf_counter() - start < args.seconds:
                plain.append(one_round())
                cli.tracer = tracer
                with tracer:
                    traced.append(one_round())
                cli.tracer = None
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0
            metrics = tracer.metrics(len(traced), sum(traced), overhead)
            metrics["data.synth_dataset_ms"]["value"] = 1000.0 * setup_tracer.self_s["data.synth_dataset"]

        correct = rounds > 0
        check_start = time.perf_counter()
        if correct:
            try:
                workload.check()
            except checks.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
            except Exception:  # an output the checks cannot read is a wrong output
                traceback.print_exc()
                correct = False
        info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                "setup_s": [round(s, 4) for s in setup_s], "check_s": round(time.perf_counter() - check_start, 3),
                "blas_threads": blas_threads(),
                "python": sys.version.split()[0], "numpy": __import__("numpy").__version__}
        print("info: " + json.dumps(info))
        print(json.dumps({"correct": correct, "attempted": cli.attempted, "failed": cli.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
