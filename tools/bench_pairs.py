"""Run one benchmark workload on a base commit and on this tree, in pairs, and
write the comparison to BENCH_<workload>.json at the repository root.

    python3 tools/bench_pairs.py --base HEAD~1 --workload train_staged --pairs 10

The base commit is extracted with `git archive` into bench_out/base-<sha>/
(git-ignored; reused if it is already there). Pair k runs each tree's own
`bench/run.py --workload W --seed k --trace 0` for k = 1..N, the base first
in odd pairs and this tree first in even pairs. The run length is
`run_seconds` in this tree's BENCHMARK.json, and the end-to-end metrics, their
directions and their bounds come from the same file.

Each pair also keeps, per side, the run's operation counts and, from its
`info` line, its rounds, its set-up times (`setup_s` is their median) and
its `check_s`.

The file names the tracked files that differ from HEAD and the untracked
files git does not ignore when the runs start (`change_edited_files`), so a
run on an edited tree says which edits it measured. For each end-to-end
metric it holds every pair's values, the median and [Q1, Q3] on each side,
the pairs the change won (ties count for neither), whether the change's
median stays within its bound of the base's, and whether a gain is shown:
won in at least nine pairs of ten, and the medians differ by more than the
base's Q3 - Q1.

The exit code is 1 if any run fails, reports `correct: false` or counts a
failed operation; the file is written either way.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def edited_files() -> list[str]:
    """Tracked files that differ from HEAD, then untracked files not ignored."""
    return [*git("diff", "HEAD", "--name-only").splitlines(),
            *git("ls-files", "--others", "--exclude-standard").splitlines()]


def extract(sha: str) -> Path:
    """The tree of commit `sha` under bench_out/base-<sha>/."""
    dest = ROOT / "bench_out" / f"base-{sha}"
    if dest.is_dir():
        return dest
    tmp = dest.with_name(dest.name + ".partial")
    shutil.rmtree(tmp, ignore_errors=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    tmp.rename(dest)
    return dest


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run: its info line and its result line, or the error."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    info = [json.loads(line[len("info: "):]) for line in lines if line.startswith("info: ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not info:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return {"info": info[0], **result}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: both sides' median and quartiles, pairs won, the bound
    check and whether a gain is shown. `pairs` holds {"base": {name: value},
    "change": {name: value}} dicts; `end_to_end` is BENCHMARK.json's list."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = -1.0 if lower else 1.0  # sign * (change - base) > 0 is a win
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        b, c = quartiles(base), quartiles(change)
        limit = b["median"] * (1.0 + spec["bound"] if lower else 1.0 - spec["bound"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base": b,
            "change": c,
            "change_over_base": c["median"] / b["median"] - 1.0 if b["median"] else None,
            "pairs_won": won,
            "pairs": len(pairs),
            "within_bound": c["median"] <= limit if lower else c["median"] >= limit,
            "gain_shown": won >= math.ceil(0.9 * len(pairs))
            and sign * (c["median"] - b["median"]) > b["q3"] - b["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"]
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    trees = {"base": extract(base_sha), "change": ROOT}
    edited = edited_files()
    names = [m["name"] for m in spec["end_to_end"]]

    pairs, failures, infos = [], [], []
    for k in range(1, args.pairs + 1):
        order = ("base", "change") if k % 2 else ("change", "base")
        pair = {"seed": k, "first": order[0]}
        for side in order:
            run = run_once(trees[side], spec["command"], args.workload, k, seconds)
            print(f"pair {k} {side}: " + json.dumps(run.get("metrics", run)), file=sys.stderr)
            if "error" in run or not run["correct"] or run["failed"]:
                failures.append({"seed": k, "side": side, **{key: run.get(key) for key in
                                 ("error", "correct", "attempted", "failed")}})
            if "error" in run:
                continue
            infos.append(run["info"])
            pair[side] = {name: run["metrics"][name]["value"] for name in names}
            pair[side + "_ops"] = {"attempted": run["attempted"], "failed": run["failed"]}
            pair[side + "_info"] = {key: run["info"][key] for key in ("rounds", "setup_s", "check_s")}
        pairs.append(pair)

    complete = [p for p in pairs if "base" in p and "change" in p]
    env = {key: list(dict.fromkeys(i[key] for i in infos)) for key in ("python", "numpy", "blas_threads")}
    report = {
        "workload": args.workload,
        "base": base_sha,
        "change": git("rev-parse", "HEAD"),
        "change_edited_files": edited,
        "seconds": seconds,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        **{key: vals[0] if len(vals) == 1 else vals for key, vals in env.items()},
        "pairs": pairs,
        "summary": summarize(complete, spec["end_to_end"]) if complete else {},
        "failures": failures,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
