"""Print the sha256 of every artefact of a fixed vqgen pipeline.

The pipeline runs in a fresh temporary directory, under fixed relative paths,
so two source trees that compute the same bytes print the same lines:

    synth -> train stages 1, 2 and 3 in three configs (f32, f64, and f64 with
    type embeddings) -> generate in modes both, image and caption from each
    stage-3 checkpoint -> probe over each config's three checkpoints plus a
    random model

Checkpoints, training logs and generated files embed the command line, which
is why the paths must not change between runs. Compare two trees with

    python3 tools/artifact_digests.py > new.txt
    python3 tools/artifact_digests.py --src OTHER_TREE/src > old.txt
    diff old.txt new.txt

Each line is `sha256  name`; the exit code is non-zero if any command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

MODEL = """\
num_layers=4
num_heads=4
model_dim=128
ffn_dim=512
max_positions=64
feature_dim=32
num_regions=8
epochs=5
batch_size=8
max_steps=25
"""

CONFIGS = {
    "f32": MODEL + "dtype=float32\n",
    "f64": MODEL + "dtype=float64\n",
    "f64type": MODEL + "dtype=float64\nuse_type_embeddings=true\n",
}

SEED = "7"


def pipeline() -> list[list[str]]:
    """Every vqgen command of the pipeline, in order, with relative paths."""
    commands = [["synth", "--out", "data", "--seed", SEED, "--train", "40", "--val", "10",
                 "--test", "10", "--regions", "8", "--feature-dim", "32"]]
    for name in CONFIGS:
        train = ["train", "--data", "data", "--config", f"{name}.cfg", "--seed", SEED]
        s1, s2, s3 = (f"{name}/s{k}.ckpt" for k in (1, 2, 3))
        commands += [
            train + ["--stage", "1", "--out", s1, "--log", f"{name}/s1.log"],
            train + ["--stage", "2", "--out", s2, "--log", f"{name}/s2.log",
                     "--init-stage1", s1],
            train + ["--stage", "3", "--out", s3, "--log", f"{name}/s3.log",
                     "--init-stage1", s1, "--init-stage2", s2, "--lr", "3e-4"],
        ]
        for mode in ("both", "image", "caption"):
            commands.append(["generate", "--data", "data", "--split", "test", "--ckpt", s3,
                             "--mode", mode, "--out", f"{name}/gen-{mode}.tsv",
                             "--seed", SEED])
        commands.append(["probe", "--data", "data", "--split", "val", "--ckpt", s1,
                         "--ckpt", s2, "--ckpt", s3, "--include-random",
                         "--out", f"{name}/probe.tsv", "--seed", SEED])
    return commands


def digests(root: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.suffix != ".cfg"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", default=str(REPO_SRC),
                        help="the src/ directory of the tree to run (default: this tree's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from vqgen import cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="vqgen-digests-") as tmp:
        root = Path(tmp)
        os.chdir(root)
        try:
            for name, text in CONFIGS.items():
                (root / f"{name}.cfg").write_text(text)
                (root / name).mkdir()
            for command in pipeline():
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    code = cli.main(command)
                if code != 0:
                    print(f"vqgen {' '.join(command)} exited {code}", file=sys.stderr)
                    return 1
            print("\n".join(digests(root)))
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
