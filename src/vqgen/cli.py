"""Pipeline entry point: synthesize data, run training stages, generate
questions, score them, and probe cross-modal alignment.

Exit codes: 0 success, 2 usage, 3 data/format error, 4 missing prerequisite,
5 numeric failure. Errors print one machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import data as dt
from . import generation as gen
from . import metrics as mx
from . import model as md
from . import multimodal as mm
from . import numerics as nm
from . import probe as pb
from . import training as tr

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PREREQUISITE = 4
EXIT_NUMERIC = 5

STAGE_FLAGS = {
    "1": tr.STAGE1,
    "2": tr.STAGE2,
    "2u": tr.STAGE2_UNFREEZE,
    "3": tr.STAGE3,
    "3scratch": tr.STAGE3_SCRATCH,
}

GENERATE_MODES = {
    "caption": mm.CAPTION_ONLY,
    "image": mm.IMAGE_ONLY,
    "both": mm.IMAGE_PLUS_CAPTION,
}

_MODEL_FIELDS = {f.name for f in fields(md.ModelConfig)}
_PLAN_FIELDS = {
    "epochs": int,
    "batch_size": int,
    "base_lr": float,
    "warmup_fraction": float,
    "dropout": float,
    "grad_clip": float,
    "max_steps": int,
    "dtype": str,
}


class UsageError(ValueError):
    pass


def _read_config(path, fixed: dict, source: str) -> tuple[md.ModelConfig, dict]:
    """Parse a `--config` file (none when `path` is None) into the model config
    and the training-plan values it sets.

    `fixed` holds the model values `source` (the data or a checkpoint) already
    decides: they fill the model keys the file leaves out, and a model key the
    file sets must agree with them. Every key must be known and every value
    must parse; whether a plan value suits training is left to `StagePlan`.
    """
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8") if path is not None else ""
    except OSError as exc:
        raise dt.FormatError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise dt.FormatError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _MODEL_FIELDS and key not in _PLAN_FIELDS:
            raise dt.FormatError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise dt.FormatError(f"{path}:{lineno}: config key {key!r} is set twice")
        values[key] = value
    model_values = {key: raw for key, raw in values.items() if key in _MODEL_FIELDS}
    config = md.ModelConfig.from_dict({**fixed, **model_values})
    for key in model_values:
        if key in fixed and getattr(config, key) != fixed[key]:
            raise md.ConfigError(f"config {key} {getattr(config, key)} != {source} {fixed[key]}")
    plan: dict = {}
    for key, cast in _PLAN_FIELDS.items():
        if key in values:
            try:
                plan[key] = cast(values[key])
            except ValueError:
                raise dt.FormatError(
                    f"{path}: {key} must be {cast.__name__}, got {values[key]!r}"
                ) from None
    return config, plan


def _print_run_header(args, config: md.ModelConfig | None) -> None:
    print(f"seed: {args.seed}")
    if config is not None:
        resolved = " ".join(f"{k}={v}" for k, v in config.to_dict().items())
        print(f"config: {resolved}")


def _command_line(argv) -> str:
    return "vqgen " + " ".join(argv)


def _meta(args, argv) -> dict:
    return {"command": _command_line(argv), "seed": args.seed}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args, argv) -> int:
    _print_run_header(args, None)
    print(
        f"config: train={args.train} val={args.val} test={args.test} "
        f"refs_per_item={args.refs_per_item} num_regions={args.regions} "
        f"feature_dim={args.feature_dim}"
    )
    written = dt.synth_dataset(
        args.out,
        seed=args.seed,
        n_train=args.train,
        n_val=args.val,
        n_test=args.test,
        refs_per_item=args.refs_per_item,
        num_regions=args.regions,
        feature_dim=args.feature_dim,
        meta=_meta(args, argv),
    )
    for split, path in written.items():
        print(f"wrote {split}: {path}")
    return EXIT_OK


def _cmd_train(args, argv) -> int:
    split = dt.load_split(args.data, "train")
    config, plan_values = _read_config(
        args.config, {"vocab_size": len(split.vocab)}, "data vocabulary"
    )
    _print_run_header(args, config)

    stage = STAGE_FLAGS[args.stage]
    plan_kwargs = dict(
        stage=stage,
        seed=args.seed,
        init_stage1=args.init_stage1,
        init_stage2=args.init_stage2,
        **plan_values,
    )
    for name in ("epochs", "batch_size", "base_lr", "dropout", "max_steps"):
        flag = getattr(args, name)
        if flag is not None:
            plan_kwargs[name] = flag
    plan = tr.StagePlan(**plan_kwargs)

    result = tr.run_stage(plan, split, config)
    extras = {"stage": stage, "seed": args.seed, "command": _command_line(argv)}
    md.save_checkpoint(args.out, config, result.params, extras=extras)
    print(f"trained {stage}: steps={len(result.history)} final_loss={result.final_loss:.6f}")
    print(f"wrote checkpoint: {args.out}")
    if args.log:
        tr.write_training_log(args.log, result, meta=_meta(args, argv))
        print(f"wrote log: {args.log}")
    return EXIT_OK


def _cmd_generate(args, argv) -> int:
    if args.max_length < 1:
        raise UsageError(f"--max-length must be >= 1, got {args.max_length}")
    config, params, _ = md.load_checkpoint(args.ckpt)
    split = dt.load_split(args.data, args.split)
    split.check_model(config)
    _print_run_header(args, config)
    mode = GENERATE_MODES[args.mode]
    lines = []
    truncated = 0
    for item in split.items:
        inp = split.assemble(item, mode)
        room = config.max_positions - len(inp)  # the last step's mask takes the last slot
        if room < 1:
            raise md.ConfigError(f"item {item.id}: no room to generate within max_positions")
        out = gen.generate(params, inp, min(args.max_length, room))
        truncated += out.truncated
        lines.append(f"{item.id}\t{dt.decode_text(out.tokens, split.vocab)}")
    with md.write_atomically(args.out) as fh:
        fh.write("# " + json.dumps(_meta(args, argv), sort_keys=True) + "\n")
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} generated questions ({truncated} truncated): {args.out}")
    return EXIT_OK


def _read_generated(path) -> list[tuple[str, str]]:
    out, seen = [], set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise dt.FormatError(f"{path}:{lineno}: expected 'id<TAB>text'")
            item_id, text = line.split("\t", 1)
            if item_id in seen:
                raise dt.FormatError(f"{path}:{lineno}: id {item_id!r} appears twice")
            seen.add(item_id)
            out.append((item_id, text))
    return out


def _cmd_eval(args, argv) -> int:
    _print_run_header(args, None)
    print(f"config: data={args.data} split={args.split} generated={args.generated}")
    split = dt.load_split(args.data, args.split)
    by_id = {item.id: item for item in split.items}
    generated = _read_generated(args.generated)
    if not generated:
        raise dt.FormatError(f"{args.generated}: no generated questions found")
    candidates, references = [], []
    for item_id, text in generated:
        if item_id not in by_id:
            raise dt.FormatError(f"generated id {item_id!r} not present in {args.split} corpus")
        candidates.append(text)
        references.append(by_id[item_id].questions)
    corpus = mx.EvalCorpus.from_strings(candidates, references)
    report = mx.evaluate_corpus(corpus)
    mx.write_report(args.out, report, meta=_meta(args, argv))
    print(report.to_text(), end="")
    print(f"wrote report: {args.out}")
    return EXIT_OK


def _cmd_probe(args, argv) -> int:
    if not args.ckpt and not args.include_random:
        raise UsageError("probe needs at least one --ckpt or --include-random")
    if args.limit < 0:
        raise UsageError(f"--limit must be >= 0, got {args.limit}")
    split = dt.load_split(args.data, args.split)
    fixed, source = {"vocab_size": len(split.vocab)}, "data vocabulary"
    models = {}  # label -> checkpoint path, None for the random baseline
    for ckpt in [*(args.ckpt or []), *([None] if args.include_random else [])]:
        label = "random"
        if ckpt is not None:
            with open(ckpt, "rb") as fh:
                ck_config, extras = md.read_checkpoint_header(fh)
            if not models:
                fixed, source = ck_config.to_dict(), "checkpoint"
            elif ck_config.to_dict() != fixed:
                raise md.ConfigError(f"checkpoint {ckpt} disagrees with the first checkpoint's config")
            label = extras.get("stage", Path(ckpt).stem)
        if label in models:  # the random baseline comes last, so models[label] is a path
            raise UsageError(f"probe label {label!r} names both {models[label]} and "
                             f"{ckpt or '--include-random'}")
        models[label] = ckpt
    config, _ = _read_config(args.config, fixed, source)
    split.check_model(config)
    _print_run_header(args, config)

    pairs = []
    for item in split.items[: args.limit or None]:
        pairs.append((split.visual(item), dt.encode_text(item.caption, split.vocab)))
    tables = [  # one model is resident at a time: each is loaded for its own call
        pb.xsim_per_layer(md.load_checkpoint(ckpt)[1] if ckpt else pb.random_baseline(config),
                          pairs, label=label)
        for label, ckpt in models.items()
    ]
    pb.write_probe_table(args.out, tables, meta=_meta(args, argv))
    for table in tables:
        last = table.xsim[-1]
        print(f"xsim[{table.model_label}] last layer = {last:+.4f} over {table.items} pairs")
    print(f"wrote probe table: {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and error mapping
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vqgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic corpus + feature files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=int, default=500)
    p.add_argument("--val", type=int, default=100)
    p.add_argument("--test", type=int, default=100)
    p.add_argument("--refs-per-item", type=int, default=3)
    p.add_argument("--regions", type=int, default=8)
    p.add_argument("--feature-dim", type=int, default=32)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--data", required=True)
    p.add_argument("--stage", required=True, choices=sorted(STAGE_FLAGS))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="key=value model/plan config file")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="base_lr", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    p.add_argument("--init-stage1", default=None)
    p.add_argument("--init-stage2", default=None)
    p.add_argument("--log", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("generate", help="one generated question per corpus item")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--mode", required=True, choices=sorted(GENERATE_MODES))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-length", type=int, default=24)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("eval", help="score a generated-question file")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--generated", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("probe", help="per-layer cross-modal similarity table")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--ckpt", action="append", default=None)
    p.add_argument("--include-random", action="store_true")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=0)
    p.set_defaults(func=_cmd_probe)

    return parser


# every loader and input check raises a ValueError subclass
_DATA_ERRORS = (ValueError, nm.StateError, OSError)

_NUMERIC_ERRORS = (nm.NumericError,)


def _fail(code: int, exc: Exception) -> int:
    message = str(exc).replace("\n", " ")
    print(f"error: exit={code} kind={type(exc).__name__} msg={message}", file=sys.stderr)
    return code


def _check_output_dir(flag: str, path) -> None:
    """Fail before any work when the directory an output file goes to is missing."""
    if path is not None and not Path(path).parent.is_dir():
        raise NotADirectoryError(f"{flag} {path}: {Path(path).parent} is not a directory")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        if args.command != "synth":  # synth's --out is the directory it creates
            for flag in ("out", "log"):
                _check_output_dir(f"--{flag}", getattr(args, flag, None))
        return args.func(args, argv)
    except UsageError as exc:
        return _fail(EXIT_USAGE, exc)
    except tr.PrerequisiteError as exc:
        return _fail(EXIT_PREREQUISITE, exc)
    except _NUMERIC_ERRORS as exc:
        return _fail(EXIT_NUMERIC, exc)
    except _DATA_ERRORS as exc:
        return _fail(EXIT_DATA, exc)


if __name__ == "__main__":
    sys.exit(main())
