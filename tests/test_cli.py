import hashlib
import json
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vqgen import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(argv):
    return cli.main(argv)


def checksum(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


TOY_CONFIG = """
num_layers=2
num_heads=2
model_dim=32
ffn_dim=64
max_positions=48
feature_dim=16
num_regions=3
epochs=1
batch_size=8
max_steps=4
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train1 -> train2 -> train3 -> generate -> eval -> probe."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    cfg = root / "toy.cfg"
    cfg.write_text(TOY_CONFIG)
    assert run(["synth", "--out", str(data), "--seed", "5",
                "--train", "12", "--val", "4", "--test", "4",
                "--regions", "3", "--feature-dim", "16"]) == 0
    s1 = root / "s1.ckpt"
    s2 = root / "s2.ckpt"
    s3 = root / "s3.ckpt"
    base = ["train", "--data", str(data), "--config", str(cfg), "--seed", "5"]
    assert run(base + ["--stage", "1", "--out", str(s1), "--log", str(root / "s1.log")]) == 0
    assert run(base + ["--stage", "2", "--out", str(s2), "--init-stage1", str(s1)]) == 0
    assert run(base + ["--stage", "3", "--out", str(s3),
                       "--init-stage1", str(s1), "--init-stage2", str(s2)]) == 0
    gen_file = root / "gen.tsv"
    assert run(["generate", "--data", str(data), "--split", "test", "--ckpt", str(s3),
                "--mode", "both", "--out", str(gen_file), "--seed", "5"]) == 0
    report = root / "report.txt"
    assert run(["eval", "--data", str(data), "--split", "test",
                "--generated", str(gen_file), "--out", str(report), "--seed", "5"]) == 0
    probe_file = root / "probe.tsv"
    assert run(["probe", "--data", str(data), "--split", "val",
                "--ckpt", str(s1), "--ckpt", str(s3), "--include-random",
                "--out", str(probe_file), "--seed", "5"]) == 0
    return root, data, cfg, s1, s2, s3, gen_file, report, probe_file


def with_header_field(raw, index, value):
    """Feature file bytes with header u32 `index` (version, count, N, D_f) set."""
    header = list(struct.unpack("<IIII", raw[4:20]))
    header[index] = value
    return raw[:4] + struct.pack("<IIII", *header) + raw[20:]


def with_payload_value(raw, index, value):
    """Feature file bytes with payload f32 `index` set; with D_f=16 each region
    holds 16 features, 4 box coordinates and its score, 21 values."""
    payload = np.frombuffer(raw, dtype="<f4", offset=20).copy()
    payload[index] = value
    return raw[:20] + payload.tobytes()


FEATURE_FAULTS = [
    ("bad magic", lambda raw: b"VFEX" + raw[4:], "MagicError"),
    ("bad version", lambda raw: with_header_field(raw, 0, 2), "FormatError"),
    ("N off config", lambda raw: with_header_field(raw, 2, 4), "DimensionError"),
    ("D_f off config", lambda raw: with_header_field(raw, 3, 15), "DimensionError"),
    ("count 2^32-1", lambda raw: with_header_field(raw, 1, 2**32 - 1), "TruncatedError"),
    ("one byte cut", lambda raw: raw[:-1], "TruncatedError"),
    ("one byte added", lambda raw: raw + b"\0", "FormatError"),
    ("NaN feature", lambda raw: with_payload_value(raw, 3, np.nan), "FormatError"),
    ("NaN box", lambda raw: with_payload_value(raw, 21 + 17, np.nan), "FormatError"),
    ("NaN score", lambda raw: with_payload_value(raw, 20, np.nan), "FormatError"),
    ("box of 1.5", lambda raw: with_payload_value(raw, 16, 1.5), "FormatError"),
    ("relevance out of order", lambda raw: with_payload_value(raw, 21 + 20, 2.0), "FormatError"),
]


class TestPipeline:
    def test_all_artifacts_exist(self, pipeline):
        root, data, cfg, s1, s2, s3, gen_file, report, probe_file = pipeline
        for path in (s1, s2, s3, gen_file, report, probe_file, root / "s1.log",
                     data / "train.jsonl", data / "test.features"):
            assert Path(path).exists(), path

    def test_generated_file_schema(self, pipeline):
        *_, gen_file, _, _ = pipeline
        lines = gen_file.read_text().strip().split("\n")
        assert lines[0].startswith("# ")
        assert "command" in lines[0] and "seed" in lines[0]
        body = lines[1:]
        assert len(body) == 4
        assert all("\t" in line for line in body)

    def test_report_schema(self, pipeline):
        *_, report, _ = pipeline
        text = report.read_text()
        assert "bleu_1=" in text and "cider=" in text and text.startswith("# ")

    def test_probe_table_has_all_models(self, pipeline):
        *_, probe_file = pipeline
        text = probe_file.read_text()
        for label in ("stage1_caption_only", "stage3_joint", "random"):
            assert label in text

    def test_checkpoint_embeds_command_and_seed(self, pipeline):
        _, _, _, s1, *_ = pipeline
        from vqgen import model as md

        _, _, extras = md.load_checkpoint(s1)
        assert extras["stage"] == "stage1_caption_only"
        assert extras["seed"] == "5"
        assert extras["command"].startswith("vqgen train")

    def test_checkpoint_path_holding_a_newline(self, pipeline, tmp_path):
        # the command line the checkpoint embeds holds the newline
        from vqgen import model as md

        _, data, cfg, *_ = pipeline
        ckpt = tmp_path / "a\nb.ckpt"
        assert run(["train", "--data", str(data), "--config", str(cfg), "--seed", "5",
                    "--stage", "1", "--out", str(ckpt)]) == 0
        assert run(["probe", "--data", str(data), "--split", "val", "--ckpt", str(ckpt),
                    "--out", str(tmp_path / "probe.tsv")]) == 0
        assert md.load_checkpoint(ckpt)[2]["command"].endswith(f"--out {ckpt}")

    def test_generate_reports_truncations(self, pipeline, tmp_path, capsys):
        _, data, _, _, _, s3, *_ = pipeline
        out = tmp_path / "short.tsv"
        capsys.readouterr()
        assert run(["generate", "--data", str(data), "--split", "test", "--ckpt", str(s3),
                    "--mode", "both", "--max-length", "1", "--out", str(out)]) == 0
        # with room for one token, an item is truncated exactly when it did not stop at EOS
        texts = [line.split("\t", 1)[1] for line in out.read_text().splitlines()[1:]]
        truncated = sum(1 for text in texts if text)
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary == f"wrote 4 generated questions ({truncated} truncated): {out}"

    def test_generate_uses_the_last_position(self, tmp_path):
        # max_positions one above the longest caption input: its last step's
        # [MASK] takes the last position, which leaves room for one token
        from vqgen import data as dt
        from vqgen import generation as gen
        from vqgen import model as md

        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "1", "--test", "3"]) == 0
        split = dt.load_split(data, "test")
        inputs = [split.assemble(item, cli.GENERATE_MODES["caption"]) for item in split.items]
        config = md.ModelConfig(num_layers=1, num_heads=2, model_dim=16, ffn_dim=32,
                                vocab_size=len(split.vocab),
                                max_positions=max(len(inp) for inp in inputs) + 1)
        ckpt = tmp_path / "s.ckpt"
        md.save_checkpoint(ckpt, config, md.init_parameters(config, 0))
        out = tmp_path / "g.tsv"
        assert run(["generate", "--data", str(data), "--split", "test", "--ckpt", str(ckpt),
                    "--mode", "caption", "--max-length", "1", "--out", str(out)]) == 0
        params = md.load_checkpoint(ckpt)[1]
        expected = [dt.decode_text(gen.generate(params, inp, 1).tokens,
                                   split.vocab) for inp in inputs]
        texts = [line.split("\t", 1)[1] for line in out.read_text().splitlines()[1:]]
        assert texts == expected


class TestDeterminism:
    def test_identical_argv_identical_artifacts(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            data = tmp_path / name / "data"
            ckpt = tmp_path / name / "s1.ckpt"
            gen_file = tmp_path / name / "gen.tsv"
            cfg = tmp_path / name / "toy.cfg"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(TOY_CONFIG)
            # identical argv apart from the unavoidable path prefix
            assert run(["synth", "--out", str(data), "--seed", "9",
                        "--train", "8", "--val", "2", "--test", "2",
                        "--regions", "3", "--feature-dim", "16"]) == 0
            assert run(["train", "--data", str(data), "--config", str(cfg), "--seed", "9",
                        "--stage", "1", "--out", str(ckpt)]) == 0
            assert run(["generate", "--data", str(data), "--split", "val",
                        "--ckpt", str(ckpt), "--mode", "caption",
                        "--out", str(gen_file), "--seed", "9"]) == 0
            outs.append((checksum(data / "train.features"),
                         gen_file.read_text().split("\n", 1)[1]))
        assert outs[0] == outs[1]


class TestErrors:
    def test_stage3_without_prereq_exits_4(self, tmp_path):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "1", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        code = run(["train", "--data", str(data), "--stage", "3",
                    "--out", str(tmp_path / "x.ckpt")])
        assert code == 4

    def test_missing_prereq_file_exits_4(self, tmp_path):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "1", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        code = run(["train", "--data", str(data), "--stage", "2",
                    "--init-stage1", str(tmp_path / "missing.ckpt"),
                    "--out", str(tmp_path / "x.ckpt")])
        assert code == 4

    def test_unknown_flag_exits_2(self):
        assert run(["synth", "--oops", "x"]) == 2

    def test_missing_data_exits_3(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope"), "--stage", "1",
                    "--out", str(tmp_path / "x.ckpt")]) == 3

    def test_malformed_config_exits_3(self, tmp_path, capsys):
        from vqgen import data as dt
        from vqgen import model as md

        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "1", "--test", "1"]) == 0
        # a checkpoint that fits the data: synth's default region count and feature dim
        ckpt = tmp_path / "s.ckpt"
        config = md.ModelConfig(num_layers=1, num_heads=2, model_dim=16, ffn_dim=32,
                                vocab_size=len(dt.load_split(data, "train").vocab))
        md.save_checkpoint(ckpt, config, md.init_parameters(config, 0))
        cfg = tmp_path / "bad.cfg"
        missing = tmp_path / "nonexistent.cfg"
        out = tmp_path / "x.out"
        train = ["train", "--stage", "1"]
        probe = ["probe", "--include-random", "--split", "val"]
        probe_ckpt = ["probe", "--ckpt", str(ckpt), "--split", "val"]
        for argv, text, key in [(train, "not_a_real_key=3\n", "not_a_real_key"),
                                (train, TOY_CONFIG + "use_type_embeddings=yes\n",
                                 "use_type_embeddings"),
                                (train, TOY_CONFIG + "num_heads=0\n", "num_heads"),
                                (train, TOY_CONFIG + "num_layers=abc\n", "num_layers"),
                                (train + ["--batch-size", "0"], "\n", "batch_size=0"),
                                (train, "batch_size=0\n", "batch_size=0"),
                                (train, "batch_size=-3\n", "batch_size=-3"),
                                (train, "epochs=0\n", "epochs=0"),
                                (train, "max_steps=0\n", "max_steps=0"),
                                (train, "base_lr=nan\n", "base_lr=nan"),
                                (train, "grad_clip=nan\n", "grad_clip=nan"),
                                (train, "warmup_fraction=1.5\n", "warmup_fraction=1.5"),
                                (probe, TOY_CONFIG + "use_type_embeddings=2\n",
                                 "use_type_embeddings"),
                                (probe, "dropout=abc\n", "dropout"),
                                (train, "max_steps=1\nmax_steps=2\n",
                                 f"{cfg}:2: config key 'max_steps'"),
                                (probe, "dropout=0.1\ndropout=0.2\n",
                                 f"{cfg}:2: config key 'dropout'"),
                                (probe_ckpt, None, "nonexistent.cfg"),
                                (probe_ckpt, "num_layers=3\n", "num_layers")]:
            if text is not None:
                cfg.write_text(text)
            capsys.readouterr()
            path = cfg if text is not None else missing
            code = run(argv + ["--data", str(data), "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 3, text
            assert len(err.strip().splitlines()) == 1 and key in err
            assert not out.exists()

    def test_corpus_questions_not_a_list_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "1", "--test", "1"]) == 0
        train = data / "train.jsonl"
        lines = train.read_text().splitlines()
        record = json.loads(lines[2])
        record["questions"] = "what color is the cube ?"  # a string, not a list of them
        lines[2] = json.dumps(record)
        train.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["train", "--data", str(data), "--stage", "1",
                    "--out", str(tmp_path / "x.ckpt")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1 and "train.jsonl:3" in err
        assert not (tmp_path / "x.ckpt").exists()

    def test_config_bool_spelling_train(self, tmp_path):
        from vqgen import model as md

        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "1", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG.replace("num_layers=2", "num_layers=1").replace(
            "max_steps=4", "max_steps=1") + "use_type_embeddings=True\n")
        ckpt = tmp_path / "x.ckpt"
        assert run(["train", "--data", str(data), "--config", str(cfg),
                    "--stage", "1", "--out", str(ckpt)]) == 0
        config, params, _ = md.load_checkpoint(ckpt)
        assert config.use_type_embeddings is True
        assert "embeddings.type" in params

    @pytest.mark.parametrize("rate", ["1.0", "1.5", "-0.1"])
    def test_dropout_outside_unit_interval_exits_3(self, tmp_path, capsys, rate):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "1", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["train", "--data", str(data), "--config", str(cfg), "--stage", "1",
                        "--dropout", rate, "--out", str(tmp_path / "x.ckpt")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert "dropout" in err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_exits_5(self, tmp_path):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "8", "--val", "1", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG + "grad_clip=0\ndtype=float32\n")
        code = run(["train", "--data", str(data), "--config", str(cfg), "--seed", "1",
                    "--stage", "1", "--lr", "1e30", "--max-steps", "30",
                    "--out", str(tmp_path / "x.ckpt")])
        assert code == 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_names_op_stage_and_step(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "8", "--val", "1", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG + "grad_clip=0\ndtype=float32\n")
        capsys.readouterr()
        assert run(["train", "--data", str(data), "--config", str(cfg), "--seed", "1",
                    "--stage", "1", "--lr", "1e30", "--max-steps", "30",
                    "--out", str(tmp_path / "x.ckpt")]) == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert re.search(r"kind=NumericError msg=\w+ produced non-finite values "
                         r"at stage=stage1_caption_only step=\d+ lr=", err[0]), err[0]

    def test_checkpoint_data_mismatch_exits_3(self, tmp_path, pipeline):
        _, data, cfg, s1, *_ = pipeline
        other = tmp_path / "other"
        assert run(["synth", "--out", str(other), "--seed", "2",
                    "--train", "6", "--val", "2", "--test", "2",
                    "--regions", "5", "--feature-dim", "20"]) == 0
        code = run(["generate", "--data", str(other), "--split", "val",
                    "--ckpt", str(s1), "--mode", "caption",
                    "--out", str(tmp_path / "g.tsv")])
        assert code == 3

    @staticmethod
    def nan_checkpoint(tmp_path, s1):
        from vqgen import model as md

        config, params, extras = md.load_checkpoint(s1)
        params["layer0.ffn.w1"].value.data[0, 0] = float("nan")
        bad = tmp_path / "nan.ckpt"
        md.save_checkpoint(bad, config, params, extras)
        return bad

    def test_nan_weight_generate_exits_3(self, tmp_path, pipeline, capsys):
        _, data, _, s1, *_ = pipeline
        bad = self.nan_checkpoint(tmp_path, s1)
        capsys.readouterr()
        code = run(["generate", "--data", str(data), "--split", "test", "--ckpt", str(bad),
                    "--mode", "caption", "--out", str(tmp_path / "g.tsv")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert "CheckpointError" in err and "layer0.ffn.w1" in err

    def test_nan_weight_probe_exits_3(self, tmp_path, pipeline, capsys):
        _, data, _, s1, *_ = pipeline
        bad = self.nan_checkpoint(tmp_path, s1)
        capsys.readouterr()
        code = run(["probe", "--data", str(data), "--split", "val", "--ckpt", str(bad),
                    "--out", str(tmp_path / "probe.tsv")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert "CheckpointError" in err and "layer0.ffn.w1" in err
        assert not (tmp_path / "probe.tsv").exists()

    def test_checkpoint_trailing_bytes_exits_3(self, tmp_path, pipeline, capsys):
        _, data, _, s1, *_ = pipeline
        bad = tmp_path / "trailing.ckpt"
        bad.write_bytes(s1.read_bytes() + b"\x00\x00\x00\x00")
        capsys.readouterr()
        code = run(["generate", "--data", str(data), "--split", "test", "--ckpt", str(bad),
                    "--mode", "caption", "--out", str(tmp_path / "g.tsv")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert "CheckpointError" in err

    def test_probe_negative_limit_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "4", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG)
        capsys.readouterr()
        code = run(["probe", "--data", str(data), "--split", "val", "--config", str(cfg),
                    "--include-random", "--limit", "-3", "--out", str(tmp_path / "probe.tsv")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "--limit" in err
        assert not (tmp_path / "probe.tsv").exists()

    def test_probe_empty_caption_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "2", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        val = data / "val.jsonl"
        lines = val.read_text().splitlines()
        record = json.loads(lines[-1])
        record["caption"] = ""
        lines[-1] = json.dumps(record)
        val.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG)
        capsys.readouterr()
        code = run(["probe", "--data", str(data), "--split", "val", "--config", str(cfg),
                    "--include-random", "--out", str(tmp_path / "probe.tsv")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert "ProbeError" in err

    @pytest.mark.parametrize("case", ["same checkpoint twice", "stage random and --include-random"])
    def test_probe_duplicate_label_exits_2(self, tmp_path, pipeline, capsys, monkeypatch, case):
        from vqgen import model as md
        from vqgen import probe as pb

        _, data, _, s1, _, s3, *_ = pipeline
        if case == "same checkpoint twice":
            args, label, sources = ["--ckpt", str(s3), "--ckpt", str(s3)], "stage3_joint", (s3, s3)
        else:
            config, params, _ = md.load_checkpoint(s1)
            named = tmp_path / "named.ckpt"
            md.save_checkpoint(named, config, params, extras={"stage": "random"})
            args, label, sources = ["--ckpt", str(named), "--include-random"], "random", (
                named, "--include-random")

        def no_probe(*args, **kwargs):
            pytest.fail("a pair was probed before the labels were checked")

        monkeypatch.setattr(pb, "xsim_per_layer", no_probe)
        out = tmp_path / "probe.tsv"
        capsys.readouterr()
        code = run(["probe", "--data", str(data), "--split", "val", *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert repr(label) in err and all(str(source) in err for source in sources)
        assert not out.exists()

    @pytest.mark.parametrize("stage, inits", [
        ("1", ["--init-stage1", "s3"]),
        ("1", ["--init-stage2", "s2"]),
        ("2", ["--init-stage1", "s1", "--init-stage2", "s2"]),
        ("2u", ["--init-stage1", "s1", "--init-stage2", "s2"]),
    ])
    def test_unused_init_checkpoint_exits_4(self, tmp_path, pipeline, capsys, monkeypatch,
                                            stage, inits):
        from vqgen import training as tr

        def no_training(*args, **kwargs):
            pytest.fail("run_stage called with an init checkpoint the stage never reads")

        monkeypatch.setattr(tr, "run_stage", no_training)
        root, data, cfg, *_ = pipeline
        inits = [str(root / f"{arg}.ckpt") if arg[0] == "s" else arg for arg in inits]
        out = tmp_path / "x.ckpt"
        capsys.readouterr()
        code = run(["train", "--data", str(data), "--config", str(cfg), "--stage", stage,
                    *inits, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert len(err.strip().splitlines()) == 1 and "PrerequisiteError" in err
        assert not out.exists()

    def test_eval_duplicate_id_exits_3(self, tmp_path, pipeline, capsys):
        _, data, *_, gen_file, _, _ = pipeline
        lines = gen_file.read_text().splitlines()
        dup = tmp_path / "dup.tsv"
        dup.write_text("\n".join([*lines, lines[-1]]) + "\n")
        item_id = lines[-1].split("\t")[0]
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--split", "test",
                    "--generated", str(dup), "--out", str(tmp_path / "r.txt")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert f"{dup}:{len(lines) + 1}:" in err and repr(item_id) in err
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("corrupt, kind", [f[1:] for f in FEATURE_FAULTS],
                             ids=[f[0] for f in FEATURE_FAULTS])
    def test_corrupt_feature_file_exits_3(self, tmp_path, capsys, corrupt, kind):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "2", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        features = data / "val.features"
        features.write_bytes(corrupt(features.read_bytes()))
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG)
        capsys.readouterr()
        code = run(["probe", "--data", str(data), "--split", "val", "--config", str(cfg),
                    "--include-random", "--out", str(tmp_path / "probe.tsv")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert f"kind={kind} " in err and str(features) in err
        assert not (tmp_path / "probe.tsv").exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1",
                    "--train", "4", "--val", "1", "--test", "1",
                    "--regions", "3", "--feature-dim", "16"]) == 0
        argv = {
            "synth": ["synth", "--out", str(tmp_path / "other")],
            "train": ["train", "--data", str(data), "--stage", "1",
                      "--out", str(tmp_path / "x.ckpt")],
        }[command]
        capsys.readouterr()
        assert run(argv + ["--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "UsageError" in err and "--seed" in err and "-1" in err
        assert not (tmp_path / "other").exists() and not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("length", ["0", "-2"])
    def test_generate_max_length_below_one_exits_2(self, tmp_path, capsys, length):
        # rejected before the (missing) checkpoint and data are read
        capsys.readouterr()
        code = run(["generate", "--data", str(tmp_path / "none"), "--ckpt",
                    str(tmp_path / "none.ckpt"), "--mode", "both",
                    "--out", str(tmp_path / "g.tsv"), "--max-length", length])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "--max-length" in err and length in err


    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_train_output_dir_missing_exits_3_before_training(self, tmp_path, pipeline, capsys,
                                                               monkeypatch, flag):
        from vqgen import training as tr

        def no_training(*args, **kwargs):
            pytest.fail("run_stage called with an unwritable output path")

        monkeypatch.setattr(tr, "run_stage", no_training)
        _, data, cfg, *_ = pipeline
        ckpt, log, missing = tmp_path / "s1.ckpt", tmp_path / "s1.log", tmp_path / "none" / "s1.x"
        paths = {"--out": ckpt, "--log": log, flag: missing}
        capsys.readouterr()
        code = run(["train", "--data", str(data), "--config", str(cfg), "--stage", "1",
                    "--out", str(paths["--out"]), "--log", str(paths["--log"])])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert f"{flag} {missing}" in err
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.parametrize("command", ["generate", "eval", "probe"])
    def test_output_parent_not_a_directory_exits_3(self, tmp_path, pipeline, capsys, command):
        _, data, _, s1, _, _, gen_file, *_ = pipeline
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        out = plain / "out.txt"
        argv = {
            "generate": ["generate", "--data", str(data), "--ckpt", str(s1), "--mode", "caption"],
            "eval": ["eval", "--data", str(data), "--generated", str(gen_file)],
            "probe": ["probe", "--data", str(data), "--include-random"],
        }[command]
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"--out {out}" in err and "NotADirectoryError" in err
        assert plain.read_text() == "x"


class TestProbeResidency:
    def test_one_model_alive_at_each_probe_call(self, tmp_path, pipeline, monkeypatch):
        import weakref

        from vqgen import model as md
        from vqgen import probe as pb

        _, data, _, s1, s2, s3, *_ = pipeline
        alive = weakref.WeakSet()
        seen = []
        load, random_baseline, xsim = md.load_checkpoint, pb.random_baseline, pb.xsim_per_layer

        def tracked_load(path):
            config, params, extras = load(path)
            alive.add(params)
            return config, params, extras

        def tracked_random(config):
            params = random_baseline(config)
            alive.add(params)
            return params

        def counting_xsim(params, *args, **kwargs):
            seen.append(len(alive))
            return xsim(params, *args, **kwargs)

        monkeypatch.setattr(md, "load_checkpoint", tracked_load)
        monkeypatch.setattr(pb, "random_baseline", tracked_random)
        monkeypatch.setattr(pb, "xsim_per_layer", counting_xsim)
        assert run(["probe", "--data", str(data), "--split", "val", "--ckpt", str(s1),
                    "--ckpt", str(s2), "--ckpt", str(s3), "--include-random",
                    "--out", str(tmp_path / "probe.tsv")]) == 0
        assert seen == [1, 1, 1, 1]


class TestAtomicOutput:
    """A writer that raises part way leaves the previous file's bytes at its
    path and no temporary file beside it."""

    @staticmethod
    def writers():
        from vqgen import metrics as mx
        from vqgen import model as md
        from vqgen import probe as pb
        from vqgen import training as tr

        config = md.ModelConfig(num_layers=1, num_heads=2, model_dim=8, ffn_dim=16,
                                vocab_size=12, max_positions=8, feature_dim=4, num_regions=2)

        def checkpoint(path, good):
            params = md.init_parameters(config, 0)
            if not good:  # a later tensor that cannot be stored as f32
                params["head.output_bias"].value.data = np.array(["x"] * 12)
            md.save_checkpoint(path, config, params)

        def training_log(path, good):
            history = [tr.LogRecord(1, tr.STAGE1, 1e-3, 2.5),
                       tr.LogRecord(2, tr.STAGE1, 1e-3, 2.0 if good else None)]
            tr.write_training_log(path, tr.StageResult(tr.STAGE1, config, None, history))

        def report(path, good):
            scores = [0.5] * 6 + [0.25 if good else "x"]
            mx.write_report(path, mx.MetricReport(*scores, items=3), meta={"seed": 1})

        def probe_table(path, good):
            reports = [pb.ProbeReport("a", [0.1, 0.2], 4),
                       pb.ProbeReport("b", [0.3, 0.4 if good else "x"], 4)]
            pb.write_probe_table(path, reports)

        return {"checkpoint": checkpoint, "training_log": training_log, "report": report,
                "probe_table": probe_table}

    @pytest.mark.parametrize("writer", ["checkpoint", "training_log", "report", "probe_table"])
    def test_failed_write_keeps_previous_bytes(self, tmp_path, writer):
        write = self.writers()[writer]
        path = tmp_path / "artefact"
        write(path, good=True)
        before = path.read_bytes()
        with pytest.raises((TypeError, ValueError)):
            write(path, good=False)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artefact"]

    def test_helper_replaces_only_on_success(self, tmp_path):
        from vqgen import model as md

        path = tmp_path / "gen.tsv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with md.write_atomically(path) as fh:
                fh.write("partial")
                raise RuntimeError("writer failed")
        assert path.read_text() == "old\n"
        with md.write_atomically(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["gen.tsv"]

    def test_helper_follows_a_symbolic_link(self, tmp_path):
        from vqgen import model as md

        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old\n")
        link.symlink_to(target)
        with md.write_atomically(link) as fh:
            fh.write("new\n")
        assert link.is_symlink() and target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]

    def test_helper_writes_a_non_regular_file_in_place(self, tmp_path):
        # a device or pipe at --out is written, not replaced by a regular file
        import os
        import stat
        import threading

        from vqgen import model as md

        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        with md.write_atomically(fifo) as fh:
            fh.write("through the pipe\n")
        reader.join(timeout=10)
        assert received == ["through the pipe\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


class TestModuleEntry:
    def test_python_dash_m_smoke(self, tmp_path):
        env_data = tmp_path / "data"
        proc = subprocess.run(
            [sys.executable, "-m", "vqgen.cli", "synth", "--out", str(env_data),
             "--seed", "3", "--train", "2", "--val", "1", "--test", "1"],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert (env_data / "train.jsonl").exists()
        assert "seed: 3" in proc.stdout
