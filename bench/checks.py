"""Output checks for the three workloads. Each raises CheckFailed at the first
discrepancy. They compare against the independent reference forward, the
brute-force metric oracles in tests/tests_support.py, or properties the method
must have; never against a stored copy of earlier output."""

from __future__ import annotations

import math

import numpy as np

from reference import ReferenceModel, read_checkpoint_payloads

PROJECTION = ("projection.weight", "projection.bias")
# tables and reports print 6 decimals: half a unit in the last place, plus f64 slack
PRINTED_TOL = 5e-7 + 1e-9
LOSS_RTOL = 1e-9
# X_sim is a mean of cosines: f64 rounding of two independent forwards
XSIM_TOL = 1e-10
# logits this close count as a tie, which greedy decoding breaks toward the lowest id
TIE_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# train_staged
# ---------------------------------------------------------------------------


def check_frozen_backbone(stage1_ckpt, stage2_ckpt) -> None:
    """Stage 2 trains only the projection: every other tensor keeps stage 1's bytes."""
    s1, s2 = read_checkpoint_payloads(stage1_ckpt)[1], read_checkpoint_payloads(stage2_ckpt)[1]
    require(s1.keys() == s2.keys(), "stage-1 and stage-2 checkpoints hold different tensors")
    for name in s1:
        if name not in PROJECTION:
            require(s1[name] == s2[name], f"stage 2 changed frozen backbone tensor {name}")
    require(any(s1[n] != s2[n] for n in PROJECTION), "stage 2 left the projection unchanged")


def read_log_losses(path) -> list[float]:
    losses = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                fields = dict(part.split("=", 1) for part in line.rstrip("\n").split("\t"))
                losses.append(float(fields["loss"]))
    return losses


def check_loss_curve(losses, vocab_size: int, *, from_init: bool, tail: int = 5) -> None:
    """A stage started from fresh weights begins near ln(V) (near-uniform
    predictions); every stage ends, over its last steps, below ln(V)."""
    chance = math.log(vocab_size)
    require(len(losses) > tail, f"only {len(losses)} logged steps")
    if from_init:
        require(
            abs(losses[0] - chance) < 0.05 * chance,
            f"first-step loss {losses[0]:.4f} is not near ln(V) = {chance:.4f}",
        )
    last = float(np.mean(losses[-tail:]))
    require(last < chance, f"mean of the last {tail} losses {last:.4f} is not below ln(V) = {chance:.4f}")


def reference_batch_loss(model: ReferenceModel, examples, mask_id: int, eos_id: int) -> float:
    """Mean next-token cross-entropy over every target token and closing EOS,
    each step decoded on its own (input + prefix + [MASK])."""
    nll = []
    for ex in examples:
        require(
            list(ex.input.positions) == list(range(len(ex.input))),
            "assembled input positions are not 0..n-1",
        )
        nll += model.sequence_nll(ex.input.slots, ex.target, mask_id, eos_id)
    return float(np.mean(nll))


def check_stage_loss(program_loss: float, reference_loss: float) -> None:
    require(
        abs(program_loss - reference_loss) <= LOSS_RTOL * max(1.0, abs(reference_loss)),
        f"stage_loss {program_loss!r} != reference cross-entropy {reference_loss!r}",
    )


# ---------------------------------------------------------------------------
# generate_eval
# ---------------------------------------------------------------------------


def read_generated(path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t", 1)) for line in fh if not line.startswith("#")]


def check_one_line_per_id(generated, ids) -> None:
    got = [item_id for item_id, _ in generated]
    require(got == list(ids), f"gen.tsv has {len(got)} lines, ids differ from the {len(ids)} test ids")


def check_greedy(model: ReferenceModel, inputs, generated_ids, *, mask_id: int, eos_id: int,
                 max_length: int) -> None:
    """Every generated token is the reference's argmax at its step (ties to the
    lowest id), and the step after the last token predicts EOS unless the item
    ran to max_length."""
    for index, (slots, tokens) in enumerate(zip(inputs, generated_ids)):
        for step in range(min(len(tokens) + 1, max_length)):
            logits = model.next_token_logits(slots, tokens[:step], mask_id)
            want = tokens[step] if step < len(tokens) else eos_id
            best = int(np.argmax(logits))
            tie = logits[best] - logits[want] <= TIE_TOL * max(1.0, abs(logits[best]))
            require(
                want == best or (tie and not np.any(logits[:want] >= logits[want] - TIE_TOL)),
                f"item {index} step {step}: program chose {want}, reference argmax is {best}",
            )


def read_report(path) -> dict[str, float]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            if key in ("bleu_1", "cider"):
                values[key] = float(value)
    return values


def check_report(report: dict, oracle_items, keys=("bleu_1", "cider")) -> None:
    """The report's BLEU-1 and CIDEr equal the brute-force oracles."""
    from tests_support import oracle_bleu, oracle_cider

    oracles = {"bleu_1": lambda: oracle_bleu(oracle_items, 1), "cider": lambda: oracle_cider(oracle_items)}
    for key in keys:
        expected = oracles[key]()
        require(
            abs(report[key] - expected) <= PRINTED_TOL,
            f"report {key}={report[key]:.6f}, brute-force oracle gives {expected:.9f}",
        )


# ---------------------------------------------------------------------------
# probe_xsim
# ---------------------------------------------------------------------------


def read_probe_table(path) -> dict[str, list[float]]:
    table: dict[str, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("layer_index"):
                continue
            layer, label, value = line.rstrip("\n").split("\t")
            table.setdefault(label, []).append(float(value))
            require(len(table[label]) == int(layer), f"{label}: layer {layer} out of order")
    return table


def check_xsim(table: dict, computed: dict, expected: dict) -> None:
    """`computed` holds the full-precision values behind the printed `table`:
    they must equal the reference's within f64 rounding, and the table must
    print them."""
    require(table.keys() == expected.keys() == computed.keys(),
             f"probe models: table {sorted(table)}, computed {sorted(computed)}, reference {sorted(expected)}")
    for label, values in expected.items():
        require(len(table[label]) == len(computed[label]) == len(values), f"{label}: layer counts differ")
        for layer, (printed, got, want) in enumerate(zip(table[label], computed[label], values), start=1):
            require(abs(got - want) <= XSIM_TOL, f"X_sim[{label}] layer {layer} = {got!r}, reference gives {want!r}")
            require(f"{got:.6f}" == f"{printed:.6f}", f"table prints {printed:.6f} for X_sim[{label}] layer {layer} = {got!r}")


def check_random_bound(table: dict, bound: float = 0.2) -> None:
    last = table["random"][-1]
    require(abs(last) < bound, f"random baseline last-layer X_sim {last:+.6f} is not within +-{bound}")
