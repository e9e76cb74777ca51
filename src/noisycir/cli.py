"""Command-line harness: generate, train, ablate, gradcheck, report.

Exit codes are a stable contract:
    0 success, 1 usage/config error, 2 I/O error,
    3 data validation error (a malformed .ncld or .nclw file, or a run
    directory whose summary.csv or run_meta.json `report` cannot read),
    4 numerical failure (a non-finite loss, a failed gradient check, or a
    degenerate split).
All outputs are written atomically (temp file + rename) so a failing
command never leaves a partial artifact behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import autodiff as ad
from . import fusion
from .config import RunConfig, load_run_config
from .errors import (ConfigError, DataFormatError, DegenerateInputError, NumericalError,
                     parse_json)
from .storage import _atomic_write, read_dataset, write_dataset, write_weights
from .synth import TRUTHS, DatasetSpec, generate_dataset
from .trainer import (ABLATION_VARIANTS, RECALL_KS, FilterReportRow, forward_batch,
                      init_params, run_ablation, run_training, split_dataset)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, [text.encode("utf-8")])


def _csv(rows: list[dict], columns: list[str]) -> str:
    """A header line, then one line per row: None is an empty cell, a float its repr."""
    lines = [columns] + [["" if r.get(c) is None else str(r.get(c)) for c in columns]
                         for r in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    train = cfg.train
    dataset = cfg.dataset
    if getattr(args, "seed", None) is not None:
        train = dataclasses.replace(train, seed=args.seed)
        dataset = dataclasses.replace(dataset, seed=args.seed)
    variant = getattr(args, "variant", None)
    if variant is not None:  # argparse has checked it against ABLATION_VARIANTS
        w, n = {name: (w, n) for name, w, n in ABLATION_VARIANTS}[variant]
        train = dataclasses.replace(train, enable_wcb=w, enable_nfb=n)
    return RunConfig(dataset=dataset, train=train)


def cmd_generate(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    samples = generate_dataset(cfg.dataset)
    write_dataset(samples, cfg.dataset, args.out)
    counts = np.bincount(samples.records[:, -3].astype(np.intp), minlength=len(TRUTHS))
    print(f"wrote {len(samples)} triplets to {args.out}")
    print(f"spec: {dataclasses.asdict(cfg.dataset)}")
    for truth, count in zip(TRUTHS, counts.tolist()):
        print(f"  {truth}: {count} ({count / len(samples):.1%})")
    return EXIT_OK


_SUMMARY_COLUMNS = ["epoch", "train_loss", "label1_fraction", "recall_at_1",
                    "recall_at_10", "recall_at_50", "filter_precision",
                    "filter_recall", "filter_f1"]
_FILTER_COLUMNS = [f.name for f in dataclasses.fields(FilterReportRow)]
_ABLATION_COLUMNS = ["variant", "R@1", "R@10", "R@50", "Avg"]


def _record_row(rec) -> dict:
    row = dataclasses.asdict(rec)
    score = row.pop("filter_score") or {}
    return {**row, **{f"filter_{k}": score.get(k) for k in ("precision", "recall", "f1")}}


def _small_eval_notes(n_eval: int) -> list[str]:
    """The note, printed too, that R@K over fewer than K eval pairs is 1.0."""
    if n_eval >= max(RECALL_KS):
        return []
    note = (f"eval set of {n_eval} pairs is smaller than K={max(RECALL_KS)}: "
            f"R@K is 1.0 for every K >= {n_eval}")
    print(note)
    return [note]


def cmd_train(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    samples, spec = read_dataset(args.dataset)
    cfg = dataclasses.replace(cfg, dataset=spec)  # record the data trained on
    os.makedirs(args.out, exist_ok=True)

    notes = []
    if not cfg.train.enable_nfb:
        notes.append("filter disabled")
        print("filter disabled")
    if not cfg.train.enable_wcb:
        notes.append("weight compensation disabled")

    result = run_training(samples, cfg.train)
    notes += _small_eval_notes(len(result.eval_indices))

    rows = [_record_row(rec) for rec in result.records]
    _atomic_write_text(os.path.join(args.out, "epochs.jsonl"),
                       "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    _atomic_write_text(os.path.join(args.out, "summary.csv"),
                       _csv(rows, _SUMMARY_COLUMNS))
    if cfg.train.enable_nfb:
        _atomic_write_text(os.path.join(args.out, "filter_report.csv"),
                           _csv([dataclasses.asdict(r) for r in result.filter_rows],
                                _FILTER_COLUMNS))
    write_weights(result.store, os.path.join(args.out, "weights.nclw"),
                  extra={"train": dataclasses.asdict(cfg.train)})
    _atomic_write_text(os.path.join(args.out, "run_meta.json"),
                       json.dumps({"config": dataclasses.asdict(cfg), "notes": notes,
                                   "n_train": len(result.train_indices),
                                   "n_eval": len(result.eval_indices)},
                                  sort_keys=True, indent=2) + "\n")
    if result.records:
        last = result.records[-1]
        print(f"final: loss={last.train_loss:.4f} "
              f"R@1={last.recall_at_1:.3f} R@10={last.recall_at_10:.3f} "
              f"R@50={last.recall_at_50:.3f}")
    else:
        print("no training epochs requested")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    samples, _spec = read_dataset(args.dataset)
    os.makedirs(args.out, exist_ok=True)
    rows = run_ablation(samples, cfg.train)
    # every variant trains on the same split
    _small_eval_notes(len(split_dataset(samples, cfg.train)[1]))
    _atomic_write_text(os.path.join(args.out, "ablation.csv"),
                       _csv(rows, _ABLATION_COLUMNS))
    for row in rows:
        print(f"{row['variant']:>9}: R@1={row['R@1']:.3f} R@10={row['R@10']:.3f} "
              f"R@50={row['R@50']:.3f} Avg={row['Avg']:.3f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    """Full-pipeline gradient check on a tiny random batch."""
    if args.inject_fault:
        ad.set_backward_fault(args.inject_fault)
    try:
        spec = DatasetSpec(num_concepts=4, dim=8, text_tokens=4, image_patches=6,
                           num_triplets=4, seed=args.seed or 0)
        samples = generate_dataset(spec)
        store = init_params(spec.dim, spec.seed)
        labels = np.ones(len(samples))

        def f(st):
            (q, t), (q_wcb, t_wcb) = forward_batch(ad.Tape(), st, samples,
                                                   enable_wcb=True)
            return fusion.soft_nce_loss(q, t, q_wcb, t_wcb, labels,
                                        fusion.DEFAULT_TEMPERATURE)

        start = time.time()
        report = ad.grad_check(f, store)
        elapsed = time.time() - start
    finally:
        ad.set_backward_fault(None)

    print(f"checked {report.n_entries} parameter entries in {elapsed:.2f}s")
    print(f"max relative error: {report.max_rel_error:.3e} "
          f"(worst parameter: {report.worst_param or 'n/a'})")
    print(f"max absolute error (small-gradient branch): {report.max_abs_error:.3e}")
    for group, err in sorted(report.group_worst.items()):
        print(f"  group {group}: worst error {err:.3e}")
    if args.inject_fault:
        print(f"fault injected in op {args.inject_fault}")
    if report.passed:
        print("PASS (tolerance 1e-5)")
        return EXIT_OK
    print("FAIL (tolerance 1e-5)")
    return EXIT_NUMERIC


def cmd_report(args) -> int:
    """Print summary.csv and run_meta.json's notes; a run file that cannot be
    read as either raises DataFormatError before anything is printed."""
    with open(os.path.join(args.out, "summary.csv"), "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"summary.csv is not UTF-8: {exc}") from None
    meta_path, meta = os.path.join(args.out, "run_meta.json"), {}
    if os.path.exists(meta_path):
        with open(meta_path, "rb") as fh:
            meta = parse_json(fh.read(), DataFormatError, "run_meta.json")
    notes = meta.get("notes", []) if isinstance(meta, dict) else None
    if not isinstance(notes, list) or not all(isinstance(n, str) for n in notes):
        raise DataFormatError("run_meta.json must be an object whose notes are strings")
    print(text, end="")
    if notes:
        print("notes: " + "; ".join(notes))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisycir",
        description="Noise-aware contrastive retrieval toolkit (desk scale)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic triplet dataset")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int)
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train on a dataset file")
    tr.add_argument("--config", required=True)
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--variant",
                    choices=[name for name, _, _ in ABLATION_VARIANTS])
    tr.set_defaults(func=cmd_train)

    ab = sub.add_parser("ablate", help="train all four flag variants")
    ab.add_argument("--config", required=True)
    ab.add_argument("--dataset", required=True)
    ab.add_argument("--out", required=True)
    ab.add_argument("--seed", type=int)
    ab.set_defaults(func=cmd_ablate)

    gc = sub.add_parser("gradcheck", help="full-pipeline gradient check")
    gc.add_argument("--seed", type=int)
    gc.add_argument("--inject-fault", metavar="OP", choices=ad.FAULT_OPS,
                    help="test hook: corrupt the backward pass of OP, one of "
                         + ", ".join(ad.FAULT_OPS))
    gc.set_defaults(func=cmd_gradcheck)

    rp = sub.add_parser("report", help="print a run directory's summary")
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, DegenerateInputError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    raise SystemExit(main())
