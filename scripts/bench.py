"""Paired benchmark of this working tree against a parent checkout.

    python3 scripts/bench.py --parent DIR [--workload NAME]... [--pairs N]
                             [--trace] [--out FILE]

DIR is a checkout of the commit to compare against, made with
`git archive HEAD | tar -x -C DIR` or `git worktree add DIR HEAD`. Each pair
runs `perfbench/run.py --workload NAME` once in DIR and once in this tree,
each in its own process at perfbench's own seed and run length, and the
side that goes first alternates from pair to pair, so a drift in the host's
speed weighs on both sides alike. With --trace, one traced run per side
follows the pairs of each workload.

Every child's exit code, `correct` flag, end-to-end metrics, final
filter_f1 and recall_at_10 and environment block are kept, with every raw
pair. Per workload and end-to-end metric the summary gives each side's
median and quartiles, the winner of each pair, the number of pairs this
tree won, whether the gap between the medians exceeds the parent's
interquartile range, and whether this tree's median is within the metric's
no-regression bound: no worse than the parent's by more than the `bound`
BENCHMARK.json gives it, as a share of the parent's median. With --out the
results are written to FILE as JSON; workloads already in FILE and not run
now are kept.

Exits 1 if any child exits non-zero or reports "correct": false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in _DECLARED["workloads"]]
END_TO_END = {m["name"]: m for m in _DECLARED["end_to_end"]}
CHILD_TIMEOUT_S = 1800


def run_child(tree: Path, workload: str, trace: bool) -> dict:
    """One perfbench process in tree; its exit code, verdict and numbers."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = None, exc.stdout or "", f"timed out after {CHILD_TIMEOUT_S} s"
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    try:
        report, result = json.loads(lines[0]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report, result = {}, {}
    details = report.get("metrics", {})
    return {
        "exit_code": code,
        "correct": result.get("correct") is True,
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        **{k: details[k] for k in ("filter_f1", "recall_at_10") if k in details},
        "failures": report.get("failures", []),
        "environment": report.get("environment", {}),
        **({"stderr": stderr[-2000:]} if code != 0 else {}),
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quartiles, each pair's winner and
    whether the tree's median is within the metric's bound."""
    out = {}
    for name, declared in END_TO_END.items():
        if any(name not in p[side]["metrics"] for p in pairs for side in ("parent", "tree")):
            continue
        parent = [p["parent"]["metrics"][name] for p in pairs]
        tree = [p["tree"]["metrics"][name] for p in pairs]
        better = declared["better"]
        sign = 1 if better == "lower" else -1
        winners = ["tree" if sign * (t - p) < 0 else "parent" if sign * (t - p) > 0 else "tie"
                   for p, t in zip(parent, tree)]
        ps, ts = quartiles(parent), quartiles(tree)
        out[name] = {
            "better": better, "parent": ps, "tree": ts, "winners": winners,
            "tree_wins": winners.count("tree"), "pairs": len(pairs),
            "median_change": (ts["median"] - ps["median"]) / ps["median"] if ps["median"] else None,
            "gap_exceeds_parent_iqr": sign * (ps["median"] - ts["median"]) > ps["iqr"],
            "bound": declared["bound"],
            "within_bound": (sign * (ts["median"] - ps["median"])
                             <= declared["bound"] * abs(ps["median"])),
        }
    return out


def bench_workload(parent: Path, workload: str, args) -> dict:
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_child(parent if side == "parent" else ROOT, workload, trace=False)
        pairs.append(pair)
        print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{side} step_s={pair[side]['metrics'].get('step_s', float('nan')):.3f} "
            f"correct={pair[side]['correct']}" for side in order), flush=True)
    out = {"seed": pairs[0]["tree"]["environment"].get("seed"), "pairs": pairs,
           "summary": summarize(pairs)}
    if args.trace:
        out["traced"] = {side: run_child(tree, workload, trace=True)
                         for side, tree in (("parent", parent), ("tree", ROOT))}
    return out


def children(result: dict):
    for pair in result["pairs"]:
        yield pair["parent"]
        yield pair["tree"]
    yield from result.get("traced", {}).values()


def print_summary(workload: str, result: dict) -> None:
    for name, s in result["summary"].items():
        change = s["median_change"]
        print(f"{workload} {name}: parent median {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], tree median "
              f"{s['tree']['median']:.4g} [{s['tree']['q1']:.4g}, {s['tree']['q3']:.4g}]"
              f"{'' if change is None else f' ({change:+.1%})'}; tree better in "
              f"{s['tree_wins']} of {s['pairs']} pairs; gap exceeds parent IQR: "
              f"{s['gap_exceeds_parent_iqr']}; within the {s['bound']:.0%} bound: "
              f"{s['within_bound']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the commit to compare against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; every workload when left out")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="one traced run per side after the pairs")
    parser.add_argument("--out", type=Path, help="JSON file to write or update")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under --parent {args.parent}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    doc = json.loads(args.out.read_text()) if args.out and args.out.is_file() else {}
    doc.setdefault("workloads", {})
    ok = True
    for workload in args.workload or WORKLOADS:
        result = bench_workload(parent, workload, args)
        doc["workloads"][workload] = result
        print_summary(workload, result)
        for child in children(result):
            if child["exit_code"] != 0 or not child["correct"]:
                ok = False
                print(f"{workload}: a child exited {child['exit_code']}, correct="
                      f"{child['correct']}: {child['failures'] or child.get('stderr', '')}",
                      file=sys.stderr)
        if args.out:
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
