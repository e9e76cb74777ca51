"""Benchmark for noisycir: three workloads through the public entry points.

    python3 perfbench/run.py                       # every workload, in turn
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see DESIGN.md for why each was chosen):
    train_full_epoch   `noisycir train --variant full`, epoch-scope filter
    train_nfb_batch    `noisycir train --variant nfb_only`, batch-scope filter
    tooling            `noisycir generate` at N=10000, `read_dataset` of the
                       file it wrote, `noisycir gradcheck`

One workload runs in one process with BLAS pinned to one thread. The
program receives only a generated config JSON (and, for training, the .ncld
file that `noisycir generate` wrote from it during set-up). Every timed
step is checked; a failed check counts the step as failed. With --trace 0
the timed steps repeat within --seconds (at least twice) and the end-to-end
metrics are medians over the repetitions. With --trace 1 one untraced and
one traced repetition run, and the per-layer metrics come from the trace.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The lines before it are the
run's report: environment, every repetition and every check.
"""

from __future__ import annotations

import os

# One process, BLAS on one thread, as the package is meant to run: the
# numbers then do not depend on the thread count OpenBLAS would pick.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402  (beside this file)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

EPOCHS = 20
SETUP_REPEATS = 5
SEED_RANGE = 2 ** 32  # the program takes seeds in [0, 2**32); --seed maps into it
MIN_REPS = 2
F1_THRESHOLD = 0.90   # frozen acceptance threshold for the full model

WORKLOADS = {
    "train_full_epoch": {
        "variant": "full",
        "dataset": {"num_triplets": 2000, "mismatch_rate": 0.3},
        "train": {"epochs": EPOCHS, "filter_scope": "epoch"},
    },
    "train_nfb_batch": {
        "variant": "nfb_only",
        "dataset": {"num_triplets": 2000, "mismatch_rate": 0.2, "partial_rate": 0.1},
        "train": {"epochs": EPOCHS, "filter_scope": "batch"},
    },
    "tooling": {
        "dataset": {"num_triplets": 10000, "mismatch_rate": 0.2, "partial_rate": 0.1},
        "train": {},
    },
}

_TRAIN_SPANS = {
    "cli.main", "synth.generate_dataset", "storage.write_dataset",
    "storage.read_dataset", "storage.write_weights", "trainer.run_training",
    "trainer.train_epoch", "trainer.forward_batch", "trainer.evaluate_retrieval",
    "trainer.adam_step", "wcb.compensate_batch", "fusion.fuse_query",
    "fusion.nce_per_sample", "autodiff.backward", "nfb.normalize_losses",
    "nfb.em_fit", "nfb.posterior", "nfb.build_sets", "evaluation.similarity",
    "evaluation.recall", "evaluation.evaluate_filter",
}
# Spans that must fire in a traced run; every other wrapped call must not.
EXPECTED_SPANS = {
    "train_full_epoch": _TRAIN_SPANS,
    "train_nfb_batch": _TRAIN_SPANS - {"wcb.compensate_batch"},
    "tooling": {
        "cli.main", "synth.generate_dataset", "storage.write_dataset",
        "storage.read_dataset", "trainer.forward_batch", "wcb.compensate_batch",
        "fusion.fuse_query", "fusion.nce_per_sample", "autodiff.backward",
        "autodiff.grad_check",
    },
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run or is wired wrongly."""


def load_package() -> dict:
    """Import noisycir from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "noisycir" / "__init__.py").is_file():
        raise BenchError(f"no noisycir source under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"noisycir.{name}") for name in LAYERS}
    pkg_dir = Path(mods["cli"].__file__).resolve().parent
    if pkg_dir != (src / "noisycir").resolve():
        raise BenchError(f"noisycir imported from {pkg_dir}, not {src}")
    return mods


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "program_seed": seed % SEED_RANGE,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "processes": 1,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


# A fresh interpreter that imports NumPy and every layer, as a `noisycir`
# command does before it starts work.
_STARTUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
                  + "; ".join(f"import noisycir.{name}" for name in LAYERS))


def startup_s() -> float:
    """Wall time of one program start-up: interpreter plus imports."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"start-up probe exited {proc.returncode}: {proc.stderr[-300:]}")
    return elapsed


def _quiet_main(cli, argv: list[str]) -> tuple[int | None, str]:
    """cli.main with its output captured; returns (exit code, output).

    An exception that escapes cli.main breaks the exit-code contract; it is
    returned as exit code None with its traceback, so the step counts as
    failed and the run still reports.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - recorded as a failed step
            rc = None
            out.write(traceback.format_exc())
    return rc, out.getvalue()


@contextlib.contextmanager
def _capture_generated(cli):
    """Keep what `generate` produced, to compare with what is read back."""
    inner = cli.generate_dataset
    box: list = []

    def capture(spec):
        samples = inner(spec)
        box.append(samples)
        return samples

    cli.generate_dataset = capture
    try:
        yield box
    finally:
        cli.generate_dataset = inner


def dataset_digest(samples) -> str:
    """Hash of every token, attention weight and truth label, in order."""
    h = hashlib.sha256()
    for s in samples:
        for b in (s.mod_text, s.ref_image, s.tar_image):
            h.update(b.tokens.tobytes())
            h.update(b.attention.tobytes())
            h.update(f"{b.global_index},{b.modality};".encode())
        h.update(f"{s.truth},{s.concept_ids};".encode())
    return h.hexdigest()


class Run:
    """One workload at one seed: set-up, timed repetitions, checks."""

    def __init__(self, workload: str, seed: int, mods: dict):
        self.spec = WORKLOADS[workload]
        self.seed = seed % SEED_RANGE
        self.m = mods
        # Scratch of this process only, removed when the run ends; the report
        # and spans of the last run of a workload stay in WORK / workload.
        self.out = WORK / workload
        self.dir = WORK / f"{workload}.{os.getpid()}"
        self.config = self.dir / "config.json"
        self.data = self.dir / "data.ncld"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.summary: bytes | None = None   # first repetition's summary.csv
        self.results: dict[str, float] = {}  # final-epoch figures, per seed
        self.digest: str | None = None      # first repetition's generated data

    def step(self, label: str, checks: list[tuple[bool, str]]) -> None:
        """Count one attempted step; it fails if any of its checks fails."""
        self.attempted += 1
        failed = [what for ok, what in checks if not ok]
        self.failures.extend(f"{label}: {what}" for what in failed)
        self.failed += bool(failed)

    def setup(self) -> float:
        """Start the program afresh, write the config and, for training,
        generate the dataset file; returns the time all of that took."""
        startup = startup_s()
        start = time.perf_counter()
        self.dir.mkdir(parents=True, exist_ok=True)
        config = {"dataset": {**self.spec["dataset"], "seed": self.seed},
                  "train": {**self.spec["train"], "seed": self.seed}}
        self.config.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        if "variant" in self.spec:
            rc, out = _quiet_main(self.m["cli"], ["generate", "--config", str(self.config),
                                                  "--out", str(self.data)])
            if rc != 0:
                raise BenchError(f"set-up generate exited {rc}: {out}")
        return startup + time.perf_counter() - start

    def rep(self, k: int) -> dict[str, float]:
        if "variant" in self.spec:
            return self._train_rep(k)
        return self._tooling_rep(k)

    def _train_rep(self, k: int) -> dict[str, float]:
        out_dir = self.dir / f"rep{k}"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["train", "--config", str(self.config), "--dataset", str(self.data),
                "--out", str(out_dir), "--variant", self.spec["variant"]]
        start = time.perf_counter()
        rc, out = _quiet_main(self.m["cli"], argv)
        train_s = time.perf_counter() - start

        summary_path = out_dir / "summary.csv"
        summary = summary_path.read_bytes() if summary_path.is_file() else b""
        rows = list(csv.DictReader(io.StringIO(summary.decode("utf-8"))))
        last = rows[-1] if rows else {}
        f1 = float(last.get("filter_f1") or 0.0)
        if self.summary is None:
            meta = json.loads((out_dir / "run_meta.json").read_text()) if rc == 0 else {}
            self.summary = summary
            self.results = {"n_train": meta.get("n_train", 0), "filter_f1": f1,
                            "recall_at_10": float(last.get("recall_at_10") or 0.0)}
        checks = [(rc == 0, f"train exited {rc}: {out.strip()[-300:]}"),
                  (len(rows) == EPOCHS, f"summary.csv has {len(rows)} rows, not {EPOCHS}"),
                  (summary == self.summary,
                   "summary.csv differs from the first repetition's")]
        if self.spec["variant"] == "full":
            checks.append((f1 >= F1_THRESHOLD,
                           f"final filter F1 {f1:.4f} < {F1_THRESHOLD}"))
        self.step(f"rep{k} train", checks)
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"train_s": train_s}

    def _tooling_rep(self, k: int) -> dict[str, float]:
        cli, storage = self.m["cli"], self.m["storage"]
        self.data.unlink(missing_ok=True)
        with _capture_generated(cli) as box:
            start = time.perf_counter()
            rc, out = _quiet_main(cli, ["generate", "--config", str(self.config),
                                        "--out", str(self.data)])
            generate_s = time.perf_counter() - start
        made = dataset_digest(box[0]) if box else ""
        n_made = len(box[0]) if box else 0
        box.clear()
        if self.digest is None:
            self.digest = made
        self.step(f"rep{k} generate", [
            (rc == 0 and self.data.is_file(), f"generate exited {rc}: {out.strip()[-300:]}"),
            (n_made == self.spec["dataset"]["num_triplets"], f"generated {n_made} triplets"),
            (made == self.digest, "generated data differs from the first repetition's")])

        error = ""
        start = time.perf_counter()
        try:
            samples, _spec = storage.read_dataset(str(self.data))
        except Exception:  # noqa: BLE001 - recorded as a failed step
            samples, error = [], traceback.format_exc(limit=2)
        load_s = time.perf_counter() - start
        loaded = dataset_digest(samples)
        del samples
        self.step(f"rep{k} load", [
            (not error, f"read_dataset raised {error.strip()[-300:]}"),
            (loaded == made, "read_dataset returned other data than generate wrote")])

        start = time.perf_counter()
        # The command as users run it: its fixed built-in batch, unseeded.
        rc, out = _quiet_main(cli, ["gradcheck"])
        gradcheck_s = time.perf_counter() - start
        self.step(f"rep{k} gradcheck", [
            (rc == 0 and "PASS" in out, f"gradcheck exited {rc}: {out.strip()[-300:]}")])
        return {"generate_s": generate_s, "load_s": load_s, "gradcheck_s": gradcheck_s}


def _write_atomic(path: Path, text: str) -> None:
    """Replace path in one step, so runs that end together do not mix."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 mods: dict) -> dict:
    run = Run(workload, seed, mods)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.out.mkdir(parents=True, exist_ok=True)
    report: dict = {"workload": workload, "trace": int(trace),
                    "environment": environment(seed)}
    tracer = Tracer(mods) if trace else None
    try:
        if tracer is None:
            # Set-up repeats before each repetition and again after the last,
            # so that they sample the host's speed over the whole run, as the
            # repetitions do, and not over a few seconds of it.
            setup_times = []
            reps = []
            # Repeat while another repetition, as long as the last one, still
            # fits in the time given, so a run does not overshoot it.
            start = time.perf_counter()
            elapsed = last = 0.0
            while len(reps) < MIN_REPS or elapsed + last <= seconds:
                if len(setup_times) < SETUP_REPEATS:
                    setup_times.append(run.setup())
                reps.append(run.rep(len(reps)))
                last = time.perf_counter() - start - elapsed
                elapsed += last
            while len(setup_times) < SETUP_REPEATS:
                setup_times.append(run.setup())
        else:
            tracer.step = "setup"
            with tracer:
                setup_times = [run.setup()]
            untraced = run.rep(0)
            tracer.step = "rep1"
            with tracer:
                traced = run.rep(1)
            reps = [untraced, traced]
            spans_path = run.out / "spans.jsonl"
            tmp = run.dir / spans_path.name
            tracer.write_spans(str(tmp))
            os.replace(tmp, spans_path)
            report["spans"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["environment"]["loadavg_end"] = list(os.getloadavg())
    report["setup_s_samples"] = setup_times
    report["reps"] = reps
    report["failures"] = run.failures

    if tracer is None:
        details = {"setup_s": statistics.median(setup_times)}
        details.update({k: statistics.median(r[k] for r in reps) for k in reps[0]})
        if "train_s" in details:
            details["train_pairs_per_s"] = (EPOCHS * run.results["n_train"]
                                            / details["train_s"])
            details["filter_f1"] = run.results["filter_f1"]
            details["recall_at_10"] = run.results["recall_at_10"]
        details["peak_rss_mb"] = peak_rss_mb
        details["error_rate"] = run.failed / run.attempted
        report["metrics"] = details
        metrics = {"setup_s": (details["setup_s"], "s"),
                   "step_s": (statistics.median(sum(r.values()) for r in reps), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        layer = tracer.aggregate()
        layer["trace.overhead_s"] = sum(reps[1].values()) - sum(reps[0].values())
        _check_trace(workload, tracer, layer, mods)
        report["layer_self_s"] = {k: v for k, v in sorted(
            layer.items(), key=lambda kv: -kv[1]) if k.endswith(".self_s")}
        metrics = {k: (v, unit(k)) for k, v in layer.items()}

    _write_atomic(run.out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    return {"report": report, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


_UNITS = {"peak_rss_mb": "MB", "filter_f1": "ratio", "recall_at_10": "ratio",
          "error_rate": "ratio"}


def unit(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("storage.bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _check_trace(workload: str, tracer, layer: dict, mods: dict) -> None:
    """Fail loudly when the wrappers missed a call site or a prediction breaks."""
    expected = EXPECTED_SPANS[workload]
    wrapped = tracer.span_names()
    missing = sorted(n for n in expected if tracer.calls[n] == 0)
    unexpected = sorted(n for n in wrapped - expected if tracer.calls[n] > 0)
    problems = []
    if missing:
        problems.append(f"expected spans never fired: {missing}")
    if unexpected:
        problems.append(f"spans predicted to be zero fired: "
                        f"{ {n: tracer.calls[n] for n in unexpected} }")
    if workload == "train_full_epoch":
        warmup = mods["trainer"].TrainConfig().warmup_epochs
        filtered_epochs = WORKLOADS[workload]["train"]["epochs"] - warmup
        if layer["nfb.em_fit_calls"] != 2 * filtered_epochs:
            problems.append(f"nfb.em_fit_calls is {layer['nfb.em_fit_calls']}, "
                            f"predicted {2 * filtered_epochs} (two views per "
                            f"filtered epoch)")
    if problems:
        raise BenchError("traced run: " + "; ".join(problems))


def print_result(result: dict) -> None:
    report = result["report"]
    print(json.dumps(report, sort_keys=True))
    if "metrics" in report:
        for name, value in report["metrics"].items():
            print(f"{report['workload']} {name} {value:.6g} {unit(name)}")
    else:
        for name, value in report["layer_self_s"].items():
            print(f"{report['workload']} self time {name} {value:.4f} s")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        worst = 0
        for workload in WORKLOADS:
            proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], check=False)
            worst = max(worst, proc.returncode)
        return worst

    try:
        mods = load_package()
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), mods)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
