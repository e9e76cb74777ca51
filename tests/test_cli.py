import inspect
import json
import os
import re

import pytest

from noisycir import autodiff as ad
from noisycir.cli import (EXIT_DATA, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                          EXIT_USAGE, _atomic_write_text, main)
from tests.test_storage import rewrite_header, rewrite_record

SMALL = {
    "dataset": {"num_concepts": 8, "dim": 16, "text_tokens": 4,
                "image_patches": 8, "num_triplets": 100,
                "mismatch_rate": 0.3, "seed": 7},
    "train": {"batch_size": 16, "epochs": 4, "warmup_epochs": 2, "seed": 0},
}
DEEP = 200_000  # levels of JSON nesting, far past the recursion limit


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


@pytest.fixture
def dataset_path(tmp_path, config_path):
    out = tmp_path / "data.ncld"
    assert main(["generate", "--config", config_path, "--out", str(out)]) == EXIT_OK
    return str(out)


class TestGenerate:
    def test_prints_histogram(self, config_path, tmp_path, capsys):
        out = tmp_path / "d.ncld"
        assert main(["generate", "--config", config_path,
                     "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "wrote 100 triplets" in text
        for truth in ("clean", "partial", "mismatched"):
            assert truth in text
        assert out.exists()

    def test_unwritable_path_exits_2_without_partial(self, config_path, tmp_path):
        target = tmp_path / "no_such_dir" / "d.ncld"
        assert main(["generate", "--config", config_path,
                     "--out", str(target)]) == EXIT_IO
        assert not target.parent.exists()

    def test_bad_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dataset": {"dimension": 8}}))
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "d.ncld")]) == EXIT_USAGE

    def test_invalid_json_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "d.ncld")]) == EXIT_USAGE

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "d.ncld")]) == EXIT_IO

    def test_missing_required_flag_exits_1(self, config_path, capsys):
        assert main(["generate", "--config", config_path]) == EXIT_USAGE
        capsys.readouterr()

    def test_negative_seed_exits_1(self, config_path, tmp_path, capsys):
        out = tmp_path / "d.ncld"
        assert main(["generate", "--config", config_path, "--out", str(out),
                     "--seed", "-1"]) == EXIT_USAGE
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_single_concept_exits_1_without_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({"dataset": {**SMALL["dataset"], "num_concepts": 1}}))
        out = tmp_path / "d.ncld"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "2 concepts" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("train", "batch_size", 16.5),
        ("dataset", "num_triplets", 2.5),
        ("train", "epochs", True),
        ("train", "enable_wcb", "no"),
        ("train", "enable_nfb", 1),
        ("train", "filter_scope", 1),
        ("train", "lr_wcb", "0.1"),
        ("dataset", "mismatch_rate", False),
        ("dataset", "seed", 1.0),
    ], ids=["int-field-float", "count-float", "int-field-bool", "bool-field-str",
            "bool-field-int", "str-field-int", "float-field-str", "float-field-bool",
            "seed-float"])
    def test_wrongly_typed_value_exits_1_without_traceback(self, tmp_path, capsys,
                                                           section, key, value):
        # every field takes only its default's JSON type, so no wrong type
        # reaches the code that uses it
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({**SMALL, section: {**SMALL[section], key: value}}))
        out = tmp_path / "d.ncld"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be a JSON ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_int_is_accepted_where_a_float_is_expected(self, tmp_path):
        cfg = tmp_path / "int.json"
        cfg.write_text(json.dumps({**SMALL, "dataset": {**SMALL["dataset"],
                                                        "mismatch_rate": 0}}))
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "d.ncld")]) == EXIT_OK

    def test_nan_learning_rate_exits_1(self, tmp_path, dataset_path, capsys):
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps({"dataset": SMALL["dataset"],
                                   "train": {**SMALL["train"], "lr_wcb": float("nan")}}))
        assert main(["train", "--config", str(cfg), "--dataset", dataset_path,
                     "--out", str(tmp_path / "run")]) == EXIT_USAGE
        assert "lr_wcb" in capsys.readouterr().err

    def test_seed_override_changes_output(self, config_path, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.ncld", "b.ncld", "c.ncld"))
        main(["generate", "--config", config_path, "--out", str(a)])
        main(["generate", "--config", config_path, "--out", str(b)])
        main(["generate", "--config", config_path, "--out", str(c),
              "--seed", "99"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestTrain:
    def test_outputs_and_determinism(self, config_path, dataset_path, tmp_path):
        run1, run2 = tmp_path / "run1", tmp_path / "run2"
        for run in (run1, run2):
            assert main(["train", "--config", config_path, "--dataset",
                         dataset_path, "--out", str(run)]) == EXIT_OK
            for name in ("epochs.jsonl", "summary.csv", "filter_report.csv",
                         "weights.nclw", "run_meta.json"):
                assert (run / name).exists(), name
        assert (run1 / "summary.csv").read_bytes() == (run2 / "summary.csv").read_bytes()
        assert (run1 / "epochs.jsonl").read_bytes() == (run2 / "epochs.jsonl").read_bytes()
        assert (run1 / "filter_report.csv").read_bytes() \
            == (run2 / "filter_report.csv").read_bytes()

    def test_summary_columns_and_epoch_count(self, config_path, dataset_path,
                                             tmp_path):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--dataset", dataset_path,
              "--out", str(run)])
        lines = (run / "summary.csv").read_text().splitlines()
        assert lines[0] == ("epoch,train_loss,label1_fraction,recall_at_1,"
                            "recall_at_10,recall_at_50,filter_precision,"
                            "filter_recall,filter_f1")
        assert len(lines) == 1 + SMALL["train"]["epochs"]
        # warm-up rows leave the filter columns empty
        assert lines[1].endswith(",,,")

    def test_zero_epochs_header_only(self, tmp_path, dataset_path):
        cfg = dict(SMALL, train=dict(SMALL["train"], epochs=0))
        cfg_path = tmp_path / "zero.json"
        cfg_path.write_text(json.dumps(cfg))
        run = tmp_path / "run0"
        assert main(["train", "--config", str(cfg_path), "--dataset",
                     dataset_path, "--out", str(run)]) == EXIT_OK
        assert (run / "summary.csv").read_text().count("\n") == 1

    def test_filter_disabled_note_and_no_report(self, tmp_path, dataset_path,
                                                capsys):
        cfg = dict(SMALL, train=dict(SMALL["train"], enable_nfb=False))
        cfg_path = tmp_path / "nofilter.json"
        cfg_path.write_text(json.dumps(cfg))
        run = tmp_path / "run_nf"
        assert main(["train", "--config", str(cfg_path), "--dataset",
                     dataset_path, "--out", str(run)]) == EXIT_OK
        assert "filter disabled" in capsys.readouterr().out
        assert not (run / "filter_report.csv").exists()
        meta = json.loads((run / "run_meta.json").read_text())
        assert "filter disabled" in meta["notes"]

    @pytest.mark.parametrize("n, fraction, n_eval", [(10, 0.01, 1), (300, 0.2, 60)])
    def test_eval_set_smaller_than_max_k_is_noted(self, tmp_path, capsys, n,
                                                   fraction, n_eval):
        # R@50 over fewer than 50 pairs is 1.0 by construction; say so
        cfg_path = tmp_path / "small_eval.json"
        cfg_path.write_text(json.dumps({
            "dataset": {**SMALL["dataset"], "num_triplets": n, "mismatch_rate": 0.0},
            "train": {**SMALL["train"], "epochs": 1, "batch_size": 4,
                      "eval_fraction": fraction}}))
        data, run = tmp_path / "d.ncld", tmp_path / "run"
        assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data),
                     "--out", str(run)]) == EXIT_OK
        out = capsys.readouterr().out
        meta = json.loads((run / "run_meta.json").read_text())
        assert meta["n_eval"] == n_eval
        note = (f"eval set of {n_eval} pairs is smaller than K=50: "
                f"R@K is 1.0 for every K >= {n_eval}")
        assert (note in out) == (note in meta["notes"]) == (n_eval < 50)
        lines = (run / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,train_loss,") and len(lines) == 2
        if n_eval == 1:
            assert lines[1].split(",")[3:6] == ["1.0", "1.0", "1.0"]

    def test_run_meta_records_the_spec_of_the_file_trained_on(self, tmp_path):
        # the config's dataset section describes other data than the file;
        # --seed sets the training seed only
        data = tmp_path / "d.ncld"
        file_cfg, train_cfg = tmp_path / "file.json", tmp_path / "train.json"
        file_cfg.write_text(json.dumps({"dataset": {
            **SMALL["dataset"], "num_triplets": 40, "dim": 8, "seed": 1}}))
        train_cfg.write_text(json.dumps({
            "dataset": {**SMALL["dataset"], "num_triplets": 2000, "dim": 32, "seed": 9},
            "train": {**SMALL["train"], "epochs": 1}}))
        assert main(["generate", "--config", str(file_cfg), "--out", str(data)]) == EXIT_OK
        for seed, want in ((None, 0), ("5", 5)):
            run = tmp_path / f"run-{seed}"
            argv = ["train", "--config", str(train_cfg), "--dataset", str(data),
                    "--out", str(run)] + (["--seed", seed] if seed else [])
            assert main(argv) == EXIT_OK
            config = json.loads((run / "run_meta.json").read_text())["config"]
            spec = config["dataset"]
            assert (spec["num_triplets"], spec["dim"], spec["seed"]) == (40, 8, 1)
            assert config["train"]["seed"] == want

    def test_variant_override(self, config_path, dataset_path, tmp_path):
        run = tmp_path / "run_b"
        assert main(["train", "--config", config_path, "--dataset", dataset_path,
                     "--out", str(run), "--variant", "baseline"]) == EXIT_OK
        meta = json.loads((run / "run_meta.json").read_text())
        assert meta["config"]["train"]["enable_wcb"] is False
        assert meta["config"]["train"]["enable_nfb"] is False

    def test_corrupt_dataset_exits_3(self, config_path, dataset_path, tmp_path):
        blob = bytearray(open(dataset_path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.ncld"
        bad.write_bytes(bytes(blob))
        assert main(["train", "--config", config_path, "--dataset", str(bad),
                     "--out", str(tmp_path / "runX")]) == EXIT_DATA

    def test_missing_dataset_exits_2(self, config_path, tmp_path):
        assert main(["train", "--config", config_path,
                     "--dataset", str(tmp_path / "absent.ncld"),
                     "--out", str(tmp_path / "runY")]) == EXIT_IO


def test_text_outputs_are_utf8_bytes_without_newline_translation(tmp_path):
    path = tmp_path / "out.txt"
    _atomic_write_text(str(path), "a,\u00e9\r\nb\n")
    assert path.read_bytes() == "a,\u00e9\r\nb\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _set_byte_12(path):
    blob = bytearray(path.read_bytes())
    blob[12] = 0xFF
    path.write_bytes(bytes(blob))


def _header_edit(mutate):
    """Edit the header and recompute the whole-file checksum, so the edit
    reaches the reader's validators rather than stopping at the checksum."""
    return lambda path: rewrite_header(path, mutate)


def _truth_code(value):
    """Set the first sample's truth code, with a recomputed checksum."""
    return lambda path: rewrite_record(path, 0, -3, value)


class TestCorruptHeader:
    """Well-formed files whose header or records are wrong must exit 3."""

    @pytest.mark.parametrize("corrupt", [
        _set_byte_12,
        # version 1's per-sample offsets are not a version 2 key
        _header_edit(lambda h: h.update(offsets=[])),
        _header_edit(lambda h: h["spec"].update(colour="red")),
        _header_edit(lambda h: h["spec"].update(dim=64)),
        _header_edit(lambda h: h.update(offsets=[0, -8])),
        _header_edit(lambda h: h["spec"].update(dim=16)),
        _truth_code(7.0),
        _truth_code(0.5),
        _header_edit(lambda h: h.update(n_samples=h["n_samples"] + 1)),
        _header_edit(lambda h: h.update(n_samples=h["n_samples"] - 1)),
        _header_edit(lambda h: b"[" * DEEP + b"]" * DEEP),
    ], ids=["byte-12-0xff", "offsets-removed", "unknown-spec-key", "dim-64",
            "negative-offset", "dim-16", "unknown-truth", "fractional-truth",
            "n-samples-plus-one", "n-samples-minus-one", "nested-too-deep"])
    def test_train_exits_3_without_traceback(self, tmp_path, corrupt, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset": {"num_triplets": 10, "seed": 1}}))
        data = tmp_path / "data.ncld"
        assert main(["generate", "--config", str(cfg), "--out", str(data)]) == EXIT_OK
        corrupt(data)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--dataset", str(data),
                     "--out", str(tmp_path / "run")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")
        assert not (tmp_path / "run").exists()


class TestGradcheck:
    def test_pass(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max relative error" in out

    def test_injected_fault_is_caught_and_named(self, capsys):
        assert main(["gradcheck", "--inject-fault", "matmul"]) == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "fault injected in op matmul" in out
        # worst offender should be reported so failures are actionable
        assert "worst parameter" in out

    @pytest.mark.parametrize("seed", ["2", "5"])
    def test_degenerate_input_exits_4_without_traceback(self, seed, capsys):
        # a zero WCB-view query row: the clamp's kink at 0 fails the tolerance
        assert main(["gradcheck", "--seed", seed]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "max relative error: 1.000e+00 (worst parameter: fuse_wcb.b2)" in captured.out
        assert "FAIL (tolerance 1e-5)" in captured.out

    def test_fault_hook_resets_after_run(self, capsys):
        main(["gradcheck", "--inject-fault", "matmul"])
        capsys.readouterr()
        assert main(["gradcheck"]) == EXIT_OK

    def test_unknown_fault_op_exits_1(self, capsys):
        assert main(["gradcheck", "--inject-fault", "typo"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "invalid choice: 'typo'" in captured.err
        assert "PASS" not in captured.out

    def test_fault_ops_are_the_ops_with_a_hook(self):
        hooked = re.findall(r'_fault\("(\w+)"', inspect.getsource(ad))
        assert sorted(set(hooked)) == sorted(ad.FAULT_OPS)

    @pytest.mark.parametrize("op", [
        "add", "maxpool_segments", "concat_cols", "slice_rows", "cosine_matrix",
        "softmax_xent_rows", "masked_mean", "matmul", "relu"])
    def test_every_fault_op_fails_the_check(self, op, capsys):
        assert main(["gradcheck", "--inject-fault", op]) == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert f"fault injected in op {op}\nFAIL (tolerance 1e-5)\n" in out


def _tiny_config(num_triplets, dim=4, image_patches=4):
    return {"dataset": {"num_concepts": 4, "dim": dim, "text_tokens": 2,
                        "image_patches": image_patches,
                        "num_triplets": num_triplets, "mismatch_rate": 0.3,
                        "seed": 0},
            "train": {"epochs": 2, "warmup_epochs": 1, "seed": 0}}


@pytest.mark.parametrize("config, variant, code", [
    *[(_tiny_config(1), v, EXIT_NUMERIC)  # no clean pair to hold out
      for v in ("baseline", "wcb_only", "nfb_only", "full")],
    (_tiny_config(2), "full", EXIT_NUMERIC),  # 1 training pair, epoch scope
    (_tiny_config(20), "full", EXIT_OK),  # training splits of 1 mod 16
    (_tiny_config(38), "full", EXIT_OK),
    (_tiny_config(57, dim=8, image_patches=8), "full", EXIT_OK),
], ids=[f"1-{v}" for v in ("baseline", "wcb_only", "nfb_only", "full")]
    + ["2-full", "20-full", "38-full", "57-d8-full"])
def test_degenerate_split_exits_cleanly(tmp_path, capsys, config, variant, code):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    data = tmp_path / "data.ncld"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--dataset", str(data),
                 "--out", str(tmp_path / "run"), "--variant", variant]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if code == EXIT_NUMERIC:
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1


class TestAblateAndReport:
    def test_ablate_rows_and_report(self, tmp_path, capsys):
        cfg = {"dataset": dict(SMALL["dataset"], num_triplets=60),
               "train": dict(SMALL["train"], epochs=3)}
        cfg_path = tmp_path / "ab.json"
        cfg_path.write_text(json.dumps(cfg))
        data = tmp_path / "ab.ncld"
        main(["generate", "--config", str(cfg_path), "--out", str(data)])
        run = tmp_path / "ab_out"
        assert main(["ablate", "--config", str(cfg_path), "--dataset", str(data),
                     "--out", str(run)]) == EXIT_OK
        capsys.readouterr()
        lines = (run / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,R@1,R@10,R@50,Avg"
        assert [ln.split(",")[0] for ln in lines[1:]] \
            == ["baseline", "wcb_only", "nfb_only", "full"]

    def test_ablate_notes_an_eval_set_smaller_than_max_k(self, tmp_path, capsys):
        cfg_path = tmp_path / "small_eval.json"
        cfg_path.write_text(json.dumps({
            "dataset": {**SMALL["dataset"], "num_triplets": 10, "mismatch_rate": 0.0},
            "train": {**SMALL["train"], "epochs": 1, "batch_size": 4,
                      "eval_fraction": 0.01}}))
        data = tmp_path / "d.ncld"
        assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == EXIT_OK
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg_path), "--dataset", str(data),
                     "--out", str(tmp_path / "ab")]) == EXIT_OK
        out = capsys.readouterr().out
        # one split serves all four variants, so one note covers them
        assert out.count("eval set of 1 pairs is smaller than K=50: "
                         "R@K is 1.0 for every K >= 1\n") == 1

    def test_report_prints_summary_and_notes(self, tmp_path, dataset_path,
                                             capsys):
        cfg = dict(SMALL, train=dict(SMALL["train"], enable_nfb=False, epochs=2))
        cfg_path = tmp_path / "rep.json"
        cfg_path.write_text(json.dumps(cfg))
        run = tmp_path / "rep_run"
        main(["train", "--config", str(cfg_path), "--dataset", dataset_path,
              "--out", str(run)])
        capsys.readouterr()
        assert main(["report", "--out", str(run)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("epoch,train_loss")
        assert "notes: filter disabled" in out

    def test_report_missing_dir_exits_2(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "nope")]) == EXIT_IO


def test_every_csv_cell_is_empty_a_name_or_a_number(tmp_path):
    cfg_path = tmp_path / "cells.json"
    cfg_path.write_text(json.dumps({"dataset": dict(SMALL["dataset"], num_triplets=60),
                                    "train": dict(SMALL["train"], epochs=3)}))
    data, run, ab = tmp_path / "d.ncld", tmp_path / "run", tmp_path / "ab"
    assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == EXIT_OK
    assert main(["train", "--config", str(cfg_path), "--dataset", str(data),
                 "--out", str(run)]) == EXIT_OK
    assert main(["ablate", "--config", str(cfg_path), "--dataset", str(data),
                 "--out", str(ab)]) == EXIT_OK
    names = {"main", "wcb", "baseline", "wcb_only", "nfb_only", "full"}
    for path in (run / "summary.csv", run / "filter_report.csv", ab / "ablation.csv"):
        lines = path.read_text().splitlines()
        assert len(lines) > 1, path
        for cell in (c for line in lines[1:] for c in line.split(",")):
            if cell and cell not in names:
                float(cell)


def _assert_one_line_error(capsys, prefix):
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    return captured


@pytest.mark.parametrize("content", [
    b'{"dataset": {"seed": "\xff"}}',
    b"[" * DEEP + b"]" * DEEP,
    b'{"dataset": ' * DEEP + b"{}" + b"}" * DEEP,
], ids=["not-utf8", "nested-arrays", "nested-objects"])
def test_unparsable_config_exits_1_without_traceback(tmp_path, capsys, content):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    out = tmp_path / "d.ncld"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    _assert_one_line_error(capsys, "config error: ")
    assert not out.exists()


@pytest.mark.parametrize("summary, meta", [
    (b"epoch\n0\n", b"{not json"),
    (b"epoch\n0\n", b"[" * DEEP + b"]" * DEEP),
    (b"epoch\n0\n", b"[1]"),
    (b"epoch\n0\n", b'{"notes": 5}'),
    (b"epoch\n0\n", b'{"notes": ["ok", 1]}'),
    (b"epoch\n\xff\n", b'{"notes": []}'),
], ids=["meta-not-json", "meta-nested-deep", "meta-not-an-object", "notes-not-a-list",
        "note-not-a-string", "summary-not-utf8"])
def test_report_on_malformed_run_files_exits_3_without_traceback(tmp_path, capsys,
                                                                 summary, meta):
    run = tmp_path / "run"
    run.mkdir()
    (run / "summary.csv").write_bytes(summary)
    (run / "run_meta.json").write_bytes(meta)
    assert main(["report", "--out", str(run)]) == EXIT_DATA
    assert _assert_one_line_error(capsys, "data error: ").out == ""
