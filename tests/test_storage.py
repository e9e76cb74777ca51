import dataclasses
import json
import os
import stat
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from noisycir.autodiff import ParamStore
from noisycir.cli import EXIT_DATA, main
from noisycir.errors import ConfigError, DataFormatError
from noisycir import storage
from noisycir.storage import (MAGIC_DATASET, read_dataset, read_weights,
                              write_dataset, write_weights)
from noisycir.synth import TRUTHS, DatasetSpec, generate_dataset

SPEC = DatasetSpec(num_concepts=6, dim=8, text_tokens=4, image_patches=6,
                   num_triplets=12, mismatch_rate=0.3, seed=5)


@pytest.fixture
def dataset_file(tmp_path):
    samples = generate_dataset(SPEC)
    path = tmp_path / "data.ncld"
    write_dataset(samples, SPEC, str(path))
    return samples, path


def test_round_trip_bit_exact(dataset_file):
    samples, path = dataset_file
    loaded, spec = read_dataset(str(path))
    assert spec == SPEC
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert a.truth == b.truth
        assert a.concept_ids == tuple(b.concept_ids)
        for ba, bb in ((a.mod_text, b.mod_text), (a.ref_image, b.ref_image),
                       (a.tar_image, b.tar_image)):
            assert np.array_equal(ba.tokens, bb.tokens)
            assert np.array_equal(ba.attention, bb.attention)
            assert ba.global_index == bb.global_index
            assert ba.modality == bb.modality


def test_header_metadata(dataset_file):
    _, path = dataset_file
    blob = path.read_bytes()
    assert blob[:4] == MAGIC_DATASET
    (hdr_len,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10:10 + hdr_len])
    assert set(header) == {"kind", "spec", "n_samples"}
    assert header["kind"] == "dataset"
    assert header["n_samples"] == SPEC.num_triplets
    assert header["spec"]["seed"] == SPEC.seed


def test_truncation_detected(dataset_file):
    _, path = dataset_file
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(DataFormatError, match="truncated|checksum"):
        read_dataset(str(path))


def test_checksum_corruption_detected(dataset_file):
    _, path = dataset_file
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # flip a payload bit
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="checksum"):
        read_dataset(str(path))


def test_bad_magic(tmp_path, dataset_file):
    _, path = dataset_file
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.ncld"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="magic"):
        read_dataset(str(bad))


def test_failed_write_leaves_no_partial_file(tmp_path):
    samples = generate_dataset(SPEC)
    target_dir = tmp_path / "missing"
    with pytest.raises(OSError):
        write_dataset(samples, SPEC, str(target_dir / "data.ncld"))
    assert not target_dir.exists()


@pytest.mark.parametrize("other", [
    # would load, with a header that misdescribes the records
    dataclasses.replace(SPEC, seed=6, mismatch_rate=0.1),
    # would fail only when read back, on the payload size
    dataclasses.replace(SPEC, dim=16),
], ids=["seed_and_rate", "dim"])
def test_a_spec_other_than_the_datasets_own_is_refused(tmp_path, other):
    with pytest.raises(ConfigError):
        write_dataset(generate_dataset(SPEC), other, str(tmp_path / "data.ncld"))
    assert list(tmp_path.iterdir()) == []  # no file and no temp file


def test_a_part_of_the_dataset_is_refused(tmp_path):
    samples = generate_dataset(dataclasses.replace(SPEC, num_triplets=20))
    with pytest.raises(ConfigError, match="3 records"):
        write_dataset(samples[5:8], samples.spec, str(tmp_path / "data.ncld"))
    assert list(tmp_path.iterdir()) == []  # no file and no temp file


def test_a_file_of_part_of_its_specs_dataset_is_refused(dataset_file):
    samples, path = dataset_file
    # header and payload agree on 3 records, the spec says 12
    rewrite(path, header=lambda h: h.update(n_samples=3),
            payload=lambda body: samples.records[5:8].astype("<f8").tobytes())
    with pytest.raises(DataFormatError, match="num_triplets"):
        read_dataset(str(path))


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_follow_the_umask(tmp_path, umask):
    # like open(path, "wb"): mode 0o666 less the umask, not mkstemp's 0o600
    previous = os.umask(umask)
    try:
        write_dataset(generate_dataset(SPEC), SPEC, str(tmp_path / "data.ncld"))
    finally:
        os.umask(previous)
    mode = stat.S_IMODE(os.stat(tmp_path / "data.ncld").st_mode)
    assert mode == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["data.ncld"]


def test_weights_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.init_mlp("a", 4, 4, 4, rng)
    store.init_mlp("b", 8, 4, 4, rng)
    path = tmp_path / "w.nclw"
    write_weights(store, str(path))
    loaded = read_weights(str(path))
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded.params[name], store.params[name])
    assert np.array_equal(loaded.flat_params, store.flat_params)


def test_weights_magic_distinct(tmp_path, dataset_file):
    _, path = dataset_file
    with pytest.raises(DataFormatError, match="magic"):
        read_weights(str(path))


def rewrite(path, header=None, payload=None):
    """Apply header to the parsed JSON header and payload to the payload's
    bytes (each edits in place or returns the replacement; header may return
    the raw header bytes), then write the file back with a matching header
    length and a recomputed checksum, so the edit reaches the reader's
    validators."""
    blob = path.read_bytes()
    (hdr_len,) = struct.unpack("<I", blob[6:10])
    parsed = json.loads(blob[10:10 + hdr_len])
    body = blob[10 + hdr_len:-4]
    if header is not None:
        parsed = header(parsed) or parsed
    if payload is not None:
        body = payload(bytearray(body)) or body
    hdr = parsed if isinstance(parsed, bytes) else json.dumps(parsed).encode("utf-8")
    out = blob[:6] + struct.pack("<I", len(hdr)) + hdr + bytes(body)
    path.write_bytes(out + struct.pack("<I", zlib.crc32(out)))


def rewrite_header(path, mutate):
    rewrite(path, header=mutate)


def rewrite_record(path, sample, column, value):
    """Set one float of one sample's payload record (column -3 is its truth
    code, -2 and -1 its concept ids) and recompute the checksum."""
    blob = path.read_bytes()
    (hdr_len,) = struct.unpack("<I", blob[6:10])
    n_samples = json.loads(blob[10:10 + hdr_len])["n_samples"]

    def edit(body):
        rows = np.frombuffer(body, dtype="<f8").reshape(n_samples, -1).copy()
        rows[sample, column] = value
        return rows.tobytes()
    rewrite(path, payload=edit)


def test_weights_header_metadata(tmp_path):
    store = ParamStore()
    store.init_mlp("a", 3, 2, 2, np.random.default_rng(1))
    path = tmp_path / "w.nclw"
    write_weights(store, str(path), extra={"note": 1})
    blob = path.read_bytes()
    (hdr_len,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10:10 + hdr_len])
    assert set(header) == {"kind", "params", "extra"}
    assert header["extra"] == {"note": 1}
    assert [set(e) for e in header["params"]] == [{"name", "shape"}] * 4


def test_truth_is_read_from_the_checksummed_record(dataset_file):
    _, path = dataset_file
    rewrite(path)  # no edit: the rewritten file is the written one
    assert read_dataset(str(path))[1] == SPEC
    for code, truth in enumerate(("clean", "partial", "mismatched")):
        rewrite_record(path, 0, -3, float(code))
        assert read_dataset(str(path))[0][0].truth == truth


@pytest.mark.parametrize("column, value", [
    (-3, 3.0), (-3, 7.0), (-3, 0.5), (-3, -1.0), (-3, float("nan")),
    (-2, float(SPEC.num_concepts)), (-1, -1.0), (-1, 2.5), (-2, float("inf")),
], ids=["truth-3", "truth-7", "truth-half", "truth-negative", "truth-nan",
        "concept-too-large", "concept-negative", "concept-fraction", "concept-inf"])
def test_bad_record_codes_rejected(dataset_file, column, value):
    _, path = dataset_file
    rewrite_record(path, 4, column, value)
    with pytest.raises(DataFormatError, match="sample 4: bad (truth code|concept ids)"):
        read_dataset(str(path))


def test_concept_ids_come_back_as_python_ints(dataset_file):
    samples, path = dataset_file
    loaded, _ = read_dataset(str(path))
    assert [repr(s.concept_ids) for s in loaded] == [repr(s.concept_ids) for s in samples]
    assert all(type(c) is int for s in loaded for c in s.concept_ids)


def test_code_views_equal_each_sample_before_and_after_a_round_trip(tmp_path):
    spec = dataclasses.replace(SPEC, num_triplets=40, partial_rate=0.3)
    made = generate_dataset(spec)
    write_dataset(made, spec, str(tmp_path / "codes.ncld"))
    loaded, _ = read_dataset(str(tmp_path / "codes.ncld"))
    for ds in (made, loaded, made[np.array([9, 2, 30])]):
        samples = list(ds)
        assert ds.truth_codes.shape == (len(ds),)
        assert ds.concept_ids.shape == (len(ds), 2)
        assert [TRUTHS[int(c)] for c in ds.truth_codes] == [s.truth for s in samples]
        assert ds.concept_ids.tolist() == [list(s.concept_ids) for s in samples]
        assert ds.is_noisy.tolist() == [s.is_noisy for s in samples]
    assert set(s.truth for s in made) == set(TRUTHS)
    assert np.array_equal(loaded.truth_codes, made.truth_codes)
    assert np.array_equal(loaded.concept_ids, made.concept_ids)


@pytest.mark.parametrize("mutate", [
    lambda h: h.update(n_samples=-1),
    lambda h: h.update(n_samples=True),
    lambda h: h.update(payload_bytes=0),   # a version 1 field, now stale
    lambda h: h.pop("kind"),
    lambda h: h.update(kind="weights"),
    lambda h: [h],
    lambda h: h["spec"].update(noise_scale=10**400),  # an int past the largest float
], ids=["n-samples-negative", "n-samples-bool", "stale-payload-bytes",
        "no-kind", "wrong-kind", "not-an-object", "spec-float-overflow"])
def test_bad_dataset_header_raises_data_format_error(dataset_file, mutate):
    _, path = dataset_file
    rewrite_header(path, mutate)
    with pytest.raises(DataFormatError):
        read_dataset(str(path))


def _as_version_1(path):
    """Rewrite a file's version field to 1 and its checksum over the payload
    alone, as version 1 files had it."""
    blob = bytearray(path.read_bytes())
    (hdr_len,) = struct.unpack("<I", blob[6:10])
    blob[4:6] = struct.pack("<H", 1)
    blob[-4:] = struct.pack("<I", zlib.crc32(blob[10 + hdr_len:-4]))
    path.write_bytes(bytes(blob))


def test_version_1_file_exits_3_with_one_line(dataset_file, tmp_path, capsys):
    _, path = dataset_file
    _as_version_1(path)
    with pytest.raises(DataFormatError, match="unsupported version 1"):
        read_dataset(str(path))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"train": {"epochs": 1, "batch_size": 4}}))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--dataset", str(path),
                 "--out", str(tmp_path / "run")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: unsupported version 1")
    assert "noisycir generate" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.fixture
def weights_file(tmp_path):
    store = ParamStore()
    store.init_mlp("a", 3, 2, 2, np.random.default_rng(1))
    path = tmp_path / "w.nclw"
    write_weights(store, str(path))
    return path


def _set_first(key, value):
    def mutate(header):
        header["params"][0][key] = value
    return mutate


def _add_param(header):
    header["params"].append({"name": "z", "shape": [1, 1]})


@pytest.mark.parametrize("mutate", [
    _set_first("shape", [2, 2]),       # shorter than the payload holds
    _set_first("shape", [3, 2, 1]),    # not 2-D
    _set_first("shape", [3, "2"]),
    _set_first("offset", -8),          # version 1's offsets are stale keys
    _set_first("offset", 0),
    _set_first("name", "a.b1"),        # duplicate of a later name
    _set_first("group", "wcb"),        # a stale key of files with two learning rates
    _add_param,                        # the payload is one float short of it
    lambda h: h.update(params={}),
    lambda h: h.update(payload_bytes=8),
    lambda h: h.pop("extra"),
    lambda h: h.update(extra=[]),
], ids=["short-shape", "3d-shape", "string-dim", "negative-offset",
        "missing-offset", "duplicate-name", "stale-group", "payload-short", "params-not-list",
        "stale-payload-bytes", "no-extra", "extra-not-object"])
def test_bad_weights_header_raises_data_format_error(weights_file, mutate):
    rewrite_header(weights_file, mutate)
    with pytest.raises(DataFormatError):
        read_weights(str(weights_file))


def test_trailing_bytes_rejected(dataset_file):
    _, path = dataset_file
    blob = path.read_bytes()
    path.write_bytes(blob + b"\0" * 8)
    with pytest.raises(DataFormatError, match="checksum"):
        read_dataset(str(path))
    # the same bytes inside the checksum are a payload of the wrong size
    path.write_bytes(blob)
    rewrite(path, payload=lambda body: body + b"\0" * 8)
    with pytest.raises(DataFormatError, match="payload size"):
        read_dataset(str(path))


TINY_SPEC = DatasetSpec(num_concepts=2, dim=4, text_tokens=1, image_patches=2,
                        num_triplets=2, mismatch_rate=0.5, seed=3)


def _tiny_files(tmp_path):
    data = tmp_path / "tiny.ncld"
    write_dataset(generate_dataset(TINY_SPEC), TINY_SPEC, str(data))
    store = ParamStore()
    store.init_mlp("m", 2, 2, 1, np.random.default_rng(2))
    weights = tmp_path / "tiny.nclw"
    write_weights(store, str(weights))
    return [(data, read_dataset), (weights, read_weights)]


def test_fuzz_byte_flips_and_truncations(tmp_path):
    """Every single-byte flip and every truncation raises DataFormatError:
    the checksum covers the whole file, and no other exception escapes a
    reader."""
    probe = tmp_path / "probe"
    for path, reader in _tiny_files(tmp_path):
        blob = path.read_bytes()
        reader(str(path))
        loaded = 0
        for i in range(len(blob)):
            for mask in (0xFF, 0x01):
                bad = bytearray(blob)
                bad[i] ^= mask
                probe.write_bytes(bytes(bad))
                try:
                    reader(str(probe))
                    loaded += 1
                except DataFormatError:
                    pass
        assert loaded == 0
        for k in range(len(blob)):
            probe.write_bytes(blob[:k])
            with pytest.raises(DataFormatError):
                reader(str(probe))


# At N=1000 the file is 11.6 MB; the records are held once, and nothing
# else of that size is allocated on the way to or from the file.
MEMORY_SPEC = DatasetSpec(num_triplets=1000, mismatch_rate=0.2, partial_rate=0.1)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of what it allocated, as tracemalloc counts it
    (NumPy reports its array buffers to tracemalloc)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def memory_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "data.ncld"
    write_dataset(generate_dataset(MEMORY_SPEC), MEMORY_SPEC, str(path))
    return path


def test_generated_dataset_holds_at_most_1_25x_the_file(memory_file):
    samples, peak = _traced_peak(generate_dataset, MEMORY_SPEC)
    assert len(samples) == MEMORY_SPEC.num_triplets
    assert peak <= 1.25 * memory_file.stat().st_size


def test_write_allocates_at_most_one_chunk(memory_file, tmp_path):
    samples = generate_dataset(MEMORY_SPEC)
    path = tmp_path / "again.ncld"
    _, peak = _traced_peak(write_dataset, samples, MEMORY_SPEC, str(path))
    assert peak <= storage._CHUNK * MEMORY_SPEC.record_size * 8
    assert path.read_bytes() == memory_file.read_bytes()


def test_read_peak_is_at_most_1_25x_the_file(memory_file):
    (loaded, _), peak = _traced_peak(read_dataset, str(memory_file))
    assert peak <= 1.25 * memory_file.stat().st_size
    # the records are the bytes read, and the bundles view them
    assert loaded.records.shape == (MEMORY_SPEC.num_triplets, MEMORY_SPEC.record_size)
    assert np.shares_memory(loaded.tar_image.tokens, loaded.records)


def test_read_then_write_reproduces_the_file(dataset_file, tmp_path):
    _, path = dataset_file
    loaded, spec = read_dataset(str(path))
    again = tmp_path / "again.ncld"
    write_dataset(loaded, spec, str(again))
    assert again.read_bytes() == path.read_bytes()
