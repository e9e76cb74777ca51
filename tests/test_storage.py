import json
import os
import stat
import struct

import numpy as np
import pytest

from noisycir.autodiff import ParamStore
from noisycir.errors import DataFormatError
from noisycir.storage import (MAGIC_DATASET, read_dataset, read_weights,
                              write_dataset, write_weights)
from noisycir.synth import DatasetSpec, generate_dataset

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
    assert header["n_samples"] == SPEC.num_triplets
    assert header["dims"] == {"n": SPEC.text_tokens, "m": SPEC.image_patches,
                              "d": SPEC.dim}
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
    store.init_mlp("a", 4, 4, 4, rng, group="wcb")
    store.init_mlp("b", 8, 4, 4, rng, group="other")
    path = tmp_path / "w.nclw"
    write_weights(store, str(path))
    loaded = read_weights(str(path))
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded.params[name], store.params[name])
        assert loaded.groups[name] == store.groups[name]


def test_weights_magic_distinct(tmp_path, dataset_file):
    _, path = dataset_file
    with pytest.raises(DataFormatError, match="magic"):
        read_weights(str(path))


def rewrite_header(path, mutate):
    """Apply mutate to the parsed JSON header and write the file back with a
    matching header length; the payload and its checksum stay as they were."""
    blob = path.read_bytes()
    (hdr_len,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10:10 + hdr_len])
    mutate(header)
    hdr = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:6] + struct.pack("<I", len(hdr)) + hdr + blob[10 + hdr_len:])


@pytest.fixture
def weights_file(tmp_path):
    store = ParamStore()
    store.init_mlp("a", 3, 2, 2, np.random.default_rng(1), group="wcb")
    path = tmp_path / "w.nclw"
    write_weights(store, str(path))
    return path


def _set_first(key, value):
    def mutate(header):
        header["params"][0][key] = value
    return mutate


def _drop_first_offset(header):
    del header["params"][0]["offset"]


@pytest.mark.parametrize("mutate", [
    _set_first("shape", [2, 2]),       # shorter than what the offsets imply
    _set_first("shape", [3, 2, 1]),    # not 2-D
    _set_first("shape", [3, "2"]),
    _set_first("offset", -8),
    _drop_first_offset,
    _set_first("name", "a.b1"),        # duplicate of a later name
    lambda h: h.update(payload_bytes=h["payload_bytes"] - 8),
    lambda h: h.update(params={}),
], ids=["short-shape", "3d-shape", "string-dim", "negative-offset",
        "missing-offset", "duplicate-name", "payload-short", "params-not-list"])
def test_bad_weights_header_raises_data_format_error(weights_file, mutate):
    rewrite_header(weights_file, mutate)
    with pytest.raises(DataFormatError):
        read_weights(str(weights_file))


def test_trailing_bytes_rejected(dataset_file):
    _, path = dataset_file
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(DataFormatError, match="trailing"):
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
    """Every single-byte flip either loads or raises DataFormatError, and
    every truncation raises it: no other exception escapes a reader."""
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
        # flips inside the header can still give a valid file, never a payload flip
        assert loaded < len(blob) // 4
        for k in range(len(blob)):
            probe.write_bytes(blob[:k])
            with pytest.raises(DataFormatError):
                reader(str(probe))
