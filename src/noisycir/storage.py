"""Binary container I/O for datasets and trained weights.

Layout (little-endian throughout):
    magic (4 bytes) | version u16 | header_len u32 | JSON header |
    float64 payload | crc32 of payload (u32)

Datasets use magic "NCLD", weight files "NCLW". Writes stream the header
and then each array, with a running checksum, to a temp file in the target
directory, which is renamed into place, so the file is never held in memory
whole and a failed write never leaves a partial artifact.

The header is not under the checksum, so readers validate every header
field they use: types, keys, and that payload_bytes and the offsets are
exactly what the header's counts and shapes imply. Any malformed file
raises DataFormatError.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import zlib
from collections.abc import Iterable, Iterator

import numpy as np

from .autodiff import ParamStore
from .errors import ConfigError, DataFormatError
from .synth import (TRUTH_CLEAN, TRUTH_MISMATCHED, TRUTH_PARTIAL, DatasetSpec,
                    TokenBundle, TripletSample)

MAGIC_DATASET = b"NCLD"
MAGIC_WEIGHTS = b"NCLW"
VERSION = 1

_TRUTHS = (TRUTH_CLEAN, TRUTH_PARTIAL, TRUTH_MISMATCHED)


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write the chunks, in order, to a temp file and rename it into place."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    # a fresh file like mkstemp's, but its mode follows the umask, as open()'s
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _container(magic: bytes, header: dict,
               arrays: Iterable[np.ndarray]) -> Iterator[bytes]:
    """The file's bytes in order: preamble, header, each array as float64,
    then the CRC32 of the arrays' bytes, computed as they stream past."""
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    yield magic + struct.pack("<HI", VERSION, len(hdr)) + hdr
    crc = 0
    for arr in arrays:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        crc = zlib.crc32(raw, crc)
        yield raw
    yield struct.pack("<I", crc & 0xFFFFFFFF)


def _unpack(blob: bytes, magic: bytes) -> tuple[dict, memoryview]:
    if len(blob) < 10:
        raise DataFormatError("truncated file: preamble incomplete")
    if blob[:4] != magic:
        raise DataFormatError(f"bad magic: expected {magic!r}")
    (version,) = struct.unpack("<H", blob[4:6])
    if version != VERSION:
        raise DataFormatError(f"unsupported version {version}")
    (hdr_len,) = struct.unpack("<I", blob[6:10])
    if len(blob) < 10 + hdr_len + 4:
        raise DataFormatError("truncated file: header incomplete")
    try:
        header = json.loads(blob[10:10 + hdr_len].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise DataFormatError(f"unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise DataFormatError("header is not a JSON object")
    payload_len = _get(header, "payload_bytes", int)
    end = 10 + hdr_len + payload_len
    if payload_len < 0 or len(blob) < end + 4:
        raise DataFormatError("truncated file: payload incomplete")
    if len(blob) > end + 4:
        raise DataFormatError("trailing bytes after checksum")
    payload = memoryview(blob)[10 + hdr_len:end]
    (crc,) = struct.unpack("<I", blob[end:end + 4])
    if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise DataFormatError("checksum mismatch")
    return header, payload


def _get(obj: dict, key: str, kind: type, where: str = "header"):
    """obj[key], which must exist and be of the given JSON type.

    A bool is not accepted where a number is expected; an int is accepted
    where a float is.
    """
    if key not in obj:
        raise DataFormatError(f"{where} lacks {key!r}")
    value = obj[key]
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise DataFormatError(f"{where} {key!r} must be a JSON {kind.__name__}")
    return value


def _spec_from_header(header: dict) -> DatasetSpec:
    raw = _get(header, "spec", dict)
    fields = dataclasses.fields(DatasetSpec)
    if set(raw) != {f.name for f in fields}:
        raise DataFormatError(f"spec keys {sorted(raw)} do not match DatasetSpec")
    for f in fields:
        _get(raw, f.name, type(f.default), "spec")
    spec = DatasetSpec(**raw)
    try:
        spec.validate()
    except ConfigError as exc:
        raise DataFormatError(f"invalid spec: {exc}") from None
    return spec


def _sample_arrays(s: TripletSample) -> list[np.ndarray]:
    """A sample's arrays in file order: tokens then attention, per bundle."""
    return [a for b in (s.mod_text, s.ref_image, s.tar_image)
            for a in (b.tokens, b.attention)]


def write_dataset(samples: list[TripletSample], spec: DatasetSpec, path: str) -> None:
    offsets: list[int] = []
    pos = 0
    for s in samples:
        offsets.append(pos)
        pos += 8 * sum(a.size for a in _sample_arrays(s))
    header = {
        "kind": "dataset",
        "spec": dataclasses.asdict(spec),
        "n_samples": len(samples),
        "dims": {"n": spec.text_tokens, "m": spec.image_patches, "d": spec.dim},
        "samples": [{"truth": s.truth, "concept_ids": list(s.concept_ids)}
                    for s in samples],
        "offsets": offsets,
        "payload_bytes": pos,
    }
    arrays = (a for s in samples for a in _sample_arrays(s))
    _atomic_write(path, _container(MAGIC_DATASET, header, arrays))


def read_dataset(path: str) -> tuple[list[TripletSample], DatasetSpec]:
    with open(path, "rb") as fh:
        blob = fh.read()
    header, payload = _unpack(blob, MAGIC_DATASET)
    if header.get("kind") != "dataset":
        raise DataFormatError("not a dataset file")
    spec = _spec_from_header(header)
    n, m, d = spec.text_tokens, spec.image_patches, spec.dim
    if _get(header, "dims", dict) != {"n": n, "m": m, "d": d}:
        raise DataFormatError("dims disagree with spec")
    # floats per bundle: tokens then attention, for the text and two images
    sizes = [(n + 2) * d, n + 2, (m + 1) * d, m + 1, (m + 1) * d, m + 1]
    stride = sum(sizes)
    n_samples = _get(header, "n_samples", int)
    metas = _get(header, "samples", list)
    offsets = _get(header, "offsets", list)
    if n_samples < 0 or len(metas) != n_samples:
        raise DataFormatError("samples list disagrees with n_samples")
    if (any(type(o) is not int for o in offsets)
            or offsets != [i * stride * 8 for i in range(n_samples)]):
        raise DataFormatError("offsets disagree with n_samples and spec")
    if header["payload_bytes"] != n_samples * stride * 8:
        raise DataFormatError("payload_bytes disagrees with n_samples and spec")

    # Each array is copied on its own: small copies reuse freed heap memory,
    # where one copy of the whole payload would raise the peak footprint.
    rows = np.frombuffer(payload, dtype="<f8").reshape(n_samples, stride)
    bounds = np.cumsum([0] + sizes)
    samples: list[TripletSample] = []
    for i, meta in enumerate(metas):
        if not isinstance(meta, dict) or set(meta) != {"truth", "concept_ids"}:
            raise DataFormatError(f"sample {i}: malformed metadata")
        truth = meta["truth"]
        if truth not in _TRUTHS:
            raise DataFormatError(f"sample {i}: unknown truth {truth!r}")
        ids = meta["concept_ids"]
        if (not isinstance(ids, list) or len(ids) != 2
                or any(type(c) is not int or not 0 <= c < spec.num_concepts
                       for c in ids)):
            raise DataFormatError(f"sample {i}: bad concept_ids {ids!r}")
        mod_t, mod_a, ref_t, ref_a, tar_t, tar_a = (
            rows[i, a:b].copy() for a, b in zip(bounds[:-1], bounds[1:]))
        samples.append(TripletSample(
            mod_text=TokenBundle(mod_t.reshape(n + 2, d), mod_a, n + 1, "text"),
            ref_image=TokenBundle(ref_t.reshape(m + 1, d), ref_a, 0, "image"),
            tar_image=TokenBundle(tar_t.reshape(m + 1, d), tar_a, 0, "image"),
            truth=truth,
            concept_ids=tuple(ids),
        ))
    return samples, spec


def write_weights(store: ParamStore, path: str, extra: dict | None = None) -> None:
    entries: list[dict] = []
    pos = 0
    for name in store.names():
        shape = store.params[name].shape
        entries.append({"name": name, "shape": list(shape),
                        "group": store.groups[name], "offset": pos})
        pos += 8 * math.prod(shape)
    header = {
        "kind": "weights",
        "params": entries,
        "payload_bytes": pos,
        "extra": extra or {},
    }
    arrays = (store.params[name] for name in store.names())
    _atomic_write(path, _container(MAGIC_WEIGHTS, header, arrays))


def read_weights(path: str) -> ParamStore:
    with open(path, "rb") as fh:
        blob = fh.read()
    header, payload = _unpack(blob, MAGIC_WEIGHTS)
    if header.get("kind") != "weights":
        raise DataFormatError("not a weights file")
    _get(header, "extra", dict)
    flat = np.frombuffer(payload, dtype="<f8", count=len(payload) // 8)
    store = ParamStore()
    pos = 0
    for i, e in enumerate(_get(header, "params", list)):
        where = f"parameter {i}"
        if not isinstance(e, dict) or set(e) != {"name", "shape", "group", "offset"}:
            raise DataFormatError(f"{where}: malformed entry")
        name = _get(e, "name", str, where)
        group = _get(e, "group", str, where)
        shape = _get(e, "shape", list, where)
        if len(shape) != 2 or any(type(k) is not int or k < 0 for k in shape):
            raise DataFormatError(f"{where}: bad shape {shape!r}")
        if name in store.params:
            raise DataFormatError(f"{where}: duplicate name {name!r}")
        if _get(e, "offset", int, where) != pos:
            raise DataFormatError(f"{where}: offset disagrees with the shapes before it")
        count = math.prod(shape)
        if pos + count * 8 > len(payload):
            raise DataFormatError(f"{where}: shape runs past the payload")
        store.add(name, flat[pos // 8:pos // 8 + count].reshape(shape), group=group)
        pos += count * 8
    if pos != len(payload):
        raise DataFormatError("payload_bytes disagrees with the parameter shapes")
    return store
