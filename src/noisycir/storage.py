"""Binary container I/O for datasets and trained weights.

Layout (little-endian throughout):
    magic (4 bytes) | version u16 | header_len u32 | JSON header |
    float64 payload | crc32 of every byte before it (u32)

Datasets use magic "NCLD". Their header is exactly {"kind", "spec",
"n_samples"}; the payload is one fixed-stride record per sample: tokens
then attention for the text, reference and target bundles, then
[truth code, reference concept, target concept], with truth codes indexing
_TRUTHS. Weight files use magic "NCLW". Their header is exactly {"kind",
"params", "extra"}, each parameter {"name", "shape", "group"}; the payload
is the parameters in that order, so offsets follow from the shapes.

Writes stream the header and the payload in chunks, with a running checksum,
to a temp file in the target directory that is renamed into place: the file
is never held in memory whole, and a failed write leaves no partial artifact.

Readers check the magic, the version and the checksum, then validate every
field they use: exact key sets and JSON types, the payload size against
what the spec or the shapes imply, truth codes and concept ids against
their ranges. Any malformed file raises DataFormatError. Version 1 files,
whose checksum left the header out, are not read; `noisycir generate`
rewrites a dataset deterministically from its spec.
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
VERSION = 2

_TRUTHS = (TRUTH_CLEAN, TRUTH_PARTIAL, TRUTH_MISMATCHED)
_CHUNK = 256  # dataset records per write and checksum update


def _atomic_write(path: str, chunks: Iterable[bytes | np.ndarray]) -> None:
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
               arrays: Iterable[np.ndarray]) -> Iterator[bytes | np.ndarray]:
    """The file's bytes in order: preamble, header, each array as float64,
    then the CRC32 of all of them, computed as they stream past."""
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = magic + struct.pack("<HI", VERSION, len(hdr)) + hdr
    crc = zlib.crc32(head)
    yield head
    for arr in arrays:
        raw = np.ascontiguousarray(arr, dtype="<f8")
        crc = zlib.crc32(raw, crc)
        yield raw
    yield struct.pack("<I", crc)


def _read(path: str, magic: bytes, kind: str, keys: set[str]) -> tuple[dict, memoryview]:
    """The file's header, with exactly the given keys, and its payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 14:
        raise DataFormatError("truncated file: preamble incomplete")
    if blob[:4] != magic:
        raise DataFormatError(f"bad magic: expected {magic!r}")
    # before the checksum: version 1's covered the payload alone
    (version,) = struct.unpack("<H", blob[4:6])
    if version != VERSION:
        raise DataFormatError(f"unsupported version {version}; regenerate the "
                              "file with `noisycir generate`")
    body = memoryview(blob)[:-4]
    if struct.unpack("<I", blob[-4:])[0] != zlib.crc32(body):
        raise DataFormatError("checksum mismatch")
    (hdr_len,) = struct.unpack("<I", blob[6:10])
    if 10 + hdr_len > len(body):
        raise DataFormatError("truncated file: header incomplete")
    try:
        header = json.loads(blob[10:10 + hdr_len].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise DataFormatError(f"unreadable header: {exc}") from None
    if not isinstance(header, dict) or set(header) != keys:
        raise DataFormatError(f"header must hold exactly the keys {sorted(keys)}")
    if header["kind"] != kind:
        raise DataFormatError(f"not a {kind} file")
    return header, body[10 + hdr_len:]


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
    """A sample's record in file order: tokens then attention, per bundle,
    then its truth code and concept ids."""
    return [a for b in (s.mod_text, s.ref_image, s.tar_image)
            for a in (b.tokens, b.attention)] + [
        np.array([_TRUTHS.index(s.truth), *s.concept_ids], dtype=np.float64)]


def _codes(values: np.ndarray, limit: int, what: str) -> list:
    """values as Python ints; each must be a whole number in [0, limit)."""
    bad = np.argwhere(~((values >= 0) & (values < limit) & (values == np.floor(values))))
    if bad.size:
        i = bad[0][0]
        raise DataFormatError(f"sample {i}: bad {what} {values[i].tolist()!r}")
    return values.astype(np.int64).tolist()


def write_dataset(samples: list[TripletSample], spec: DatasetSpec, path: str) -> None:
    header = {"kind": "dataset", "spec": dataclasses.asdict(spec),
              "n_samples": len(samples)}
    chunks = (np.concatenate([a.ravel() for s in samples[i:i + _CHUNK] for a in _sample_arrays(s)])
              for i in range(0, len(samples), _CHUNK))
    _atomic_write(path, _container(MAGIC_DATASET, header, chunks))


def read_dataset(path: str) -> tuple[list[TripletSample], DatasetSpec]:
    header, payload = _read(path, MAGIC_DATASET, "dataset",
                            {"kind", "spec", "n_samples"})
    spec = _spec_from_header(header)
    n, m, d = spec.text_tokens, spec.image_patches, spec.dim
    # floats per bundle: tokens then attention, for the text and two images
    sizes = [(n + 2) * d, n + 2, (m + 1) * d, m + 1, (m + 1) * d, m + 1]
    stride = sum(sizes) + 3
    n_samples = _get(header, "n_samples", int)
    if n_samples < 0 or len(payload) != n_samples * stride * 8:
        raise DataFormatError("payload size disagrees with n_samples and spec")

    rows = np.frombuffer(payload, dtype="<f8").reshape(n_samples, stride)
    truths = _codes(rows[:, -3], len(_TRUTHS), "truth code")
    concept_ids = _codes(rows[:, -2:], spec.num_concepts, "concept ids")
    # Each array is copied on its own: small copies reuse freed heap memory,
    # where one copy of the whole payload would raise the peak footprint.
    bounds = np.cumsum([0] + sizes)
    samples: list[TripletSample] = []
    for i in range(n_samples):
        mod_t, mod_a, ref_t, ref_a, tar_t, tar_a = (
            rows[i, a:b].copy() for a, b in zip(bounds[:-1], bounds[1:]))
        samples.append(TripletSample(
            mod_text=TokenBundle(mod_t.reshape(n + 2, d), mod_a, n + 1, "text"),
            ref_image=TokenBundle(ref_t.reshape(m + 1, d), ref_a, 0, "image"),
            tar_image=TokenBundle(tar_t.reshape(m + 1, d), tar_a, 0, "image"),
            truth=_TRUTHS[truths[i]],
            concept_ids=tuple(concept_ids[i]),
        ))
    return samples, spec


def write_weights(store: ParamStore, path: str, extra: dict | None = None) -> None:
    params = [{"name": name, "shape": list(store.params[name].shape),
               "group": store.groups[name]} for name in store.names()]
    header = {"kind": "weights", "params": params, "extra": extra or {}}
    arrays = (store.params[name] for name in store.names())
    _atomic_write(path, _container(MAGIC_WEIGHTS, header, arrays))


def read_weights(path: str) -> ParamStore:
    header, payload = _read(path, MAGIC_WEIGHTS, "weights",
                            {"kind", "params", "extra"})
    _get(header, "extra", dict)
    flat = np.frombuffer(payload, dtype="<f8", count=len(payload) // 8)
    store = ParamStore()
    pos = 0
    for i, e in enumerate(_get(header, "params", list)):
        where = f"parameter {i}"
        if not isinstance(e, dict) or set(e) != {"name", "shape", "group"}:
            raise DataFormatError(f"{where}: malformed entry")
        name = _get(e, "name", str, where)
        group = _get(e, "group", str, where)
        shape = _get(e, "shape", list, where)
        if len(shape) != 2 or any(type(k) is not int or k < 0 for k in shape):
            raise DataFormatError(f"{where}: bad shape {shape!r}")
        if name in store.params:
            raise DataFormatError(f"{where}: duplicate name {name!r}")
        count = math.prod(shape)
        if pos + count > flat.size:
            raise DataFormatError(f"{where}: shape runs past the payload")
        store.add(name, flat[pos:pos + count].reshape(shape), group=group)
        pos += count
    if pos * 8 != len(payload):
        raise DataFormatError("payload size disagrees with the parameter shapes")
    return store
