"""Binary container I/O for datasets and trained weights.

Layout (little-endian throughout):
    magic (4 bytes) | version u16 | header_len u32 | JSON header |
    float64 payload | crc32 of every byte before it (u32)

Datasets use magic "NCLD". Their header is exactly {"kind", "spec",
"n_samples"}; the payload is one fixed-stride record per sample, the layout a
Dataset keeps in memory too: tokens then attention for the text, reference and
target bundles, then [truth code, reference concept, target concept], with
truth codes indexing synth.TRUTHS. Weight files use magic "NCLW". Their header
is exactly {"kind", "params", "extra"}, each parameter exactly {"name",
"shape"}; the payload is the parameters in that order, the store's flat_params,
so offsets follow from the shapes.

Writes stream the header and the payload in chunks (a dataset's are slices of
its records, as they are), with a running checksum, to a temp file in the
target directory that is renamed into place: a failed write leaves no partial
artifact. Readers read the preamble and the header, then the rest with one
readinto of a preallocated array, whose bytes a dataset's records view in
place. They check the magic, the version and the checksum before they parse
the header, then validate every field they use: exact key sets and JSON types,
n_samples against the spec's num_triplets, the payload size against what the
spec or the shapes imply, truth codes and concept ids against their ranges.
Any malformed file, a header nested too deep to parse included, raises
DataFormatError. write_dataset writes only a whole dataset under its own spec.
Version 1 files, whose checksum left the header out, are not read:
`noisycir generate` rewrites a dataset deterministically from its spec.
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
from .errors import ConfigError, DataFormatError, is_json_type, parse_json
from .synth import TRUTHS, Dataset, DatasetSpec

MAGIC_DATASET = b"NCLD"
MAGIC_WEIGHTS = b"NCLW"
VERSION = 2

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


def _read(path: str, magic: bytes, kind: str, keys: set[str]) -> tuple[dict, np.ndarray]:
    """The header, with exactly the given keys, and the payload bytes, checksummed first."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 14:
            raise DataFormatError("truncated file: preamble incomplete")
        head = fh.read(10)
        if head[:4] != magic:
            raise DataFormatError(f"bad magic: expected {magic!r}")
        # before the checksum: version 1's covered the payload alone
        (version, hdr_len) = struct.unpack("<HI", head[4:])
        if version != VERSION:
            raise DataFormatError(f"unsupported version {version}; regenerate the "
                                  "file with `noisycir generate`")
        if 14 + hdr_len > size:
            raise DataFormatError("truncated file: header incomplete")
        head += fh.read(hdr_len)
        rest = np.empty(size - len(head), np.uint8)  # the payload, then the checksum
        if fh.readinto(rest) != rest.size:
            raise DataFormatError("truncated file: payload incomplete")
    payload = rest[:-4]
    if int.from_bytes(rest[-4:].tobytes(), "little") != zlib.crc32(payload, zlib.crc32(head)):
        raise DataFormatError("checksum mismatch")
    header = parse_json(head[10:], DataFormatError, "unreadable header")
    if not isinstance(header, dict) or set(header) != keys:
        raise DataFormatError(f"header must hold exactly the keys {sorted(keys)}")
    if header["kind"] != kind:
        raise DataFormatError(f"not a {kind} file")
    return header, payload


def _get(obj: dict, key: str, kind: type, where: str = "header"):
    """obj[key], which must exist and be of the given JSON type."""
    if key not in obj:
        raise DataFormatError(f"{where} lacks {key!r}")
    if not is_json_type(obj[key], kind):
        raise DataFormatError(f"{where} {key!r} must be a JSON {kind.__name__}")
    return obj[key]


def _spec_from_header(header: dict) -> DatasetSpec:
    raw = _get(header, "spec", dict)
    if set(raw) != {f.name for f in dataclasses.fields(DatasetSpec)}:
        raise DataFormatError(f"spec keys {sorted(raw)} do not match DatasetSpec")
    spec = DatasetSpec(**raw)
    try:
        spec.validate()  # every field's JSON type too
    except ConfigError as exc:
        raise DataFormatError(f"invalid spec: {exc}") from None
    return spec


def _check_codes(values: np.ndarray, limit: int, what: str) -> None:
    """Each value must be a whole number in [0, limit)."""
    bad = np.argwhere(~((values >= 0) & (values < limit) & (values == np.floor(values))))
    if bad.size:
        i = bad[0][0]
        raise DataFormatError(f"sample {i}: bad {what} {values[i].tolist()!r}")


def write_dataset(dataset: Dataset, spec: DatasetSpec, path: str) -> None:
    """Write the whole dataset under its own spec; any other spec, or a part of
    the dataset, is refused before a file exists. A reordering of all the
    records cannot be told apart from the dataset and is written."""
    if spec != dataset.spec or len(dataset) != spec.num_triplets:
        raise ConfigError(f"spec {spec} does not describe the dataset's {len(dataset)} records")
    header = {"kind": "dataset", "spec": dataclasses.asdict(spec),
              "n_samples": len(dataset)}
    chunks = (dataset.records[i:i + _CHUNK] for i in range(0, len(dataset), _CHUNK))
    _atomic_write(path, _container(MAGIC_DATASET, header, chunks))


def read_dataset(path: str) -> tuple[Dataset, DatasetSpec]:
    header, payload = _read(path, MAGIC_DATASET, "dataset",
                            {"kind", "spec", "n_samples"})
    spec = _spec_from_header(header)
    n_samples = _get(header, "n_samples", int)
    if n_samples != spec.num_triplets or payload.size != n_samples * spec.record_size * 8:
        raise DataFormatError("payload size, n_samples and the spec's num_triplets disagree")
    # the records are the bytes read, viewed in place
    dataset = Dataset(payload.view("<f8").reshape(n_samples, spec.record_size), spec)
    _check_codes(dataset.truth_codes, len(TRUTHS), "truth code")
    _check_codes(dataset.concept_ids, spec.num_concepts, "concept ids")
    return dataset, spec


def write_weights(store: ParamStore, path: str, extra: dict | None = None) -> None:
    params = [{"name": name, "shape": list(store.params[name].shape)} for name in store.names()]
    header = {"kind": "weights", "params": params, "extra": extra or {}}
    _atomic_write(path, _container(MAGIC_WEIGHTS, header, [store.flat_params]))


def read_weights(path: str) -> ParamStore:
    header, payload = _read(path, MAGIC_WEIGHTS, "weights",
                            {"kind", "params", "extra"})
    _get(header, "extra", dict)
    flat = np.frombuffer(payload, dtype="<f8", count=len(payload) // 8)
    store = ParamStore()
    pos = 0
    for i, e in enumerate(_get(header, "params", list)):
        where = f"parameter {i}"
        if not isinstance(e, dict) or set(e) != {"name", "shape"}:
            raise DataFormatError(f"{where}: malformed entry")
        name = _get(e, "name", str, where)
        shape = _get(e, "shape", list, where)
        if len(shape) != 2 or any(type(k) is not int or k < 0 for k in shape):
            raise DataFormatError(f"{where}: bad shape {shape!r}")
        if name in store.params:
            raise DataFormatError(f"{where}: duplicate name {name!r}")
        count = math.prod(shape)
        if pos + count > flat.size:
            raise DataFormatError(f"{where}: shape runs past the payload")
        store.add(name, flat[pos:pos + count].reshape(shape))
        pos += count
    if pos * 8 != len(payload):
        raise DataFormatError("payload size disagrees with the parameter shapes")
    return store
