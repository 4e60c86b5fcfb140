"""Labeled feature-vector store with a checksummed binary on-disk format.

File layout (little-endian):

    magic   4 bytes  b"FSOS"
    version u32      currently 1
    dim     u32      feature dimension D
    count   u64      number of records N
    classes u32      number of classes C
    records N x (u32 label, D x float32)
    crc32   u32      CRC-32 of the records region

A JSON sidecar ``<path>.meta.json`` carries class names and the per-class
base/val/test split assignment, so splits can be re-cut without touching
the binary payload.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import ConfigError, DataError, FsosrError, StoreError

MAGIC = b"FSOS"
VERSION = 1
SPLITS = ("base", "val", "test")

_HEADER = struct.Struct("<4sIIQI")
# Vector components per block of rows that ``base_mean`` copies at a time.
_BLOCK_ELEMENTS = 65_536


@dataclass(frozen=True)
class FeatureSet:
    """Immutable table of D-dimensional float32 vectors with dense class labels.

    Split assignment is per class: every class id maps to exactly one of
    ``base``, ``val`` or ``test``, so a class never straddles splits. All
    invariants are checked eagerly at construction. Float32 vectors and int64
    labels are not copied: the set holds read-only views of the given arrays,
    sharing the caller's memory (a loaded store's vectors view its file).
    Class names are kept as the ``str`` of each, as a saved store reads them.

    ``class_rows`` and ``class_counts`` read a per-class row index (CSR: the
    rows in stable label order plus per-class offsets),
    ``split_class_ids`` each split's sorted class ids, and ``base_mean`` the
    mean of the base split. Each is built once, on the first call, not at
    construction or load, and is then kept on the set and shared by every
    later episode and run drawn from it. The base mean reads the base split
    in fixed blocks of rows, holding one block plus 8 B of row index per
    base row, not a copy of the split.
    """

    vectors: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    split_of_class: dict[int, str]

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float32).view()
        labels = np.ascontiguousarray(self.labels, dtype=np.int64).view()
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(map(str, self.class_names)))
        validate_feature_set(self)
        vectors.flags.writeable = False
        labels.flags.writeable = False

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def split_class_ids(self, split: str) -> np.ndarray:
        """The split's class ids, ascending, as a read-only int64 array
        that is sorted once per set and shared by every later call."""
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}; expected one of {SPLITS}")
        return self._split_class_ids[split]

    @cached_property
    def _split_class_ids(self) -> dict[str, np.ndarray]:
        ids = {}
        for split in SPLITS:
            ids[split] = np.array(
                sorted(c for c, s in self.split_of_class.items() if s == split), dtype=np.int64
            )
            ids[split].flags.writeable = False
        return ids

    @cached_property
    def _row_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, offsets): class ``c``'s rows, ascending, are
        ``rows[offsets[c]:offsets[c + 1]]``."""
        rows = np.argsort(self.labels, kind="stable")
        offsets = np.zeros(self.n_classes + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.labels, minlength=self.n_classes), out=offsets[1:])
        rows.flags.writeable = offsets.flags.writeable = False
        return rows, offsets

    def _split_rows(self, split: str) -> np.ndarray:
        """Row indices of the split's vectors, ascending."""
        in_split = np.zeros(self.n_classes, dtype=bool)
        in_split[self.split_class_ids(split)] = True
        return np.flatnonzero(in_split[self.labels])

    @cached_property
    def _base_mean(self) -> np.ndarray:
        """``vectors[base rows].mean(axis=0, dtype=np.float64)``, bit for bit,
        from one block of rows at a time. numpy sums a column of two or more
        row by row, so each block is summed with the running sum as its
        first row. It sums a lone column pairwise instead, so at D=1 the
        split is one block, and its copy is half the size of its row index."""
        rows = self._split_rows("base")
        if not rows.size:
            raise DataError("no base-split vectors; cannot compute base mean")
        step = rows.size if self.dim == 1 else max(1, _BLOCK_ELEMENTS // self.dim)
        total = np.add.reduce(self.vectors[rows[:step]], axis=0, dtype=np.float64)
        for start in range(step, rows.size, step):
            block = self.vectors[rows[start : start + step]]
            total = np.add.reduce(np.concatenate((total[None], block)), axis=0)
        mean = total / rows.size
        mean.flags.writeable = False
        return mean

    def class_counts(self) -> np.ndarray:
        return np.diff(self._row_index[1])

    def class_rows(self, cid: int) -> np.ndarray:
        """Row indices of class ``cid`` in ascending order, as a read-only
        view of the index; equal to ``np.flatnonzero(labels == cid)``."""
        rows, offsets = self._row_index
        return rows[offsets[cid] : offsets[cid + 1]]


def validate_feature_set(fs: FeatureSet) -> None:
    """Check every FeatureSet invariant, raising DataError with a precise cause."""
    if fs.vectors.ndim != 2:
        raise DataError(f"vectors must be a 2-D array, got shape {fs.vectors.shape}")
    n, dim = fs.vectors.shape
    if n == 0 or dim == 0:
        raise DataError(f"empty feature table (N={n}, D={dim})")
    if fs.labels.shape != (n,):
        raise DataError(
            f"labels shape {fs.labels.shape} does not match {n} vectors"
        )
    c = len(fs.class_names)
    if c == 0:
        raise DataError("no classes declared")
    first_with_name: dict[str, int] = {}
    for cid, name in enumerate(fs.class_names):
        first = first_with_name.setdefault(name, cid)
        if first != cid:
            raise DataError(f"classes {first} and {cid} share the name {name!r}")
    finite = np.isfinite(fs.vectors)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DataError(f"non-finite component at vector {i}, component {j}")
    if fs.labels.min() < 0 or fs.labels.max() >= c:
        i = int(np.argmax((fs.labels < 0) | (fs.labels >= c)))
        raise DataError(
            f"label {int(fs.labels[i])} at vector {i} out of range [0, {c})"
        )
    counts = np.bincount(fs.labels, minlength=c)
    if (counts == 0).any():
        empty = int(np.argmax(counts == 0))
        raise DataError(f"class {empty} ({fs.class_names[empty]!r}) has no vectors")
    if set(fs.split_of_class) != set(range(c)):
        missing = sorted(set(range(c)) - set(fs.split_of_class))
        extra = sorted(set(fs.split_of_class) - set(range(c)))
        raise DataError(
            f"split assignment must cover classes 0..{c - 1} exactly "
            f"(missing {missing}, extraneous {extra})"
        )
    for cid, split in fs.split_of_class.items():
        if split not in SPLITS:
            raise DataError(f"class {cid} assigned to unknown split {split!r}")


def base_mean(fs: FeatureSet) -> np.ndarray:
    """Arithmetic mean of all vectors belonging to base-split classes, as a
    read-only float64 array computed once per set and shared by every later
    call. DataError if the base split has no vectors."""
    return fs._base_mean


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("label", "<u4"), ("vec", "<f4", (dim,))])


def save_feature_store(fs: FeatureSet, path: str | Path) -> None:
    """Write the binary store plus its JSON sidecar.

    ``fs`` is validated again, since its fields can be replaced after
    construction: an invalid set writes nothing. The record array is the one
    copy of the payload. It round-trips bit-exactly through load_feature_store.
    Both files are written whole to temporary files and only then renamed over
    the old ones, so a save that fails while writing leaves an earlier store
    and sidecar intact.
    """
    validate_feature_set(fs)
    path = Path(path)
    records = np.empty(fs.n, dtype=_record_dtype(fs.dim))
    records["label"] = fs.labels
    records["vec"] = fs.vectors
    splits = {s: fs.split_class_ids(s).tolist() for s in SPLITS}
    meta = {"class_names": list(fs.class_names), "splits": splits}
    with atomic_write(path, "wb") as fh, atomic_write(sidecar_path(path), "w") as side:
        fh.write(_HEADER.pack(MAGIC, VERSION, fs.dim, fs.n, fs.n_classes))
        fh.write(records)
        fh.write(struct.pack("<I", zlib.crc32(records)))
        side.write(json.dumps(meta, indent=2, sort_keys=True))


def check_output_path(path: str | Path, what: str, directory: bool = False) -> None:
    """ConfigError naming ``what`` and ``path`` unless ``path`` can be made a
    file, or a ``directory``: its nearest existing ancestor, ``path`` itself
    included for a directory, must be a directory, and a file must not be."""
    target = Path(path)
    existing = next(p for p in (target, *target.parents) if p.exists())
    must_be_dir = directory or existing != target
    if existing.is_dir() != must_be_dir:
        problem = "is not a directory" if must_be_dir else "is a directory"
        raise ConfigError(f"{what} {str(path)!r}: {existing} {problem}")


def read_json(path: str | Path, what: str, error: type[FsosrError]) -> dict:
    """The JSON object in the UTF-8 file at ``path``; ``error``, starting
    with the path and naming ``what``, if the file is missing or cannot be
    read, is not UTF-8 JSON, is nested too deep to parse or is not an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise error(f"{path}: missing {what}") from exc
    except OSError as exc:
        raise error(f"{path}: cannot read {what} ({exc})") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise error(f"{path}: {what} is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return doc


@contextmanager
def atomic_write(path: Path, mode: str, **open_kwargs) -> Iterator[IO]:
    """Open a temporary file beside ``path``, making missing directories, for
    writing. ``path`` is replaced by it only if the block completes; otherwise
    the temporary file is removed and any earlier ``path`` is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def load_feature_store(path: str | Path) -> FeatureSet:
    """Load a feature store written by save_feature_store.

    The loader checks the file format and the sidecar's structure; the
    FeatureSet it builds checks the contents, once. Every failure is a
    StoreError naming the store or its sidecar. The vectors are a read-only
    view of the file's bytes, which stay alive with the FeatureSet.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StoreError(f"{path}: cannot read store ({exc})") from exc
    if len(raw) < _HEADER.size:
        raise StoreError(
            f"{path}: file too short for header ({len(raw)} < {_HEADER.size} bytes)"
        )
    magic, version, dim, n, c = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise StoreError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise StoreError(f"{path}: unsupported version {version}, expected {VERSION}")
    if dim == 0 or n == 0 or c == 0:
        raise StoreError(f"{path}: header declares empty store (D={dim}, N={n}, C={c})")

    record_size = 4 + 4 * dim
    payload_start = _HEADER.size
    payload_size = n * record_size
    available = len(raw) - payload_start - 4
    if available < payload_size:
        complete = max(0, (len(raw) - payload_start)) // record_size
        raise StoreError(
            f"{path}: truncated payload; header declares {n} records but record "
            f"{complete + 1} is missing or incomplete "
            f"(byte offset {payload_start + complete * record_size})"
        )
    if available > payload_size:
        raise StoreError(
            f"{path}: {available - payload_size} unexpected trailing bytes after checksum"
        )
    try:
        record_dtype = _record_dtype(dim)
    except ValueError as exc:
        raise StoreError(f"{path}: cannot describe records of dimension {dim} ({exc})") from exc

    payload = memoryview(raw)[payload_start : payload_start + payload_size]
    (stored_crc,) = struct.unpack_from("<I", raw, payload_start + payload_size)
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise StoreError(
            f"{path}: checksum mismatch (stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x})"
        )

    meta_path = sidecar_path(path)
    meta = read_json(meta_path, "sidecar metadata", StoreError)
    class_names = meta.get("class_names")
    splits = meta.get("splits")
    if not isinstance(class_names, list) or len(class_names) != c:
        raise StoreError(
            f"{meta_path}: class_names must list exactly {c} names"
        )
    if not isinstance(splits, dict) or set(splits) != set(SPLITS):
        raise StoreError(f"{meta_path}: splits must have exactly the keys {SPLITS}")
    try:
        split_of_class = _split_assignment(splits, meta_path, {})
    except DataError as exc:
        raise StoreError(str(exc)) from exc

    records = np.frombuffer(payload, dtype=record_dtype)
    try:
        return FeatureSet(
            vectors=records["vec"],
            labels=records["label"],
            class_names=class_names,
            split_of_class=split_of_class,
        )
    except DataError as exc:
        raise StoreError(f"{path}: {exc}") from exc


def _split_assignment(splits: dict, source: Path, name_to_id: dict[str, int]) -> dict[int, str]:
    """Class id -> split from a ``{split: [class, ...]}`` object. A class is
    a name from ``name_to_id`` or an integer id; anything else raises
    DataError naming ``source``, the split and the entry."""
    split_of_class: dict[int, str] = {}
    for split in SPLITS:
        refs = splits.get(split, [])
        if not isinstance(refs, list):
            raise DataError(f"{source}: split {split!r} must be a list, got {refs!r}")
        for ref in refs:
            if isinstance(ref, str) and ref in name_to_id:
                cid = name_to_id[ref]
            elif isinstance(ref, int) and not isinstance(ref, bool):
                cid = ref
            else:
                raise DataError(
                    f"{source}: split {split!r} entry {ref!r} is not a class name or id"
                )
            if cid in split_of_class:
                raise DataError(f"{source}: class {cid} assigned to two splits")
            split_of_class[cid] = split
    return split_of_class


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def ingest_csv(csv_path: str | Path, splits_path: str | Path, out_path: str | Path) -> FeatureSet:
    """Convert a ``label,f0,...,f{D-1}`` CSV plus a split file into a binary store.

    Labels may be arbitrary strings; dense class ids are assigned in sorted
    label order and the original strings become class names; a first line
    with no numeric feature field is a header. The split file is JSON with
    base/val/test lists naming classes by name or by id.
    """
    csv_path = Path(csv_path)
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, strict=True)
            for record, row in enumerate(reader):
                lineno = reader.line_num  # the line the record ends on
                if not row:
                    continue
                if record == 0 and len(row) >= 2 and not any(map(_is_number, row[1:])):
                    continue  # header row: no feature field is a number
                if len(row) < 2:
                    raise DataError(f"{csv_path}:{lineno}: need label plus >=1 feature")
                try:
                    with np.errstate(over="ignore"):  # a value beyond float32 raises below
                        values = np.array([float(x) for x in row[1:]], dtype=np.float32)
                except ValueError as exc:
                    raise DataError(f"{csv_path}:{lineno}: bad feature value ({exc})") from exc
                finite = np.isfinite(values)
                if not finite.all():
                    j = int(np.argmin(finite))
                    raise DataError(f"{csv_path}:{lineno}: feature {j} is "
                                    f"{row[1 + j].strip()!r}, which is not a finite float32")
                rows.append(values)
                tokens.append(row[0])
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{csv_path}: cannot read CSV ({exc})") from exc
    if not rows:
        raise DataError(f"{csv_path}: no data rows")
    widths = {r.size for r in rows}
    if len(widths) != 1:
        raise DataError(f"{csv_path}: inconsistent feature counts {sorted(widths)}")

    class_names = sorted(set(tokens))
    name_to_id = {name: i for i, name in enumerate(class_names)}
    labels = np.array([name_to_id[t] for t in tokens], dtype=np.int64)
    vectors = np.array(rows)

    split_spec = read_json(splits_path, "split file", DataError)
    if not set(split_spec) <= set(SPLITS):
        raise DataError(f"{splits_path}: split file keys must be from {SPLITS}")
    fs = FeatureSet(
        vectors=vectors,
        labels=labels,
        class_names=tuple(class_names),
        split_of_class=_split_assignment(split_spec, Path(splits_path), name_to_id),
    )
    save_feature_store(fs, out_path)
    return fs
