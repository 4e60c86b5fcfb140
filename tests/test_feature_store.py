"""Feature store: invariant validation, binary round-trip, corruption errors."""

from __future__ import annotations

import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsosr import (
    DataError,
    EpisodeSpec,
    FeatureSet,
    StoreError,
    base_mean,
    ingest_csv,
    sample_episode,
)
from fsosr.cli import main
from fsosr.feature_store import (
    _BLOCK_ELEMENTS,
    load_feature_store,
    save_feature_store,
    sidecar_path,
)

from conftest import make_feature_set, properties, traced_peak


def small_fs(**kwargs) -> FeatureSet:
    defaults = dict(
        vectors=np.arange(40, dtype=np.float32).reshape(10, 4),
        labels=np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1]),
        class_names=("cat", "dog"),
        split_of_class={0: "base", 1: "test"},
    )
    defaults.update(kwargs)
    return FeatureSet(**defaults)


class TestValidation:
    def test_well_formed(self):
        fs = small_fs()
        assert fs.n == 10 and fs.dim == 4 and fs.n_classes == 2

    def test_rejects_nan(self):
        vectors = np.arange(40, dtype=np.float32).reshape(10, 4)
        vectors[3, 2] = np.nan
        with pytest.raises(DataError, match=r"vector 3, component 2"):
            small_fs(vectors=vectors)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(DataError, match=r"out of range"):
            small_fs(labels=np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 2]))

    def test_rejects_empty_class(self):
        with pytest.raises(DataError, match=r"class 1 .* no vectors"):
            small_fs(labels=np.zeros(10, dtype=np.int64))

    def test_rejects_partial_split_assignment(self):
        with pytest.raises(DataError, match=r"missing \[1\]"):
            small_fs(split_of_class={0: "base"})

    def test_rejects_unknown_split(self):
        with pytest.raises(DataError, match=r"unknown split"):
            small_fs(split_of_class={0: "base", 1: "holdout"})

    @pytest.mark.parametrize("names, message", [
        (("a", "a", "b"), "classes 0 and 1 share the name 'a'"),
        (("1", "b", 1), "classes 0 and 2 share the name '1'"),  # as the sidecar reads it
    ])
    def test_rejects_duplicate_class_names(self, names, message):
        with pytest.raises(DataError, match=message):
            small_fs(labels=np.arange(10) % 3, class_names=names,
                     split_of_class={0: "base", 1: "test", 2: "test"})

    def test_arrays_frozen_after_construction(self):
        fs = small_fs()
        with pytest.raises(ValueError):
            fs.vectors[0, 0] = 7.0

    def test_callers_arrays_stay_writeable_and_shared(self):
        v = np.arange(40, dtype=np.float32).reshape(10, 4)
        l = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int64)
        fs = FeatureSet(v, l, ("a", "b"), {0: "base", 1: "test"})
        assert v.flags.writeable and l.flags.writeable
        assert not fs.vectors.flags.writeable and not fs.labels.flags.writeable
        assert np.shares_memory(fs.vectors, v) and np.shares_memory(fs.labels, l)
        v[0, 0] = 7.0  # the set shares the caller's memory
        assert fs.vectors[0, 0] == 7.0


class TestRoundTrip:
    def test_identity(self, tmp_path, rng):
        fs = make_feature_set(rng, splits={c: s for c, s in
                                           zip(range(6), ["base", "base", "val", "test", "test", "test"])})
        path = tmp_path / "store.fsos"
        save_feature_store(fs, path)
        loaded = load_feature_store(path)
        assert np.array_equal(loaded.vectors, fs.vectors)
        assert loaded.vectors.dtype == np.float32
        assert np.array_equal(loaded.labels, fs.labels)
        assert loaded.class_names == fs.class_names
        assert loaded.split_of_class == fs.split_of_class

    def test_class_names_are_strings_before_and_after_a_round_trip(self, tmp_path):
        fs = small_fs(class_names=(7, "b"))
        assert fs.class_names == ("7", "b")
        save_feature_store(fs, tmp_path / "s.fsos")
        assert load_feature_store(tmp_path / "s.fsos").class_names == fs.class_names

    def test_shapes_preserved(self, tmp_path):
        fs = small_fs()
        path = tmp_path / "s.fsos"
        save_feature_store(fs, path)
        loaded = load_feature_store(path)
        assert loaded.n == 10 and loaded.dim == 4 and loaded.n_classes == 2

    def test_resave_reproduces_the_file_and_vectors_are_read_only(self, tmp_path, rng):
        fs = make_feature_set(rng, splits={c: s for c, s in
                                           zip(range(6), ["base", "val", "val", "test", "test", "test"])})
        first, second = tmp_path / "first.fsos", tmp_path / "second.fsos"
        save_feature_store(fs, first)
        loaded = load_feature_store(first)
        save_feature_store(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        assert sidecar_path(second).read_text() == sidecar_path(first).read_text()
        with pytest.raises(ValueError):
            loaded.vectors[0, 0] = 7.0

    def test_save_refuses_invalid_state(self, tmp_path):
        fs = small_fs()
        object.__setattr__(fs, "labels", np.zeros(10, dtype=np.int64))  # bypass init
        with pytest.raises(DataError):
            save_feature_store(fs, tmp_path / "bad.fsos")
        assert not (tmp_path / "bad.fsos").exists()


class TestAtomicSave:
    def test_failed_save_leaves_the_earlier_store_intact(self, tmp_path, rng, fill_disk):
        path = tmp_path / "store.fsos"
        save_feature_store(small_fs(), path)
        store, sidecar = path.read_bytes(), sidecar_path(path).read_text()
        fill_disk()
        with pytest.raises(OSError, match="No space left"):
            save_feature_store(make_feature_set(rng), path)
        assert path.read_bytes() == store
        assert sidecar_path(path).read_text() == sidecar
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.fsos", "store.fsos.meta.json"]
        assert load_feature_store(path).n == 10


class TestClassIndex:
    @staticmethod
    def shuffled_fs(rng) -> FeatureSet:
        labels = rng.permutation(np.repeat(np.arange(7), [3, 9, 1, 30, 12, 5, 40]))
        return FeatureSet(
            vectors=rng.normal(size=(labels.size, 3)).astype(np.float32),
            labels=labels,
            class_names=tuple("abcdefg"),
            split_of_class={c: "test" for c in range(7)},
        )

    @staticmethod
    def assert_rows_match_label_scan(fs: FeatureSet) -> None:
        for c in range(fs.n_classes):
            rows = fs.class_rows(c)
            assert rows.dtype == np.intp
            assert np.array_equal(rows, np.flatnonzero(fs.labels == c))
        assert np.array_equal(fs.class_counts(), np.bincount(fs.labels, minlength=fs.n_classes))

    def test_rows_and_counts_match_the_labels(self, rng):
        self.assert_rows_match_label_scan(self.shuffled_fs(rng))

    def test_rows_and_counts_match_the_labels_of_a_loaded_store(self, tmp_path, rng):
        path = tmp_path / "store.fsos"
        save_feature_store(self.shuffled_fs(rng), path)
        loaded = load_feature_store(path)
        self.assert_rows_match_label_scan(loaded)

    def test_split_rows_are_the_splits_rows_ascending(self, rng):
        splits = {0: "base", 1: "val", 2: "base", 3: "test", 4: "base", 5: "val", 6: "base"}
        fs = self.shuffled_fs(rng)
        fs = FeatureSet(fs.vectors, fs.labels, fs.class_names, splits)
        for split in ("base", "val", "test"):
            rows = fs._split_rows(split)
            assert np.array_equal(rows, np.flatnonzero(np.isin(fs.labels, fs.split_class_ids(split))))

    def test_built_on_first_use_and_shared(self, tmp_path, rng):
        fs = self.shuffled_fs(rng)
        path = tmp_path / "store.fsos"
        save_feature_store(fs, path)
        loaded = load_feature_store(path)
        assert "_row_index" not in fs.__dict__ and "_row_index" not in loaded.__dict__
        spec = EpisodeSpec(n_way=2, n_shot=1, n_query_per_class=2, n_open_classes=2, seed=3)
        sample_episode(loaded, spec, 0)
        index = loaded.__dict__["_row_index"]
        sample_episode(loaded, spec, 1)
        assert loaded.__dict__["_row_index"] is index
        assert not any(part.flags.writeable for part in index)
        assert "_row_index" not in fs.__dict__


class TestCorruption:
    @pytest.fixture
    def stored(self, tmp_path):
        path = tmp_path / "store.fsos"
        save_feature_store(small_fs(), path)
        return path

    def test_bad_magic(self, stored):
        raw = bytearray(stored.read_bytes())
        raw[:4] = b"NOPE"
        stored.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="magic"):
            load_feature_store(stored)

    def test_bad_version(self, stored):
        raw = bytearray(stored.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        stored.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="version 9"):
            load_feature_store(stored)

    def test_truncation_names_missing_record(self, stored):
        raw = stored.read_bytes()
        record_size = 4 + 4 * 4
        stored.write_bytes(raw[: 24 + 9 * record_size])  # drop record 10 + crc
        with pytest.raises(StoreError, match=r"record 10"):
            load_feature_store(stored)

    def test_flipped_payload_byte_fails_checksum(self, stored):
        raw = bytearray(stored.read_bytes())
        raw[30] ^= 0xFF
        stored.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="checksum"):
            load_feature_store(stored)

    def test_trailing_garbage(self, stored):
        stored.write_bytes(stored.read_bytes() + b"xx")
        with pytest.raises(StoreError, match="trailing"):
            load_feature_store(stored)

    def test_empty_header_counts(self, stored):
        raw = bytearray(stored.read_bytes())
        raw[8:12] = struct.pack("<I", 0)  # dim = 0
        stored.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="empty store"):
            load_feature_store(stored)

    def test_header_too_short(self, stored):
        stored.write_bytes(stored.read_bytes()[:10])
        with pytest.raises(StoreError, match="too short"):
            load_feature_store(stored)

    def test_missing_sidecar(self, stored):
        sidecar_path(stored).unlink()
        with pytest.raises(StoreError, match="sidecar") as info:
            load_feature_store(stored)
        assert str(info.value).startswith(f"{sidecar_path(stored)}: missing sidecar")

    def test_missing_store_message_starts_with_its_path(self, tmp_path):
        missing = tmp_path / "missing.fsos"
        with pytest.raises(StoreError) as info:
            load_feature_store(missing)
        assert str(info.value).startswith(f"{missing}: cannot read store")

    def test_sidecar_split_overlap(self, stored):
        meta = json.loads(sidecar_path(stored).read_text())
        meta["splits"]["val"] = [0]
        sidecar_path(stored).write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="two splits"):
            load_feature_store(stored)

    @pytest.mark.parametrize("names", [["cat", "cat"], [1, "1"]])
    def test_sidecar_duplicate_class_names(self, stored, names):
        meta = json.loads(sidecar_path(stored).read_text())
        meta["class_names"] = names
        sidecar_path(stored).write_text(json.dumps(meta))
        with pytest.raises(StoreError, match=r"store\.fsos: classes 0 and 1 share the name"):
            load_feature_store(stored)

    @staticmethod
    def rewrite_payload(stored, offset, data):
        """Overwrite payload bytes at ``offset`` and restore the checksum."""
        raw = bytearray(stored.read_bytes())
        raw[offset : offset + len(data)] = data
        raw[-4:] = struct.pack("<I", zlib.crc32(raw[24:-4]) & 0xFFFFFFFF)
        stored.write_bytes(bytes(raw))

    @pytest.mark.parametrize("splits", [
        {"base": 5, "val": [], "test": [1]},
        {"base": [None], "val": [], "test": [1]},
        {"base": [True], "val": [], "test": [0]},
        {"base": [0.5], "val": [], "test": [1]},
    ])
    def test_sidecar_bad_class_ids(self, stored, splits):
        meta = json.loads(sidecar_path(stored).read_text())
        meta["splits"] = splits
        sidecar_path(stored).write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="split 'base'"):
            load_feature_store(stored)

    def test_nan_payload_reported_with_vector_and_component(self, stored):
        record_size = 4 + 4 * 4
        # second component of vector 3
        self.rewrite_payload(stored, 24 + 3 * record_size + 4 + 4, struct.pack("<f", float("nan")))
        with pytest.raises(StoreError, match=r"vector 3, component 1"):
            load_feature_store(stored)

    def test_label_out_of_range_names_path_label_and_vector(self, stored):
        record_size = 4 + 4 * 4
        self.rewrite_payload(stored, 24 + 7 * record_size, struct.pack("<I", 2))  # C = 2
        with pytest.raises(StoreError, match=r"store\.fsos: label 2 at vector 7 out of range"):
            load_feature_store(stored)

    @pytest.mark.parametrize("dim", [2**31, 600_000_000])
    def test_header_dim_numpy_cannot_describe(self, stored, dim):
        raw = bytearray(stored.read_bytes())
        raw[8:12] = struct.pack("<I", dim)
        stored.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="truncated payload") as info:
            load_feature_store(stored)
        assert str(info.value).startswith(str(stored))
        assert main(["diagnose", "--store", str(stored)]) == 3


# (offset, struct format) of each header field after the magic.
HEADER_FIELDS = {"version": (4, "<I"), "dim": (8, "<I"), "count": (12, "<Q"), "classes": (20, "<I")}


@st.composite
def store_mutations(draw, size: int):
    """A function from the store's bytes to different bytes: an overwrite
    (an XOR with a nonzero mask, so at least one byte changes), a
    truncation, appended bytes, or a new value in one header field."""
    kind = draw(st.sampled_from(["overwrite", "truncate", "append", "header"]))
    if kind == "overwrite":
        offset = draw(st.integers(0, size - 1))
        mask = draw(st.binary(min_size=1, max_size=min(8, size - offset)).filter(any))

        def flip(raw: bytes) -> bytes:
            flipped = bytes(a ^ b for a, b in zip(raw[offset:], mask))
            return raw[:offset] + flipped + raw[offset + len(mask):]

        return flip
    if kind == "truncate":
        length = draw(st.integers(0, size - 1))
        return lambda raw: raw[:length]
    if kind == "append":
        extra = draw(st.binary(min_size=1, max_size=64))
        return lambda raw: raw + extra
    offset, fmt = HEADER_FIELDS[draw(st.sampled_from(sorted(HEADER_FIELDS)))]
    bits = 8 * struct.calcsize(fmt)
    value = draw(st.sampled_from([0, 1, 2**31, 600_000_000, 2**bits - 1]) | st.integers(0, 2**bits - 1))

    def set_field(raw: bytes) -> bytes:
        (old,) = struct.unpack_from(fmt, raw, offset)
        new = struct.pack(fmt, value if value != old else (old + 1) % 2**bits)
        return raw[:offset] + new + raw[offset + len(new):]

    return set_field


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A small saved store: its path, its bytes and its sidecar's bytes."""
    path = tmp_path_factory.mktemp("fuzz") / "store.fsos"
    save_feature_store(small_fs(), path)
    return path, path.read_bytes(), sidecar_path(path).read_bytes()


def load_or_store_error(path):
    """Load ``path``; a failure must be a StoreError whose message starts
    with the store's or the sidecar's path. Any other exception propagates."""
    try:
        return load_feature_store(path)
    except StoreError as exc:
        assert str(exc).startswith((str(path), str(sidecar_path(path)))), str(exc)
        return None


class TestCorruptionProperties:
    @properties
    @given(st.data())
    def test_every_corrupted_store_is_a_store_error_naming_its_path(self, pristine, data):
        path, raw, side = pristine
        mutated = data.draw(store_mutations(len(raw)))(raw)
        assert mutated != raw
        path.write_bytes(mutated)
        sidecar_path(path).write_bytes(side)
        assert load_or_store_error(path) is None, "a corrupted store loaded"

    @properties
    @given(st.data())
    def test_a_corrupted_sidecar_loads_or_is_a_store_error_naming_a_path(self, pristine, data):
        """The sidecar has no checksum, so some edits keep it valid; the rest
        must fail as StoreError, never with a traceback."""
        path, raw, side = pristine
        offset = data.draw(st.integers(0, len(side) - 1))
        patch = data.draw(st.binary(min_size=1, max_size=8))
        path.write_bytes(raw)
        sidecar_path(path).write_bytes(side[:offset] + patch + side[offset + len(patch):])
        load_or_store_error(path)


PEAK_N, PEAK_DIM = 20_000, 32
PEAK_PAYLOAD = PEAK_N * (4 + 4 * PEAK_DIM)


def peak_feature_set(rng) -> FeatureSet:
    return FeatureSet(
        vectors=rng.normal(size=(PEAK_N, PEAK_DIM)).astype(np.float32),
        labels=np.arange(PEAK_N) % 4,
        class_names=("a", "b", "c", "d"),
        split_of_class={0: "base", 1: "base", 2: "test", 3: "test"},
    )


def test_load_peak_memory_is_bounded(tmp_path, rng):
    """A load holds the file bytes (which the vectors view), the int64
    labels and one finiteness mask at most: about 1.3x the payload at
    D=32, under 1.5x."""
    path = tmp_path / "big.fsos"
    save_feature_store(peak_feature_set(rng), path)
    assert traced_peak(lambda: load_feature_store(path)) < 1.5 * PEAK_PAYLOAD


def test_save_peak_memory_is_bounded(tmp_path, rng):
    """A save holds one finiteness mask, then the record array it writes:
    the payload once, never a second copy of it."""
    fs = peak_feature_set(rng)
    path = tmp_path / "big.fsos"
    assert traced_peak(lambda: save_feature_store(fs, path)) <= 1.5 * PEAK_PAYLOAD


def test_ingest_peak_memory_is_bounded(tmp_path, rng):
    """Ingest holds each parsed row as a float32 array, then the stacked
    vectors and the record array it saves: under 5x the payload."""
    csv_file = tmp_path / "big.csv"
    vectors = rng.normal(size=(PEAK_N, PEAK_DIM)).astype(np.float32)
    with open(csv_file, "w") as fh:
        for i, row in enumerate(vectors):
            fh.write(f"c{i % 4}," + ",".join(map(repr, row.tolist())) + "\n")
    splits_file = tmp_path / "splits.json"
    splits_file.write_text(json.dumps({"base": ["c0", "c1"], "test": ["c2", "c3"]}))
    out = tmp_path / "big.fsos"
    assert traced_peak(lambda: ingest_csv(csv_file, splits_file, out)) < 5 * PEAK_PAYLOAD
    assert np.array_equal(load_feature_store(out).vectors, vectors)


def test_base_mean_peak_memory_is_bounded(rng):
    """The base mean holds a split mask (1 B per row) and the base rows'
    index (8 B per row), then one block of rows as float32 and, with the
    running sum on top, as float64: 12 B per block element, bounded here by
    16. That is not a copy of the base split, whose 5.1 MB float32 size
    the bound stays far below."""
    n, dim = 80_000, 32
    fs = FeatureSet(rng.normal(size=(n, dim)).astype(np.float32), np.arange(n) % 4,
                    ("a", "b", "c", "d"), {0: "base", 1: "test", 2: "base", 3: "test"})
    n_base = n // 2
    bound = n + 8 * n_base + 16 * _BLOCK_ELEMENTS
    assert 3 * bound < 4 * n_base * dim
    assert traced_peak(lambda: base_mean(fs)) < bound


class TestBaseMean:
    def test_two_point_mean(self):
        fs = FeatureSet(
            vectors=np.array([[0, 0], [2, 2], [5, 5]], dtype=np.float32),
            labels=np.array([0, 0, 1]),
            class_names=("a", "b"),
            split_of_class={0: "base", 1: "test"},
        )
        assert np.allclose(base_mean(fs), [1.0, 1.0])

    def test_single_vector_identity(self):
        fs = FeatureSet(
            vectors=np.array([[3.5, -1.25], [9, 9]], dtype=np.float32),
            labels=np.array([0, 1]),
            class_names=("a", "b"),
            split_of_class={0: "base", 1: "test"},
        )
        assert np.array_equal(base_mean(fs), np.array([3.5, -1.25]))

    def test_matches_summation_oracle(self, rng):
        vectors = rng.normal(size=(100, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=100)
        labels[:3] = [0, 1, 2]  # every class nonempty
        fs = FeatureSet(
            vectors=vectors,
            labels=labels,
            class_names=("a", "b", "c"),
            split_of_class={0: "base", 1: "base", 2: "test"},
        )
        mask = (labels == 0) | (labels == 1)
        expected = np.zeros(6)
        for row in vectors[mask]:
            expected += row.astype(np.float64)
        expected /= mask.sum()
        assert np.allclose(base_mean(fs), expected, rtol=1e-6)

    def test_permutation_invariant(self, rng):
        vectors = rng.normal(size=(50, 3)).astype(np.float32)
        labels = np.array([0] * 25 + [1] * 25)
        perm = rng.permutation(50)
        fs1 = FeatureSet(vectors, labels, ("a", "b"), {0: "base", 1: "base"})
        fs2 = FeatureSet(vectors[perm], labels[perm], ("a", "b"), {0: "base", 1: "base"})
        assert np.allclose(base_mean(fs1), base_mean(fs2), atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 64])
    @pytest.mark.parametrize("extra_rows", [-1, 0, 1])
    def test_equals_the_float64_copy_mean(self, rng, dim, extra_rows):
        """Two blocks of base rows and one row either side (at D=1, whose
        split is summed whole, as many rows as two blocks hold elements),
        interleaved at random among as many test rows.
        Magnitudes span 2^-60..2^60 and 5% of the components are -0.0 (at
        D>1 a whole column), so a sum in any other order or grouping, or a
        sign lost from a zero, shows."""
        n_base = 2 * (_BLOCK_ELEMENTS // dim) + extra_rows
        labels = np.ones(2 * n_base + 1, dtype=np.int64)
        labels[rng.choice(labels.size, n_base, replace=False)] = 0
        magnitudes = np.exp2(rng.uniform(-60, 60, size=(labels.size, dim)))
        vectors = (rng.choice([-1.0, 1.0], size=magnitudes.shape) * magnitudes).astype(np.float32)
        vectors[rng.random(vectors.shape) < 0.05] = -0.0
        if dim > 1:
            vectors[:, -1] = -0.0
        fs = FeatureSet(vectors, labels, ("a", "b"), {0: "base", 1: "test"})
        expected = vectors[labels == 0].mean(axis=0, dtype=np.float64)
        assert np.array_equal(base_mean(fs), expected)
        assert np.array_equal(np.signbit(base_mean(fs)), np.signbit(expected))

    def test_a_second_call_returns_the_first_result(self, rng):
        fs = FeatureSet(rng.normal(size=(30, 4)).astype(np.float32), np.arange(30) % 3,
                        ("a", "b", "c"), {0: "base", 1: "base", 2: "test"})
        mean = base_mean(fs)
        assert base_mean(fs) is mean
        assert not mean.flags.writeable

    def test_no_base_vectors(self):
        fs = small_fs(split_of_class={0: "test", 1: "test"})
        for _ in range(2):  # the error is not cached away
            with pytest.raises(DataError, match="base"):
                base_mean(fs)


class TestIngest:
    def test_csv_round_trip(self, tmp_path):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text(
            "label,f0,f1\n"
            "dog,1.0,2.0\n"
            "cat,3.0,4.0\n"
            "dog,5.0,6.0\n"
            "owl,7.0,8.0\n"
        )
        splits_file = tmp_path / "splits.json"
        splits_file.write_text(json.dumps({"base": ["cat"], "val": [], "test": ["dog", "owl"]}))
        out = tmp_path / "store.fsos"
        fs = ingest_csv(csv_file, splits_file, out)
        assert fs.class_names == ("cat", "dog", "owl")
        loaded = load_feature_store(out)
        assert loaded.split_of_class == {0: "base", 1: "test", 2: "test"}
        assert np.array_equal(
            loaded.vectors[loaded.labels == 1],
            np.array([[1, 2], [5, 6]], dtype=np.float32),
        )

    @pytest.mark.parametrize("splits, entry", [
        ({"base": [None], "test": ["b"]}, "entry None"),
        ({"base": 5}, "must be a list, got 5"),
        ({"base": [0.5], "test": ["b"]}, "entry 0.5"),
        ({"base": [True], "test": ["a"]}, "entry True"),
        ({"base": ["owl"], "test": ["a", "b"]}, "entry 'owl'"),
    ])
    def test_malformed_split_file_names_split_and_entry(self, tmp_path, splits, entry):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("a,1.0,2.0\nb,3.0,4.0\n")
        splits_file = tmp_path / "splits.json"
        splits_file.write_text(json.dumps(splits))
        with pytest.raises(DataError, match=rf"split 'base'.*{re.escape(entry)}"):
            ingest_csv(csv_file, splits_file, tmp_path / "o.fsos")

    def test_ragged_rows_rejected(self, tmp_path):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("a,1.0,2.0\nb,3.0\n")
        splits_file = tmp_path / "splits.json"
        splits_file.write_text(json.dumps({"base": [], "val": [], "test": ["a", "b"]}))
        with pytest.raises(DataError, match="inconsistent"):
            ingest_csv(csv_file, splits_file, tmp_path / "o.fsos")
