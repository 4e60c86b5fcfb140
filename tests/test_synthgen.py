"""Synthetic store generator: determinism, geometry, difficulty scaling."""

from __future__ import annotations

import numpy as np
import pytest

from fsosr import ConfigError, SynthSpec, generate, mean_imposture_factor
from fsosr.synthgen import _split_counts


def base_spec(**kwargs) -> SynthSpec:
    defaults = dict(
        dim=6, n_classes=8, points_per_class=20, centroid_radius=2.0,
        within_std=0.4, seed=11, split_fractions=(0.25, 0.25, 0.5),
    )
    defaults.update(kwargs)
    return SynthSpec(**defaults)


class TestSpecValidation:
    def test_fraction_sum_checked(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            base_spec(split_fractions=(0.5, 0.5, 0.5))

    def test_bad_dim(self):
        with pytest.raises(ConfigError):
            base_spec(dim=0)

    def test_shift_vector_shapes(self):
        assert np.allclose(base_spec(global_shift=2.0).shift_vector(), np.full(6, 2.0))
        spec = base_spec(global_shift=(1, 2, 3, 4, 5, 6))
        assert np.allclose(spec.shift_vector(), [1, 2, 3, 4, 5, 6])
        with pytest.raises(ConfigError, match="length 6"):
            base_spec(global_shift=(1.0, 2.0)).shift_vector()


class TestGenerate:
    def test_deterministic(self):
        a = generate(base_spec())
        b = generate(base_spec())
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.labels, b.labels)
        assert a.split_of_class == b.split_of_class

    def test_seed_changes_output(self):
        a = generate(base_spec())
        b = generate(base_spec(seed=12))
        assert not np.array_equal(a.vectors, b.vectors)

    def test_zero_spread_collapses_to_centroids(self):
        fs = generate(base_spec(within_std=0.0))
        for c in range(8):
            members = fs.vectors[fs.labels == c]
            assert np.all(members == members[0])
        assert mean_imposture_factor(fs.vectors.astype(np.float64), fs.labels) == 0.0

    def test_centroids_on_requested_sphere(self):
        fs = generate(base_spec(within_std=0.0, global_shift=3.0))
        shift = np.full(6, 3.0)
        for c in range(8):
            centroid = fs.vectors[fs.labels == c][0].astype(np.float64)
            assert np.isclose(np.linalg.norm(centroid - shift), 2.0, atol=1e-5)

    def test_split_sizes(self):
        fs = generate(base_spec())
        assert fs.split_class_ids("base").size == 2
        assert fs.split_class_ids("val").size == 2
        assert fs.split_class_ids("test").size == 4

    def test_split_counts_rounding(self):
        assert _split_counts((0.4, 0.2, 0.4), 10) == [4, 2, 4]
        assert sum(_split_counts((1 / 3, 1 / 3, 1 / 3), 10)) == 10
        assert _split_counts((0.0, 0.0, 1.0), 7) == [0, 0, 7]


class TestDifficulty:
    def test_heavy_overlap_reaches_chance_band(self):
        # two balanced classes, spread far beyond the centroid gap
        values = []
        for seed in range(20):
            spec = SynthSpec(
                dim=4, n_classes=2, points_per_class=50, centroid_radius=0.5,
                within_std=8.0, seed=seed, split_fractions=(0.0, 0.0, 1.0),
            )
            fs = generate(spec)
            values.append(mean_imposture_factor(fs.vectors.astype(np.float64), fs.labels))
        assert 0.35 <= float(np.mean(values)) <= 0.65

    def test_mif_monotone_in_within_std(self):
        # seed-averaged difficulty must not decrease as clusters widen
        spreads = (0.1, 0.5, 1.0, 2.0, 4.0)
        averages = []
        for spread in spreads:
            values = [
                mean_imposture_factor(
                    generate(
                        SynthSpec(
                            dim=4, n_classes=4, points_per_class=30,
                            centroid_radius=1.5, within_std=spread, seed=seed,
                            split_fractions=(0.0, 0.0, 1.0),
                        )
                    ).vectors.astype(np.float64),
                    np.repeat(np.arange(4), 30),
                )
                for seed in range(10)
            ]
            averages.append(float(np.mean(values)))
        assert all(b >= a - 1e-9 for a, b in zip(averages, averages[1:])), averages
