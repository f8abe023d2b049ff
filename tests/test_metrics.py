"""The latent metric: unbiased MMD² between sampled and reference clouds."""

import math

import numpy as np
import pytest

from moldiff.harness import latent_mmd


def gaussian_clouds(rng, count, shift=0.0):
    """``count`` clouds of 5 or 7 rows by 2 columns, from N(shift, 1)."""
    return [rng.standard_normal((n, 2)) + shift for n in rng.choice([5, 7], size=count)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_distribution_scores_near_zero_and_a_shift_far_higher(seed):
    rng = np.random.default_rng(seed)
    reference = gaussian_clouds(rng, 80)
    same = latent_mmd(gaussian_clouds(rng, 80), reference)
    shifted = latent_mmd(gaussian_clouds(rng, 80, shift=1.0), reference)
    assert abs(same) < 0.02
    assert shifted > 0.25


def test_row_order_does_not_matter_bitwise(rng):
    samples, reference = gaussian_clouds(rng, 20), gaussian_clouds(rng, 20)
    permuted = [c[rng.permutation(len(c))] for c in samples]
    assert not all(np.array_equal(a, b) for a, b in zip(samples, permuted))
    assert latent_mmd(permuted, reference) == latent_mmd(samples, reference)


def test_same_inputs_same_value(rng):
    samples, reference = gaussian_clouds(rng, 30), gaussian_clouds(rng, 30)
    first = latent_mmd(samples, reference)
    assert math.isfinite(first)
    assert latent_mmd([c.copy() for c in samples], [c.copy() for c in reference]) == first


def test_value_is_a_python_float(rng):
    """``results.csv`` writes it by ``repr``, which must read back as a float."""
    value = latent_mmd(gaussian_clouds(rng, 30), gaussian_clouds(rng, 30))
    assert type(value) is float and float(repr(value)) == value


def test_counts_weighted_by_their_sampled_clouds(rng):
    """Row counts are scored apart: clouds of 3 rows never meet clouds of 4."""
    def clouds(k, rows, shift=0.0):
        return [rng.standard_normal((rows, 2)) + shift for _ in range(k)]

    samples3, reference3 = clouds(6, 3), clouds(6, 3)
    samples4, reference4 = clouds(2, 4, shift=2.0), clouds(6, 4)
    want = (6 * latent_mmd(samples3, reference3) + 2 * latent_mmd(samples4, reference4)) / 8
    got = latent_mmd(samples3 + samples4, reference3 + reference4)
    assert got == pytest.approx(want, rel=1e-12)


def test_nan_when_no_row_count_has_two_clouds_on_each_side(rng):
    one_each = [rng.standard_normal((3, 2)), rng.standard_normal((4, 2))]
    assert math.isnan(latent_mmd(one_each, one_each + one_each))
    assert math.isnan(latent_mmd([rng.standard_normal((3, 2))] * 2,
                                 [rng.standard_normal((4, 2))] * 2))
