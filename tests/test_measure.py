import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recombdyn.measure import (
    Measure,
    ProductSpace,
    is_positive,
    marginal,
    random_probability,
    tensor,
    total_variation,
)


def brute_marginal(omega, keep):
    """Loop-based marginalization, independent of the reshape/sum path."""
    space = omega.space
    keep_axes = [omega.nodes.index(i) for i in keep]
    sub_sizes = [space.sizes[ax] for ax in keep_axes]
    out = np.zeros(int(np.prod(sub_sizes)))
    for flat in range(space.total_states):
        coords = space.coords(flat)
        sub_flat = 0
        for ax, k in zip(keep_axes, sub_sizes):
            sub_flat = sub_flat * k + coords[ax]
        out[sub_flat] += omega.weights[flat]
    return out


def brute_outer(us):
    out = np.ones(1)
    for u in us:
        out = np.array([a * b for a in out for b in u])
    return out


def test_flat_index_node0_most_significant():
    space = ProductSpace((2, 3, 2))
    assert space.flat_index((0, 0, 0)) == 0
    assert space.flat_index((0, 0, 1)) == 1
    assert space.flat_index((0, 1, 0)) == 2
    assert space.flat_index((1, 0, 0)) == 6
    for flat in range(space.total_states):
        assert space.flat_index(space.coords(flat)) == flat


def test_total_variation_cases():
    space = ProductSpace((2, 2))
    assert total_variation(Measure.zero(space)) == 0.0
    assert total_variation(Measure(space, [0.5, 0.2, 0.1, 0.2])) == 1.0
    assert total_variation(Measure(ProductSpace((2,)), [0.5, -0.5])) == 1.0


def test_marginal_hand_example():
    omega = Measure(ProductSpace((2, 2)), [0.5, 0.2, 0.1, 0.2])
    np.testing.assert_allclose(marginal(omega, [0]).weights, [0.7, 0.3], atol=1e-15)
    np.testing.assert_allclose(marginal(omega, [1]).weights, [0.6, 0.4], atol=1e-15)


def test_marginal_onto_all_nodes_is_identity():
    omega = random_probability(ProductSpace((2, 3, 2)), 1)
    kept = marginal(omega, [0, 1, 2])
    np.testing.assert_array_equal(kept.weights, omega.weights)


def test_marginal_of_product_scales_by_other_mass():
    mu = Measure(ProductSpace((2,)), [0.6, 0.4])
    nu = Measure(ProductSpace((2,)), [0.5, 1.0], nodes=(1,))
    product = tensor([mu, nu])
    np.testing.assert_allclose(marginal(product, [0]).weights, 1.5 * mu.weights, rtol=1e-14)


def test_marginal_rejects_bad_subsets():
    omega = random_probability(ProductSpace((2, 2)), 0)
    with pytest.raises(ValueError):
        marginal(omega, [])
    with pytest.raises(ValueError):
        marginal(omega, [2])
    with pytest.raises(ValueError):
        marginal(omega, [1, 0])


def test_tensor_hand_example():
    mu = Measure(ProductSpace((2,)), [0.7, 0.3])
    nu = Measure(ProductSpace((2,)), [0.6, 0.4], nodes=(1,))
    np.testing.assert_allclose(
        tensor([mu, nu]).weights, [0.42, 0.28, 0.18, 0.12], atol=1e-15
    )


def test_tensor_with_unit_point_mass_embeds():
    mu = Measure(ProductSpace((3,)), [0.2, 0.5, 0.3])
    point = Measure(ProductSpace((2,)), [0.0, 1.0], nodes=(1,))
    embedded = tensor([mu, point])
    np.testing.assert_array_equal(embedded.weights, [0.0, 0.2, 0.0, 0.5, 0.0, 0.3])


def test_tensor_annihilates_zero():
    mu = Measure.zero(ProductSpace((2,)))
    nu = Measure(ProductSpace((2,)), [0.3, 0.7], nodes=(1,))
    assert total_variation(tensor([mu, nu])) == 0.0


def test_tensor_rejects_non_covering_blocks():
    mu = Measure(ProductSpace((2,)), [1.0, 0.0])
    gap = Measure(ProductSpace((2,)), [0.5, 0.5], nodes=(2,))
    with pytest.raises(ValueError):
        tensor([mu, gap])
    with pytest.raises(ValueError):
        tensor([gap, mu])


def test_is_positive_threshold():
    space = ProductSpace((2,))
    assert is_positive(Measure(space, [0.3, 0.7]), 0.0)
    assert is_positive(Measure(space, [1.0, -1e-15]), 1e-12)
    assert not is_positive(Measure(space, [1.0, -0.1]), 1e-12)


def test_random_probability_contract():
    space = ProductSpace((2, 3))
    a = random_probability(space, 123)
    b = random_probability(space, 123)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert abs(total_variation(a) - 1.0) <= 1e-12
    assert is_positive(a, 0.0)
    assert a.weights.min() > 0.0


def test_measure_weights_are_read_only():
    omega = random_probability(ProductSpace((2, 2)), 4)
    with pytest.raises(ValueError):
        omega.weights[0] = 1.0


def test_json_round_trip():
    omega = random_probability(ProductSpace((2, 3)), 17)
    again = Measure.from_json(omega.to_json())
    assert again.space == omega.space
    np.testing.assert_array_equal(again.weights, omega.weights)


@given(st.integers(0, 10_000))
def test_marginal_against_brute_force(seed):
    space = ProductSpace((2, 3, 2))
    rng = np.random.default_rng(seed)
    omega = Measure(space, rng.standard_normal(space.total_states))
    for r in (1, 2, 3):
        for keep in itertools.combinations(range(3), r):
            got = marginal(omega, list(keep)).weights
            np.testing.assert_allclose(got, brute_marginal(omega, list(keep)), atol=1e-13)


@given(st.integers(0, 10_000))
def test_marginal_consistency_and_mass(seed):
    space = ProductSpace((2, 2, 3))
    rng = np.random.default_rng(seed)
    omega = Measure(space, rng.standard_normal(space.total_states))
    via = marginal(marginal(omega, [0, 2]), [2])
    direct = marginal(omega, [2])
    np.testing.assert_allclose(via.weights, direct.weights, atol=1e-13)
    assert abs(direct.mass - omega.mass) <= 1e-12


@given(st.integers(0, 10_000), st.floats(-2, 2), st.floats(-2, 2))
def test_marginal_linearity(seed, a, b):
    space = ProductSpace((2, 2, 2))
    rng = np.random.default_rng(seed)
    omega = Measure(space, rng.standard_normal(space.total_states))
    nu = Measure(space, rng.standard_normal(space.total_states))
    combo = marginal(a * omega + b * nu, [1])
    split = a * marginal(omega, [1]) + b * marginal(nu, [1])
    np.testing.assert_allclose(combo.weights, split.weights, atol=1e-12)


@given(st.integers(0, 10_000))
def test_tensor_against_brute_force_and_norm(seed):
    rng = np.random.default_rng(seed)
    mu = Measure(ProductSpace((2, 2)), rng.random(4))
    nu = Measure(ProductSpace((3,)), rng.random(3), nodes=(2,))
    got = tensor([mu, nu])
    np.testing.assert_allclose(got.weights, brute_outer([mu.weights, nu.weights]), rtol=1e-14)
    assert abs(
        total_variation(got) - total_variation(mu) * total_variation(nu)
    ) <= 1e-12
