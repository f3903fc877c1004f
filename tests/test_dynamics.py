import inspect
import io
import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from recombdyn import dynamics, writers
from recombdyn.dynamics import (
    ROW_BLOCK_CELLS,
    RateMap,
    Trajectory,
    check_linearization,
    compile_field,
    expansion_coefficients,
    moebius_sum,
    output_grid,
    product_flow_apply,
    product_flow_blocks,
    product_flow_grid,
    recombination_table,
    require_stretch_system,
    rk4_integrate,
    rk4_integrate_many,
    row_blocks,
)
from recombdyn.generalized import generalized_flow_grid
from recombdyn.lattice import LinkSet, all_link_sets, subsets_of
from recombdyn.measure import (
    Measure,
    ProductSpace,
    random_probability,
    tensor,
    total_variation,
)
from recombdyn.recombinator import (
    ZERO_TOTAL_VARIATION,
    recombine,
    recombine_rows,
    recombine_weights,
)
from recombdyn.writers import trajectory_to_csv, trajectory_to_json

SPACE = ProductSpace((2, 2))
CUT = LinkSet.from_indices([0], 1)


def one_set_flow(omega, links, rho, t):
    """The one-set flow at one time: ``product_flow_apply`` of a one-entry map."""
    return product_flow_apply(omega, RateMap.single(links, rho), [t])


def crossover_at(omega, rates, t):
    """The single-crossover flow of per-link rates at one time: the one-row
    ``product_flow_grid`` of their crossover map."""
    return Measure(omega.space, product_flow_grid(omega, RateMap.crossover(rates), [t])[0])


def transform_of(omega, links):
    """T_G(omega) as a measure: ``moebius_sum`` over one recombination per superset."""
    w, space = omega.weights, omega.space
    return Measure(space, moebius_sum(links, lambda h: recombine_rows(w, space, h)), omega.nodes)


def coefficients_at(rates, t):
    """Rows a(t) and b(t) of ``expansion_coefficients`` for per-link rates,
    indexed by bitmask."""
    a, b = expansion_coefficients(RateMap.crossover(rates), [t])
    return a[0].tolist(), b[0].tolist()


def test_vector_field_hand_example():
    omega = Measure(SPACE, [0.5, 0.2, 0.1, 0.2])
    field = compile_field(SPACE, RateMap.single(CUT, 1.0))(omega.weights)
    np.testing.assert_allclose(field, [-0.08, 0.08, 0.08, -0.08], atol=1e-15)


def test_vector_field_vanishes_on_product_measures():
    mu = Measure(ProductSpace((2,)), [0.3, 0.7])
    nu = Measure(ProductSpace((3,)), [0.2, 0.5, 0.3], nodes=(1,))
    product = tensor([mu, nu])
    rates = RateMap(1, ((LinkSet.from_indices([0], 1), 1.0),))
    field = compile_field(product.space, rates)(product.weights)
    assert np.abs(field).sum() <= 1e-13


def test_vector_field_empty_rates_is_zero():
    omega = random_probability(SPACE, 3)
    assert np.abs(compile_field(SPACE, RateMap(1, ()))(omega.weights)).sum() == 0.0


def test_vector_field_total_weight_is_zero_on_positives():
    space = ProductSpace((2, 3, 2))
    omega = random_probability(space, 9)
    rates = RateMap(
        2, ((LinkSet.from_indices([0], 2), 0.7), (LinkSet.from_indices([0, 1], 2), 0.4))
    )
    assert abs(compile_field(space, rates)(omega.weights).sum()) <= 1e-14


def bitmask_order(rates):
    """The map's entries in bitmask order, the order the field sums them in."""
    return sorted(rates.entries, key=lambda entry: entry[0].bits)


def reference_field(space, rates, w):
    """sum_G rho_G (R_G(w) - w), one recombine_weights call per term."""
    out = np.zeros_like(w)
    for links, rate in bitmask_order(rates):
        out += rate * (recombine_weights(w, space.sizes, links.blocks) - w)
    return out


# (2,3,2,3) and 3^5 take the stacked kernel; 4^6 has more than 2^18
# marginal rows x states and takes the strided one.  The cut sets share
# blocks ({0} and {0,2} share node block (0,); {2} and {0,2} share the
# block after link 2) and one entry has rate zero.
FIELD_CASES = [
    ((2, 3, 2, 3), "stacked_field"),
    ((3, 3, 3, 3, 3), "stacked_field"),
    ((4, 4, 4, 4, 4, 4), "strided_field"),
]


def _shared_block_rates(n_links):
    return RateMap(
        n_links,
        (
            (LinkSet.from_indices([0], n_links), 0.7),
            (LinkSet.from_indices([2], n_links), 1.3),
            (LinkSet.from_indices([0, 2], n_links), 0.4),
            (LinkSet.from_indices([1], n_links), 0.0),
            (LinkSet.full(n_links), 0.25),
        ),
    )


@pytest.mark.parametrize("sizes,kernel", FIELD_CASES)
def test_compile_field_matches_recombine_weights(sizes, kernel):
    space = ProductSpace(sizes)
    rates = _shared_block_rates(space.n_links)
    field = compile_field(space, rates)
    assert field.__name__ == kernel
    rng = np.random.default_rng(len(sizes))
    positive = random_probability(space, 4).weights
    signed = rng.standard_normal(space.total_states)
    # Below ZERO_TOTAL_VARIATION R(w) = 0, so the field is -sum(rho) w.
    below_zero_tv = 5e-301 * signed / np.abs(signed).sum()
    for w in (positive, signed, 1e-200 * signed, below_zero_tv):
        bound = 1e-15 * np.abs(w).sum()
        assert np.abs(field(w) - reference_field(space, rates, w)).max() <= bound


@pytest.mark.parametrize("sizes,kernel", FIELD_CASES)
def test_compile_field_zero_measure_and_empty_rates(sizes, kernel):
    space = ProductSpace(sizes)
    zero = np.zeros(space.total_states)
    field = compile_field(space, _shared_block_rates(space.n_links))
    assert field.__name__ == kernel
    np.testing.assert_array_equal(field(zero), zero)
    w = random_probability(space, 2).weights
    empty = compile_field(space, RateMap(space.n_links, ()))
    np.testing.assert_array_equal(empty(w), zero)
    only_zero_rate = compile_field(
        space, RateMap.single(LinkSet.from_indices([1], space.n_links), 0.0)
    )
    np.testing.assert_array_equal(only_zero_rate(w), zero)


def stacked_reference_field(space, rates, w):
    """The stacked kernel's field of one problem in plain float arithmetic,
    as the bit-level reference.

    |w| and each block marginal are sums from 0.0 in flat order; a term
    multiplies its factors m/|w| in block order, then by rho |w|, and is
    added at its relabeled targets, the terms in bitmask order from 0.0;
    ``fsum(rates) w`` is subtracted last.  A problem whose |w| is below
    ``ZERO_TOTAL_VARIATION`` has R = 0: its factors are the marginals and the
    last one is rho 0.0.  One whose |w| is NaN keeps its factors the
    marginals and its last one rho NaN, so every term is NaN.
    """
    sizes, n = space.sizes, space.total_states
    x = w.tolist()
    tv = 0.0
    for v in x:
        tv += abs(v)
    live = tv >= ZERO_TOTAL_VARIATION
    terms = [(rate, links.blocks) for links, rate in bitmask_order(rates) if rate != 0.0]
    target = list(range(n))
    if rates.relabel is not None:
        rest = n // len(rates.relabel)
        target = [rates.relabel[i // rest] * rest + i % rest for i in range(n)]
    acc = [0.0] * n
    for rate, blocks in terms:
        factors = []
        for block in blocks:
            size = math.prod(sizes[block[0] : block[-1] + 1])
            right = math.prod(sizes[block[-1] + 1 :])
            m = [0.0] * size
            for i, v in enumerate(x):
                m[i // right % size] += v
            factors.append(([v / tv if live else v for v in m], right, size))
        scale = rate * (0.0 if tv < ZERO_TOTAL_VARIATION else tv)
        for i in range(n):
            (m, right, size), *others = factors
            p = m[i // right % size]
            for m, right, size in others:
                p *= m[i // right % size]
            acc[target[i]] += p * scale
    total = math.fsum(rate for rate, _ in terms)
    return np.array([a - total * v for a, v in zip(acc, x)])


def _stacked_batch():
    # Terms of 1 to 5 blocks, a zero-rate entry, a one-block term under a
    # relabeling of all states, two-block terms under a first-node
    # relabeling, an empty map, signed and positive states, and two idle
    # problems: one below ZERO_TOTAL_VARIATION and one with a NaN weight.
    rng = np.random.default_rng(11)

    def signed(sizes):
        return rng.standard_normal(math.prod(sizes))

    def positive(sizes, seed):
        return random_probability(ProductSpace(sizes), seed).weights

    nan_state = signed((2, 2, 3))
    nan_state[4] = np.nan
    live = [
        ((2, 2), RateMap.single(CUT, 1.3), positive((2, 2), 1)),
        ((2, 3, 2, 2, 3), _cut_sets(4, [0, 1, 2, 3], [1, 3], [2]), signed((2, 3, 2, 2, 3))),
        ((2, 3, 2, 3), _shared_block_rates(3), 2.5 * positive((2, 3, 2, 3), 2)),
        ((3, 2, 2), _cut_sets(2, [], relabel=rng.permutation(12).tolist()), positive((3, 2, 2), 3)),
        ((3, 2, 2, 2), _cut_sets(3, [0], [0, 1], [0, 2], relabel=[2, 0, 1]), signed((3, 2, 2, 2))),
        ((2, 3), RateMap(1, ()), positive((2, 3), 4)),
    ]
    idle = [
        ((2, 3, 2), RateMap.crossover([1.0, 0.5]), 1e-303 * signed((2, 3, 2))),
        ((2, 2, 3), RateMap.crossover([0.7, 1.1]), nan_state),
    ]
    return live, idle


@pytest.mark.parametrize("with_idle", [False, True])
def test_stacked_field_writes_the_reference_bits(with_idle):
    live, idle = _stacked_batch()
    batch = live + idle if with_idle else live
    parts = [dynamics._field_terms(ProductSpace(sizes), rates) for sizes, rates, _ in batch]
    assert all(part.stacks for part in parts)
    field = dynamics._stacked_field(parts)
    assert field.__name__ == "stacked_field"
    w = np.concatenate([state for _, _, state in batch])
    out = field(w)
    start = 0
    for sizes, rates, state in batch:
        stop = start + state.size
        expected = stacked_reference_field(ProductSpace(sizes), rates, state)
        assert out[start:stop].tobytes() == expected.tobytes(), (sizes, rates)
        start = stop
    assert np.isnan(out).any() == with_idle


def test_a_nan_state_is_nan_alike_in_both_kernels(monkeypatch):
    # One NaN weight makes |w| NaN, and every cell with a nonzero-rate term
    # NaN in either kernel, as in recombine_weights.
    space = ProductSpace((2, 2, 3))
    w = np.random.default_rng(4).standard_normal(space.total_states)
    w[4] = np.nan
    masks = []
    for kernel, cap in (("stacked_field", 1 << 40), ("strided_field", 0)):
        monkeypatch.setattr(dynamics, "STACKED_FIELD_MAX_ENTRIES", cap)
        field = compile_field(space, RateMap.crossover([0.7, 1.1]))
        assert field.__name__ == kernel
        masks.append(np.isnan(field(w)).tolist())
    assert masks[0] == masks[1] == [True] * space.total_states


def test_one_stacked_field_serves_two_threads():
    # compile_field promises a field that keeps nothing between calls: two
    # threads evaluating one field on different states, with the interpreter
    # switching between them as often as it can, get the serial bytes.  Eight
    # copies of the batch make numpy's loops long enough to release the GIL.
    live = _stacked_batch()[0] * 8
    parts = [dynamics._field_terms(ProductSpace(sizes), rates) for sizes, rates, _ in live]
    field = dynamics._stacked_field(parts)
    w = np.concatenate([state for _, _, state in live])
    states = [w, -0.5 * w[::-1].copy()]
    expected = [field(state).tobytes() for state in states]
    barrier = threading.Barrier(2)
    mismatches, calls = [0, 0], [0, 0]

    def evaluate(k):
        barrier.wait(timeout=60)
        for _ in range(300):
            mismatches[k] += field(states[k]).tobytes() != expected[k]
            calls[k] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=evaluate, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert calls == [300, 300] and mismatches == [0, 0]


def outer_product_field(space, rates):
    """The strided kernel with numpy's outer products, as the bit-level reference.

    Each block marginal is divided by |w| on its own, and each term is one
    chain of ``np.multiply.outer`` added to the output whole.  (Recomputing a
    shared block's marginal per term gives the same bits.)
    """
    sizes = space.sizes
    terms = [(rate, links.blocks) for links, rate in bitmask_order(rates) if rate != 0.0]
    total_rate = math.fsum(rate for rate, _ in terms)
    inverse = slice(None) if rates.relabel is None else np.argsort(rates.relabel)

    def field(w):
        tv = float(np.abs(w).sum())
        out = -total_rate * w
        if tv < ZERO_TOTAL_VARIATION:
            return out
        for rate, blocks in terms:
            scaled = []
            for block in blocks:
                left = math.prod(sizes[: block[0]])
                size = math.prod(sizes[block[0] : block[-1] + 1])
                right = math.prod(sizes[block[-1] + 1 :])
                m = w if left == 1 else np.ones(left) @ w.reshape(left, size * right)
                if right > 1:
                    m = m.reshape(size, right) @ np.ones(right)
                scaled.append(m / tv)
            acc = (rate * tv) * scaled[0][inverse]
            for m in scaled[1:]:
                acc = np.multiply.outer(acc, m).ravel()
            out += acc
        return out

    return field


def rk4_step_reference(field, w, h):
    """One classical RK4 step with a new array for every operation."""
    k1 = field(w)
    k2 = field(w + (0.5 * h) * k1)
    k3 = field(w + (0.5 * h) * k2)
    k4 = field(w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _cut_sets(n_links, *cut_sets, relabel=None):
    entries = [(LinkSet.from_indices(links, n_links), 0.3 + 0.4 * i)
               for i, links in enumerate(cut_sets)]
    return RateMap(n_links, tuple(entries), relabel)


# Strided fields by the shapes of their terms, on 4^7 (16,384) states unless
# named otherwise.  Each outer product of a term is one rank-1 product.
STRIDED_PATHS = {
    # [5]: 4,096 x 4 states, a short last factor after a long lead.
    "short last factor, long lead": ((4,) * 7, _cut_sets(6, [5])),
    # [0]: 4 x 4,096 states.
    "long last factor": ((4,) * 7, _cut_sets(6, [0])),
    # [1, 4]: 16 x 64 x 16 states; [2, 5]: 64 x 64 x 4.
    "three-block terms": ((4,) * 7, _cut_sets(6, [1, 4], [2, 5])),
    # Every shape of a 10-link crossover on 2^11 states, 2 x 1,024 to 1,024 x 2.
    "crossover": ((2,) * 11, _cut_sets(10, *([i] for i in range(10)))),
    # The empty cut set under a relabeling of all states: one block.
    "relabeled one-block term": (
        (4,) * 7, _cut_sets(6, [], relabel=np.random.default_rng(5).permutation(4**7).tolist())
    ),
    "relabeled two-block term": ((4,) * 7, _cut_sets(6, [0], relabel=[2, 0, 3, 1])),
}


def zero_slab_states(space, signed, positive):
    """States whose first-site row 0 and last-site column 0 weigh zero.

    Every marginal of a block holding the first site is 0 at its states
    that start with 0, and likewise at the end, so terms meet exact zeros
    times factors of either sign; some of the zeros are -0.0.
    """
    states = []
    for w, row, column in ((signed, 0.0, 0.0), (signed, -0.0, 0.0),
                           (signed, -0.0, -0.0), (positive, -0.0, 0.0)):
        cube = w.copy().reshape(space.sizes)
        cube[0] = row
        cube[..., 0] = column
        states.append(cube.ravel())
    return states


@pytest.mark.parametrize("path", list(STRIDED_PATHS))
def test_strided_field_writes_the_outer_product_bits(path):
    sizes, rates = STRIDED_PATHS[path]
    space = ProductSpace(sizes)
    field = compile_field(space, rates)
    assert field.__name__ == "strided_field"
    reference = outer_product_field(space, rates)
    signed = np.random.default_rng(len(path)).standard_normal(space.total_states)
    positive = random_probability(space, 3).weights
    below_zero_tv = 5e-301 * signed / np.abs(signed).sum()
    for w in (positive, signed, 1e-200 * signed, below_zero_tv):
        assert field(w).tobytes() == reference(w).tobytes()
    # A rank-1 product writes +0 where np.multiply.outer writes -0: with
    # zero marginals the values agree up to the sign of an exact zero.
    for w in zero_slab_states(space, signed, positive):
        assert (field(w) + 0.0).tobytes() == (reference(w) + 0.0).tobytes()


@pytest.mark.parametrize("path", list(STRIDED_PATHS))
def test_rk4_steps_write_the_reference_bits(path):
    # Two steps and a shortened third, from a positive and a signed state:
    # rk4_integrate plans and runs the positive one; it takes positive
    # states only, so _rk4_run steps the others by hand.
    sizes, rates = STRIDED_PATHS[path]
    space = ProductSpace(sizes)
    field = compile_field(space, rates)
    reference = outer_product_field(space, rates)
    signed = np.random.default_rng(7).standard_normal(space.total_states)
    positive = random_probability(space, 4)
    for w in (positive.weights, signed, *zero_slab_states(space, signed, positive.weights)):
        stack = np.empty((3, space.total_states))
        saves = {1: [(stack, 1, slice(None))], 2: [(stack, 2, slice(None))]}
        stack[0] = w
        last = dynamics._rk4_run(field, w, 0.01, 0, 2, saves)
        expected = [w]
        for h in (0.01, 0.01, 0.025 - 2 * 0.01):
            expected.append(rk4_step_reference(reference, expected[-1], h))
        expected = np.stack(expected).tobytes()
        shortened = dynamics._rk4_run(field, last, 0.025 - 2 * 0.01, 0, 1, {})
        assert np.vstack([stack, shortened]).tobytes() == expected
        if w is positive.weights:
            traj = rk4_integrate(positive, rates, t_end=0.025, h=0.01)
            assert traj.times[-1] == 0.025
            assert traj.weights.tobytes() == expected


def test_strided_outer_products_are_one_dot_each(monkeypatch):
    # The same bits come out of any loop over columns, so this counts the
    # np.dot calls of one evaluation of the 10-link crossover: one per
    # distinct block marginal (10 left, 10 right) and one per term.
    sizes, rates = STRIDED_PATHS["crossover"]
    space = ProductSpace(sizes)
    field = compile_field(space, rates)
    dots = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def dot(self, *args, **kwargs):
            dots.append(args[0].shape)
            return np.dot(*args, **kwargs)

    w = random_probability(space, 3).weights
    monkeypatch.setattr(dynamics, "np", CountingNumpy())
    field(w)
    assert len(dots) == 20 + 10, dots


def test_compile_field_rejects_mismatched_links():
    with pytest.raises(ValueError):
        compile_field(ProductSpace((2, 2, 2)), RateMap.single(CUT, 1.0))


def test_every_rate_parameter_takes_a_rate_map():
    # One RateMap is the library's only rate input: every parameter named
    # rates or system, or ending in _rates, of a public function or method of
    # these modules is annotated with it.  RateMap.crossover alone reads a
    # per-link rate sequence.
    from recombdyn import generalized, verify

    checked, offenders = set(), []
    for module in (dynamics, generalized, verify):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            routines = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                routines += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                             if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr))]
            for qualname, routine in routines:
                if qualname == "RateMap.crossover":
                    continue
                for param in inspect.signature(routine).parameters.values():
                    if param.name in ("rates", "system") or param.name.endswith("_rates"):
                        checked.add(qualname)
                        if param.annotation not in ("RateMap", RateMap):
                            offenders.append(f"{module.__name__}.{qualname}({param.name})")
    assert not offenders
    assert {"expansion_coefficients", "check_linearization", "product_flow_grid",
            "product_flow_apply", "rk4_integrate", "generalized_flow_grid"} <= checked


def test_ratemap_validation():
    # The empty cut set moves nothing without a relabeling: the map rejects it.
    with pytest.raises(ValueError, match="no motion"):
        RateMap.single(LinkSet.empty(2), 1.0)
    for relabel in ((0, 0, 1), (1, 2, 3), (-1, 0)):
        with pytest.raises(ValueError, match="permutation must reorder the first block's"):
            RateMap(1, ((CUT, 1.0),), relabel)
    assert RateMap(2, ((LinkSet.empty(2), 1.0),), [1, 0]).relabel == (1, 0)
    with pytest.raises(ValueError):
        RateMap.single(CUT, -0.5)
    with pytest.raises(ValueError):
        RateMap(1, ((CUT, 1.0), (CUT, 2.0)))
    with pytest.raises(ValueError, match="total"):
        RateMap.crossover([1.7e308, 1.7e308])


def test_rk4_empty_rates_constant_trajectory():
    omega = random_probability(SPACE, 5)
    traj = rk4_integrate(omega, RateMap(1, ()), t_end=0.5, h=0.1)
    for state in traj.states:
        np.testing.assert_array_equal(state.weights, omega.weights)


def test_rk4_zero_horizon_is_single_state():
    omega = random_probability(SPACE, 5)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.0, h=0.1)
    assert traj.times == (0.0,)
    np.testing.assert_array_equal(traj.states[0].weights, omega.weights)


def test_rk4_partial_final_step_lands_on_t_end():
    omega = random_probability(SPACE, 5)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.25, h=0.1)
    assert traj.times[-1] == 0.25
    assert len(traj) == 4
    # The last row is the state at 0.25, not the one at 0.2 stored again.
    exact = one_set_flow(omega, CUT, 1.0, 0.25)
    assert total_variation(traj.states[-1] - exact) <= 1e-6
    assert total_variation(traj.states[-2] - exact) > 1e-4


def test_rk4_strided_grid_ends_exactly_at_t_end():
    # Three steps of 0.1 sum to 0.30000000000000004; the stored time is t_end.
    omega = random_probability(SPACE, 5)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.3, h=0.1,
                         store_stride=2)
    assert traj.times == (0.0, 0.2, 0.3)
    assert list(traj.times) == output_grid(0.3, 0.1, 2)
    assert output_grid(0.0, 0.1, 3) == [0.0]
    assert output_grid(0.25, 0.1, 2) == [0.0, 0.2, 0.25]
    assert output_grid(0.5, 0.1, 2) == [0.0, 0.2, 0.4, 0.5]


def test_rk4_matches_semigroup():
    omega = random_probability(ProductSpace((2, 3, 2)), 7)
    cut = LinkSet.from_indices([0], 2)
    traj = rk4_integrate(omega, RateMap.single(cut, 1.0), t_end=1.0, h=1e-3)
    gap = total_variation(traj.states[-1] - one_set_flow(omega, cut, 1.0, 1.0))
    assert gap <= 1e-8
    for state in traj.states:
        assert abs(state.mass - omega.mass) <= 1e-9
        assert state.weights.min() >= -1e-9


def test_rk4_argument_validation():
    omega = random_probability(SPACE, 5)
    rates = RateMap.single(CUT, 1.0)
    with pytest.raises(ValueError):
        rk4_integrate(omega, rates, t_end=1.0, h=0.0)
    with pytest.raises(ValueError):
        rk4_integrate(omega, rates, t_end=-1.0, h=0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            rk4_integrate(omega, rates, t_end=1.0, h=bad)
        with pytest.raises(ValueError):
            rk4_integrate(omega, rates, t_end=bad, h=0.1)
    with pytest.raises(ValueError, match="cap"):
        rk4_integrate(omega, rates, t_end=1e308, h=1e-3)
    with pytest.raises(ValueError, match="grid points"):
        rk4_integrate(omega, rates, t_end=2e5, h=1.0)
    signed = Measure(SPACE, [0.5, 0.6, -0.1, 0.0])
    with pytest.raises(ValueError):
        rk4_integrate(signed, rates, t_end=1.0, h=0.1)


def _assert_matches_separate_runs(problems, h):
    batch = rk4_integrate_many(problems, h)
    assert len(batch) == len(problems)
    for (omega0, rates, t_end, stride), traj in zip(problems, batch):
        alone = rk4_integrate(omega0, rates, t_end, h, stride)
        assert traj.times == alone.times
        assert traj.weights.tobytes() == alone.weights.tobytes()
        for state in traj.states:
            assert state.space == omega0.space and state.nodes == omega0.nodes
    return batch


def test_rk4_integrate_many_matches_separate_runs():
    # Shapes, rate kinds and term widths (1 to 4 blocks) differ from problem
    # to problem; masses differ too, so one |w| shared by all would show.
    # 4^6 takes the strided kernel and runs alone; the rest share one vector.
    general = RateMap(
        3, ((LinkSet.from_indices([0, 2], 3), 0.6), (LinkSet.from_indices([1], 3), 1.1))
    )
    stretch = RateMap(
        4, ((LinkSet.from_indices([0], 4), 0.8), (LinkSet.from_indices([2, 3], 4), 0.5))
    )
    big = ProductSpace((4,) * 6)
    problems = [
        (random_probability(SPACE, 1), RateMap.single(CUT, 1.3)),
        (2.5 * random_probability(ProductSpace((2, 3, 2, 3)), 2), general),
        (random_probability(ProductSpace((3, 2, 2, 2, 3)), 3), stretch),
        (random_probability(big, 4), _shared_block_rates(big.n_links)),
        (0.5 * random_probability(ProductSpace((2, 3, 2)), 5), RateMap.crossover([0.4, 1.7])),
        (random_probability(ProductSpace((2, 2, 2, 2)), 6), RateMap.single(LinkSet.full(3), 0.9)),
    ]
    batch = _assert_matches_separate_runs([(*p, 0.35, 2) for p in problems], h=0.1)
    assert batch[0].times == (0.0, 0.2, 0.35)
    # The batch moves every problem: none is left at its initial state.
    for (omega0, _), traj in zip(problems, batch):
        assert total_variation(traj.states[-1] - omega0) > 1e-6


def test_rk4_integrate_many_idle_problems_next_to_live_ones():
    space = ProductSpace((2, 3, 2))
    live = random_probability(space, 7)
    # Below ZERO_TOTAL_VARIATION R(w) = 0, so this one only decays.
    tiny = Measure(space, 1e-303 * random_probability(space, 8).weights)
    problems = [
        (live, RateMap.crossover([1.0, 0.5])),
        (random_probability(space, 9), RateMap(2, ())),
        (tiny, RateMap.crossover([1.0, 0.5])),
        (random_probability(SPACE, 10), RateMap.single(CUT, 0.0)),
        (live, RateMap(2, ((LinkSet.from_indices([0], 2), 0.0),
                           (LinkSet.from_indices([1], 2), 2.0)))),
    ]
    batch = _assert_matches_separate_runs([(*p, 0.3, 1) for p in problems], h=0.1)
    for index in (1, 3):
        for state in batch[index].states:
            np.testing.assert_array_equal(state.weights, problems[index][0].weights)
    # Three steps of d/dt w = -1.5 w, each scaling by RK4's degree-4 polynomial.
    z = -1.5 * 0.1
    decay = (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) ** 3
    np.testing.assert_allclose(batch[2].states[-1].weights, decay * tiny.weights, rtol=1e-14)
    assert total_variation(batch[0].states[-1] - live) > 1e-3


def _counting_steps(monkeypatch):
    # The size of the vector each RK4 step takes, in order.
    sizes = []
    step = dynamics._rk4_step

    def counting(field, w, h):
        sizes.append(w.size)
        return step(field, w, h)

    monkeypatch.setattr(dynamics, "_rk4_step", counting)
    return sizes


def test_rk4_integrate_many_each_problem_on_its_own_grid(monkeypatch):
    # h = 0.1.  Stacked: one ends at t = 0, one at 0.05 (a shortened step
    # only), one at 0.35 (3 full steps and a shortened one), one at 0.2, six
    # steps before the others, and three at 0.8 with strides 2 and 3, one of
    # them idle; the 4^6 problem runs alone on the strided kernel.
    big = ProductSpace((4,) * 6)
    space = ProductSpace((2, 3, 2))
    crossover = RateMap.crossover([0.9, 0.6])
    problems = [
        (random_probability(SPACE, 1), RateMap.single(CUT, 1.2), 0.0, 1),
        (random_probability(space, 2), crossover, 0.05, 1),
        (random_probability(big, 3), _shared_block_rates(big.n_links), 0.45, 2),
        (random_probability(ProductSpace((2, 2, 2, 2)), 4), RateMap.single(LinkSet.full(3), 0.8),
         0.35, 1),
        (random_probability(space, 5), crossover, 0.8, 2),
        (random_probability(SPACE, 6), RateMap.single(CUT, 1.5), 0.2, 1),
        (random_probability(space, 7), RateMap(2, ()), 0.8, 3),
        (2.0 * random_probability(ProductSpace((3, 2, 2)), 8), crossover, 0.8, 3),
    ]
    sizes = _counting_steps(monkeypatch)
    batch = _assert_matches_separate_runs(problems, h=0.1)
    assert [traj.times for traj in batch] == [
        (0.0,), (0.0, 0.05), (0.0, 0.2, 0.4, 0.45), (0.0, 0.1, 0.2, 0.30000000000000004, 0.35),
        (0.0, 0.2, 0.4, 0.6000000000000001, 0.8), (0.0, 0.1, 0.2),
        (0.0, 0.30000000000000004, 0.6000000000000001, 0.8),
        (0.0, 0.30000000000000004, 0.6000000000000001, 0.8),
    ]
    for state in batch[6].states:
        np.testing.assert_array_equal(state.weights, problems[6][0].weights)
    # The batch's steps, before the lone runs': each problem leaves the
    # stacked vector after its own last full step.
    n = [omega0.space.total_states for omega0, *_ in problems]
    late, mid = n[4] + n[6] + n[7], n[4] + n[6] + n[7] + n[3]
    assert sizes[:15] == (
        [n[1]]  # 0.05 alone, before any full step
        + [mid + n[5]] * 2 + [mid] + [n[3]] + [late] * 5  # the stacked run
        + [big.total_states] * 5  # four full steps and the shortened one
    )


def test_rk4_integrate_many_checks_every_grid_before_stepping(monkeypatch):
    omega = random_probability(SPACE, 5)
    rates = RateMap.single(CUT, 1.0)
    sizes = _counting_steps(monkeypatch)
    # The bad grid comes last, after two good ones.
    bad = [(1e308, 1, "cap"), (math.nan, 1, "end time"), (2e5, 1, "grid points"),
           (1.0, 0, "stride")]
    for t_end, stride, message in bad:
        with pytest.raises(ValueError, match=message):
            rk4_integrate_many([(omega, rates, 1.0, 1), (omega, rates, 0.5, 2),
                                (omega, rates, t_end, stride)], h=0.1)
    assert sizes == []


def test_rk4_integrate_many_validation():
    omega = random_probability(SPACE, 5)
    rates = RateMap.single(CUT, 1.0)
    with pytest.raises(ValueError, match="at least one"):
        rk4_integrate_many([], h=0.1)
    with pytest.raises(ValueError, match="link count"):
        rk4_integrate_many([(omega, rates, 1.0, 1),
                            (omega, RateMap.crossover([1.0, 1.0]), 1.0, 1)], h=0.1)
    signed = Measure(SPACE, [0.5, 0.6, -0.1, 0.0])
    with pytest.raises(ValueError, match="positive"):
        rk4_integrate_many([(omega, rates, 1.0, 1), (signed, rates, 1.0, 1)], h=0.1)
    with pytest.raises(ValueError, match="cap"):
        rk4_integrate_many([(omega, rates, 1e308, 1)], h=1e-3)


def test_semigroup_time_zero_is_identity():
    omega = random_probability(SPACE, 2)
    out = one_set_flow(omega, CUT, 1.7, 0.0)
    np.testing.assert_array_equal(out.weights, omega.weights)


def test_semigroup_long_time_reaches_recombination():
    omega = random_probability(ProductSpace((2, 3)), 4)
    cut = LinkSet.from_indices([0], 1)
    final = one_set_flow(omega, cut, 1.0, 50.0)
    assert total_variation(final - recombine(omega, cut)) <= 1e-20


def test_semigroup_exact_decay_identity():
    space = ProductSpace((2, 2, 3))
    for seed in range(10):
        omega = random_probability(space, seed)
        cut = LinkSet.from_indices([0, 1], 2)
        rho = 0.8
        equilibrium = recombine(omega, cut)
        span = total_variation(omega - equilibrium)
        for t in (0.1, 1.0, 3.0):
            lhs = total_variation(one_set_flow(omega, cut, rho, t) - equilibrium)
            rhs = math.exp(-rho * t) * span
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_semigroup_validation():
    # The one-set flow is product_flow_apply of a one-entry map: the map
    # rejects an empty cut set, the flow a rate 0, a negative time and a
    # signed state.
    omega = random_probability(SPACE, 2)
    with pytest.raises(ValueError, match="no motion"):
        one_set_flow(omega, LinkSet.empty(1), 1.0, 1.0)
    with pytest.raises(ValueError, match="> 0"):
        one_set_flow(omega, CUT, 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        one_set_flow(omega, CUT, 1.0, -0.1)
    with pytest.raises(ValueError, match="positive"):
        one_set_flow(Measure(SPACE, [0.5, 0.6, -0.1, 0.0]), CUT, 1.0, 1.0)


def test_stretch_system_validation():
    a = LinkSet.from_indices([0, 2], 3)
    b = LinkSet.from_indices([1], 3)
    with pytest.raises(ValueError, match="overlap"):
        require_stretch_system(RateMap(3, ((a, 1.0), (b, 1.0))))
    with pytest.raises(ValueError, match="> 0"):
        require_stretch_system(RateMap.single(b, 0.0))
    with pytest.raises(ValueError, match="at least one"):
        require_stretch_system(RateMap(3, ()))
    # Only a relabeled map holds the empty cut set, and no relabeling passes.
    with pytest.raises(ValueError, match="nonempty"):
        require_stretch_system(RateMap(1, ((LinkSet.empty(1), 1.0),), [1, 0]))
    with pytest.raises(ValueError, match="relabeling"):
        require_stretch_system(RateMap(1, ((CUT, 1.0),), [1, 0]))
    require_stretch_system(RateMap(3, ((b, 1.0), (LinkSet.from_indices([2], 3), 0.5))))


@pytest.mark.parametrize("call", [
    lambda omega, ts: product_flow_grid(omega, RateMap.crossover([1.0, 0.5]), ts),
    lambda omega, ts: product_flow_apply(omega, RateMap.crossover([1.0, 0.5]), ts).weights,
    lambda omega, ts: expansion_coefficients(RateMap.crossover([1.0, 0.5]), ts),
    lambda omega, ts: generalized_flow_grid(
        omega, RateMap(2, ((LinkSet.from_indices([0], 2), 1.0),), (1, 0)), ts
    ),
], ids=["product_flow_grid", "product_flow_apply", "expansion_coefficients",
        "generalized_flow_grid"])
def test_closed_forms_reject_a_nan_time_and_take_infinity(call):
    # NaN passes no comparison, so a "t < 0" test let it through into rows
    # of NaN; +inf is the flow's limit, as it always was.
    omega = random_probability(ProductSpace((2, 3, 2)), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="times must be nonnegative"):
            call(omega, [0.5, math.nan])
        assert np.isfinite(call(omega, [0.5, math.inf])).all()


def test_product_flow_zero_times_and_single_component():
    space = ProductSpace((2, 2, 2))
    omega = random_probability(space, 6)
    system = RateMap.crossover([1.0, 0.5])
    unchanged = product_flow_apply(omega, system, [0.0, 0.0])
    np.testing.assert_array_equal(unchanged.weights, omega.weights)

    # One component at one time is the one-set flow, the row of its grid.
    solo = RateMap.single(LinkSet.from_indices([0], 2), 1.3)
    via_flow = product_flow_apply(omega, solo, [0.9])
    np.testing.assert_array_equal(via_flow.weights, product_flow_grid(omega, solo, [0.9])[0])
    survival = math.exp(-1.3 * 0.9)
    direct = survival * omega + (1.0 - survival) * recombine(omega, LinkSet.from_indices([0], 2))
    assert total_variation(via_flow - direct) <= 1e-15

    with pytest.raises(ValueError):
        product_flow_apply(omega, system, [0.1])


def test_product_flow_one_parameter_law():
    space = ProductSpace((2, 3, 2, 2))
    system = RateMap(
        3, ((LinkSet.from_indices([0], 3), 1.1), (LinkSet.from_indices([2], 3), 0.6))
    )
    for seed in range(5):
        omega = random_probability(space, seed)
        s, t = 0.45, 1.15
        direct = product_flow_apply(omega, system, [s + t] * 2)
        staged = product_flow_apply(
            product_flow_apply(omega, system, [s] * 2), system, [t] * 2
        )
        assert total_variation(direct - staged) <= 1e-11


def test_product_flow_order_independence():
    space = ProductSpace((2, 2, 2, 2))
    for seed in range(10):
        omega = random_probability(space, seed)
        l1 = LinkSet.from_indices([0], 3)
        l2 = LinkSet.from_indices([2], 3)
        s, t = 0.7, 1.3
        forward = one_set_flow(one_set_flow(omega, l1, 1.0, s), l2, 0.6, t)
        backward = one_set_flow(one_set_flow(omega, l2, 0.6, t), l1, 1.0, s)
        assert total_variation(forward - backward) <= 1e-12


def test_crossover_time_zero_identity():
    omega = random_probability(ProductSpace((2, 2, 2)), 1)
    out = crossover_at(omega, [1.0, 0.5], 0.0)
    np.testing.assert_array_equal(out.weights, omega.weights)


def test_crossover_coefficients_at_log_two():
    # e^{-t} = 1/2 at t = ln 2 makes every weight 1/4 on two links
    a, b = coefficients_at([1.0, 1.0], math.log(2.0))
    for links in all_link_sets(2):
        assert abs(a[links.bits] - 0.25) <= 1e-12
    assert abs(b[LinkSet.from_indices([0], 2).bits] - 0.5) <= 1e-12


def test_coefficient_a_limits():
    rates = [0.7, 1.1, 0.4]
    empty, full = LinkSet.empty(3).bits, LinkSet.full(3).bits
    a, b = expansion_coefficients(RateMap.crossover(rates), [0.0, 1.3, 2.0, 200.0])
    assert abs(a[2, empty] - math.exp(-2.0 * sum(rates))) <= 1e-14
    assert a[0, empty] == 1.0
    assert a[0, full] == 0.0
    assert abs(a[3, full] - 1.0) <= 1e-12
    assert abs(b[1, full] - 1.0) <= 1e-12
    assert b[1, empty] == a[1, empty]


def test_coefficient_sum_is_one():
    a, _ = expansion_coefficients(
        RateMap.crossover([1.0, 0.3, 0.8]), np.linspace(0.0, 5.0, 11).tolist()
    )
    assert a.shape == (11, 8)
    for row in a.tolist():
        assert abs(sum(row) - 1.0) <= 1e-12


def test_coefficient_validation():
    # The tables and the linearization check take a crossover map: one
    # singleton entry per link, each at a positive rate, and no relabeling.
    link = [LinkSet.from_indices([i], 2) for i in range(2)]
    omega = random_probability(ProductSpace((2, 2, 2)), 0)
    for rates, message in (
        (RateMap(2, ((LinkSet.full(2), 1.0),)), "one singleton entry per link"),
        (RateMap(2, ((link[1], 1.0),)), "one singleton entry per link"),
        (RateMap(2, ((link[0], 1.0), (link[1], 0.5), (LinkSet.full(2), 0.3))), "overlap"),
        (RateMap(2, ((link[0], 1.0), (link[1], 0.5)), (1, 0)), "carries no relabeling"),
        (RateMap.crossover([1.0, 0.0]), "finite and > 0, got 0.0"),
        (RateMap(2, ()), "at least one component"),
    ):
        with pytest.raises(ValueError, match=message):
            expansion_coefficients(rates, [1.0])
        with pytest.raises(ValueError, match=message):
            check_linearization(omega, rates, [1.0])
    with pytest.raises(ValueError, match="finite and >= 0"):
        RateMap.crossover([1.0, math.inf])
    with pytest.raises(ValueError, match="times must be nonnegative"):
        expansion_coefficients(RateMap.crossover([1.0, 0.5]), [0.5, -0.1])
    with pytest.raises(ValueError, match="link count"):
        check_linearization(omega, RateMap.crossover([1.0]), [1.0])


def subset_expansion(omega, rates, t):
    """The paper's sum_G a_G(t) R_G(omega) over all cut sets."""
    a, _ = coefficients_at(rates, t)
    terms = (a[ls.bits] * recombine(omega, ls) for ls in all_link_sets(len(rates)))
    return sum(terms, start=Measure.zero(omega.space))


def reference_coefficients(rates, times):
    """a_G(t) and b_G(t) cell by cell: math.exp factors multiplied from 1.0 in
    link order, the definition ``expansion_coefficients`` must match bit for bit."""
    a, b = [], []
    for t in times:
        row_a, row_b = [], []
        for ls in all_link_sets(len(rates)):
            value_a = value_b = 1.0
            for i, rate in enumerate(rates):
                decayed = math.exp(-rate * t)
                value_a *= (1.0 - decayed) if i in ls else decayed
                if i not in ls:
                    value_b *= decayed
            row_a.append(value_a)
            row_b.append(value_b)
        a.append(row_a)
        b.append(row_b)
    return a, b


def test_expansion_coefficients_are_bit_exact_products_in_link_order():
    times = [0.0, 1e-9, 0.1, 0.25, 0.5, 1.0, 1.3, 2.0, 3.7, 5.0, 10.0, 50.0, 700.0]
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        rates = rng.uniform(0.05, 3.0, size=n).tolist()
        crossover = RateMap.crossover(rates)
        a, b = expansion_coefficients(crossover, times)
        assert a.shape == b.shape == (len(times), 1 << n)
        assert (a.tolist(), b.tolist()) == reference_coefficients(rates, times)
        # A map that lists its singletons out of link order has the same tables.
        a_any, b_any = expansion_coefficients(RateMap(n, crossover.entries[::-1]), times)
        assert (a_any.tobytes(), b_any.tobytes()) == (a.tobytes(), b.tobytes())
    a, b = expansion_coefficients(RateMap.crossover([0.5, 2.0]), [])
    assert a.shape == b.shape == (0, 4)


def test_crossover_equals_singleton_product_flow():
    # The crossover map's flow is the product of the one-link flows; the
    # subset expansion is the independent second opinion.
    space = ProductSpace((2, 3, 2, 2))
    rates = [1.0, 0.4, 0.9]
    for seed in range(5):
        omega = random_probability(space, seed)
        for t in (0.2, 0.9, 2.5):
            expansion = subset_expansion(omega, rates, t)
            product = crossover_at(omega, rates, t)
            assert total_variation(expansion - product) <= 1e-10


def test_coefficient_b_is_the_subset_sum_of_coefficient_a():
    a, b = expansion_coefficients(RateMap.crossover([1.0, 0.3, 0.8, 1.7]), [0.0, 0.3, 1.0, 5.0])
    for row_a, row_b in zip(a.tolist(), b.tolist()):
        for links in all_link_sets(4):
            subset_sum = math.fsum(row_a[sub.bits] for sub in subsets_of(links))
            assert abs(row_b[links.bits] - subset_sum) <= 1e-15


def test_moebius_transform_two_point_lattice():
    omega = random_probability(ProductSpace((2, 3)), 11)
    cut = LinkSet.from_indices([0], 1)
    t_empty = transform_of(omega, LinkSet.empty(1))
    t_full = transform_of(omega, cut)
    recombined = recombine(omega, cut)
    np.testing.assert_array_equal(t_full.weights, recombined.weights)
    np.testing.assert_array_equal(t_empty.weights, (omega - recombined).weights)
    assert total_variation(t_empty + t_full - omega) <= 1e-14


def test_moebius_transform_at_full_set_is_recombination():
    omega = random_probability(ProductSpace((2, 2, 2)), 13)
    full = LinkSet.full(2)
    np.testing.assert_array_equal(
        transform_of(omega, full).weights, recombine(omega, full).weights
    )


def test_moebius_inversion_round_trip():
    space = ProductSpace((2, 2, 3))
    omega = random_probability(space, 3)
    for links in all_link_sets(2):
        from recombdyn.lattice import supersets_of

        back = Measure.zero(space)
        for sup in supersets_of(links):
            back = back + transform_of(omega, sup)
        assert total_variation(back - recombine(omega, links)) <= 1e-11


def test_linearization_full_set_is_constant():
    omega = random_probability(ProductSpace((2, 2, 2)), 2)
    residual = check_linearization(omega, RateMap.crossover([1.0, 0.7]), [0.0, 0.5, 1.0, 2.0])
    assert residual[LinkSet.full(2).bits] <= 1e-12


def test_linearization_single_link_decay():
    omega = random_probability(ProductSpace((2, 3)), 6)
    residual = check_linearization(omega, RateMap.crossover([0.9]), [0.0, 0.3, 1.0, 2.0, 4.0])
    assert residual[LinkSet.empty(1).bits] <= 1e-12


def test_linearization_three_links():
    omega = random_probability(ProductSpace((2, 2, 2, 2)), 14)
    rates = RateMap.crossover([1.0, 0.5, 1.4])
    grid = np.arange(0.0, 5.0 + 1e-9, 0.25).tolist()
    residuals = check_linearization(omega, rates, grid)
    assert residuals.shape == (8,) and (residuals <= 1e-9).all()


def test_transform_decay_matches_cumulative_coefficient():
    omega = random_probability(ProductSpace((2, 2, 2, 2)), 15)
    rates = [1.0, 0.5, 1.4]
    state = crossover_at(omega, rates, 0.85)
    _, b = coefficients_at(rates, 0.85)
    for links in all_link_sets(3):
        predicted = b[links.bits] * transform_of(omega, links)
        assert total_variation(transform_of(state, links) - predicted) <= 1e-10


# -- closed forms on a whole grid ------------------------------------------------

GRID = [0.0, 0.05, 0.3, 0.3001, 1.0, 2.5, 7.0]


def assert_rows_match(stack, measures, omega0):
    """Each row within 1e-15 |omega_0| of the one-row result at its time."""
    assert stack.shape == (len(measures), omega0.space.total_states)
    for row, state in zip(stack, measures):
        assert np.abs(row - state.weights).sum() <= 1e-15 * total_variation(omega0)


def test_product_flow_grid_is_its_one_row_case_at_every_time():
    space = ProductSpace((2, 3, 2, 2, 2))
    system = RateMap(
        4, ((LinkSet.from_indices([0], 4), 1.1), (LinkSet.from_indices([2, 3], 4), 0.45))
    )
    omega = random_probability(space, 21)
    stack = product_flow_grid(omega, system, GRID)
    np.testing.assert_array_equal(stack[0], omega.weights)
    assert_rows_match(stack, [product_flow_apply(omega, system, [t] * 2) for t in GRID], omega)
    one_set = RateMap.single(LinkSet.from_indices([1], 4), 0.8)
    assert_rows_match(
        product_flow_grid(omega, one_set, GRID),
        [one_set_flow(omega, LinkSet.from_indices([1], 4), 0.8, t) for t in GRID],
        omega,
    )
    assert product_flow_grid(omega, system, []).shape == (0, space.total_states)
    with pytest.raises(ValueError):
        product_flow_grid(omega, system, [0.5, -0.1])


def test_crossover_map_grid_is_its_one_row_case_at_every_time():
    space = ProductSpace((2, 3, 2, 2))
    rates = [1.0, 0.4, 0.9]
    omega = random_probability(space, 22)
    stack = product_flow_grid(omega, RateMap.crossover(rates), GRID)
    np.testing.assert_array_equal(stack[0], omega.weights)
    assert_rows_match(stack, [crossover_at(omega, rates, t) for t in GRID], omega)
    # The subset expansion is the independent second opinion on every row.
    for row, t in zip(stack, GRID):
        assert np.abs(row - subset_expansion(omega, rates, t).weights).sum() <= 1e-10
    with pytest.raises(ValueError):
        product_flow_grid(omega, RateMap.crossover([1.0, 0.4]), GRID)


# 4^6 states x 201 times: 16 rows a block, so the grid spans 13 blocks.
BLOCK_SPACE = ProductSpace((4,) * 6)
BLOCK_GRID = [0.005 * k for k in range(201)]
BLOCK_SYSTEM = RateMap(
    5, ((LinkSet.from_indices([0], 5), 0.9), (LinkSet.from_indices([2, 3], 5), 0.5))
)


def test_row_blocks_cover_every_row_once_in_bounded_blocks():
    for n_rows, row_cells in ((0, 5), (1, 1 << 20), (3, 1 << 20), (101, 4096), (7, 1)):
        blocks = list(row_blocks(n_rows, row_cells))
        assert [k for rows in blocks for k in range(n_rows)[rows]] == list(range(n_rows))
        for rows in blocks:
            assert rows.stop - rows.start == 1 or (rows.stop - rows.start) * row_cells <= ROW_BLOCK_CELLS
    assert len(list(row_blocks(len(BLOCK_GRID), BLOCK_SPACE.total_states))) == 13


def test_product_flow_grid_in_row_blocks_has_the_row_at_a_time_bytes():
    omega = random_probability(BLOCK_SPACE, 25)
    stack = product_flow_grid(omega, BLOCK_SYSTEM, BLOCK_GRID)
    rows = np.array([product_flow_grid(omega, BLOCK_SYSTEM, [t])[0] for t in BLOCK_GRID])
    assert stack.tobytes() == rows.tobytes()


def assert_blocks_make_up(blocks, stack):
    """The (rows, block) pairs, each copied as it comes, are the row blocks
    of ``stack`` byte for byte; every block is read-only, and all share one
    buffer."""
    seen = []
    for rows, block in blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
        if seen:
            assert np.shares_memory(block, seen[0][2])
        seen.append((rows, block.copy(), block))
    assert [rows for rows, _, _ in seen] == list(row_blocks(*stack.shape))
    assert np.concatenate([copy for _, copy, _ in seen]).tobytes() == stack.tobytes()


@pytest.mark.parametrize("times", [BLOCK_GRID[:40], [0.0]], ids=["three-blocks", "one-row"])
def test_product_flow_blocks_are_the_grid_stack(times):
    # 40 rows of 16-row blocks: 16, 16 and 8; and the one-row grid of t_end 0.
    omega = random_probability(BLOCK_SPACE, 27)
    blocks = product_flow_blocks(omega, BLOCK_SYSTEM, times)
    assert_blocks_make_up(blocks, product_flow_grid(omega, BLOCK_SYSTEM, times))
    assert "reused for the next one" in " ".join(product_flow_blocks.__doc__.split())


def test_product_flow_blocks_check_their_input_when_called():
    omega = random_probability(BLOCK_SPACE, 28)
    with pytest.raises(ValueError, match="nonnegative"):
        product_flow_blocks(omega, BLOCK_SYSTEM, [0.0, -1.0])
    with pytest.raises(ValueError, match="link count"):
        product_flow_blocks(omega, RateMap.crossover([1.0]), [0.0])


def test_product_flow_grid_holds_its_stack_and_one_row_block():
    # The stack, filled in place, and one block's recombination and blend:
    # 16 of the 201 rows.  Blending the whole stack at once held 3.1 stacks.
    omega = random_probability(BLOCK_SPACE, 26)
    tracemalloc.start()
    try:
        stack = product_flow_grid(omega, BLOCK_SYSTEM, BLOCK_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.shape == (201, 4096)
    assert peak <= 1.5 * stack.nbytes, (peak, stack.nbytes)


def test_moebius_rows_is_the_transform_of_each_row():
    # A moebius_sum over the recombination table of a stack transforms
    # every row as a moebius_sum of the one measure does.
    space = ProductSpace((2, 2, 3, 2))
    omega = random_probability(space, 23)
    states = product_flow_grid(omega, RateMap.crossover([0.7, 1.2, 0.5]), GRID)
    table = recombination_table(states, space)
    for links in all_link_sets(3):
        rows = moebius_sum(links, lambda upper: table[upper.bits])
        expected = [transform_of(Measure(space, w), links) for w in states]
        assert_rows_match(rows, expected, omega)


def linearization_per_time(omega0, rates, links, times):
    """The linearization defect as a loop over times of the one-row forms."""
    base = transform_of(omega0, links)
    worst = 0.0
    for t in times:
        state = crossover_at(omega0, rates, t)
        predicted = coefficients_at(rates, t)[1][links.bits] * base
        worst = max(worst, total_variation(transform_of(state, links) - predicted))
    return worst


def test_check_linearization_matches_its_per_time_loop():
    omega = random_probability(ProductSpace((2, 3, 2, 2)), 24)
    rates = [1.3, 0.6, 0.9]
    crossover = RateMap.crossover(rates)
    defects = check_linearization(omega, crossover, GRID)
    assert defects.shape == (8,)
    for links in all_link_sets(3):
        expected = linearization_per_time(omega, rates, links, GRID)
        assert abs(defects[links.bits] - expected) <= 1e-15
    assert check_linearization(omega, crossover, []).tolist() == [0.0] * 8
    with pytest.raises(ValueError):
        check_linearization(omega, crossover, [1.0, -1.0])


def test_trajectory_validation():
    omega = random_probability(SPACE, 1)
    with pytest.raises(ValueError):
        Trajectory(SPACE, (0.0, 0.0), np.array([omega.weights, omega.weights]))
    with pytest.raises(ValueError):
        Trajectory(SPACE, (0.5,), np.array([omega.weights]))


def test_trajectory_holds_one_read_only_stack():
    space = ProductSpace((2, 3))
    times = (0.0, 0.5, 1.0)
    stack = np.arange(18, dtype=np.float64).reshape(3, 6)
    traj = Trajectory(space, times, stack)
    assert traj.weights is stack and not stack.flags.writeable
    with pytest.raises(ValueError):
        traj.weights[0, 0] = 1.0
    assert len(traj.states) == 3
    for row, state in zip(stack, traj.states):
        assert state.space == space and state.nodes == (0, 1)
        np.testing.assert_array_equal(state.weights, row)
    for bad in (np.zeros(6), np.zeros((2, 6)), np.zeros((4, 6)), np.zeros((3, 5)),
                np.zeros((3, 7))):
        with pytest.raises(ValueError, match="stack"):
            Trajectory(space, times, bad)


def test_integrate_field_stores_each_state_once():
    # 4^6 states x 101 stored rows.  Each stored state is written once, into
    # its row of one stack, so the peak is that stack plus a few one-state
    # temporaries of the RK4 step.
    space = ProductSpace((4,) * 6)
    omega = random_probability(space, 3)
    rates = RateMap.crossover([0.7, 1.1, 0.4, 0.9, 1.3])
    tracemalloc.start()
    try:
        traj = rk4_integrate(omega, rates, t_end=1.0, h=1e-2, store_stride=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = 8 * len(traj) * space.total_states
    assert len(traj) == 101
    assert peak <= 1.25 * stored, (peak, stored)


def test_rk4_step_holds_no_early_stage_through_the_last():
    # 4^8 states, 4 stored rows: a 2 MB stack.  The step sums k1 to k3 before
    # the last stage, so that stage runs beside w, its input and the sum
    # alone; with k1 to k3 alive as well the peak was ~8.3 states over the
    # stack.
    space = ProductSpace((4,) * 8)
    omega = random_probability(space, 1)
    rates = RateMap(7, tuple(
        (LinkSet.from_indices(links, 7), rate) for links, rate in (([0], 0.8), ([2, 3], 0.5), ([6], 1.1))
    ))
    tracemalloc.start()
    try:
        traj = rk4_integrate(omega, rates, t_end=0.6, h=1e-2, store_stride=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 4
    state = 8 * space.total_states
    assert peak - traj.weights.nbytes <= 7.5 * state, (peak - traj.weights.nbytes) / state


def csv_text(traj):
    buf = io.BytesIO()
    trajectory_to_csv(buf, traj.times, [traj.weights], traj.space.total_states)
    return buf.getvalue()


def test_trajectory_csv_round_trip():
    omega = random_probability(SPACE, 1)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.3, h=0.1)
    text = csv_text(traj)
    lines = text.strip().split(b"\n")
    assert lines[0] == b"t," + b",".join(b"%d" % i for i in range(4))
    assert len(lines) == len(traj) + 1
    for line, (t, state) in zip(lines[1:], zip(traj.times, traj.states)):
        cells = [float(x) for x in line.split(b",")]
        assert cells[0] == t
        np.testing.assert_array_equal(np.array(cells[1:]), state.weights)


GOLDEN_WEIGHTS = (
    0.0, -0.0, 5e-324, 1e-300,
    1e-5, 9.9999999999999995e-05, 1e-4,  # the fixed/exponent switch of %g
    0.1, 1.0, 1e16, 1e17, -3.2e-17,
)


def test_trajectory_csv_golden_format():
    # Byte for byte what per-element f"{np.float64:.17g}" formatting writes.
    space = ProductSpace((2, 3, 2))
    base = np.array(GOLDEN_WEIGHTS)
    rows = [base, base[::-1], -base, np.roll(base, 5)]
    times = (0.0, 5e-324, 9.9999999999999995e-05, 1e17)
    traj = Trajectory(space, times, np.array(rows))

    expected = "t," + ",".join(str(i) for i in range(12)) + "\n"
    for t, w in zip(times, rows):
        expected += ",".join([f"{t:.17g}"] + [f"{x:.17g}" for x in np.asarray(w)]) + "\n"
    assert csv_text(traj) == expected.encode()
    first_row = expected.split("\n")[1].split(",")
    assert first_row[1:8] == ["0", "-0", "4.9406564584124654e-324", "1e-300",
                              "1.0000000000000001e-05", "9.9999999999999991e-05", "0.0001"]
    assert first_row[9:] == ["1", "10000000000000000", "1e+17", "-3.2000000000000002e-17"]


# Widths next to half a slice and a slice of cells: of 2,048 cells, the first
# slice width, and of the writers' own.
SLICE_EDGES = sorted({1023, 1024, 1025, writers._CHUNK_CELLS // 2, writers._CHUNK_CELLS // 2 + 1,
                      writers._CHUNK_CELLS, writers._CHUNK_CELLS + 1})


@pytest.mark.parametrize("sizes", [(n,) for n in SLICE_EDGES] + [(3,) * 7],
                         ids=[str(n) for n in SLICE_EDGES] + ["2187"])
def test_trajectory_csv_slices_join_into_whole_lines(sizes):
    # Lines narrower, as wide as and wider than one slice of cells are the
    # per-element formatting of the whole line, golden values included.
    space = ProductSpace(sizes)
    weights = np.resize(np.array(GOLDEN_WEIGHTS), space.total_states)
    rows = [weights, random_probability(space, 2).weights]
    traj = Trajectory(space, (0.0, 1e17), np.array(rows))
    expected = "t," + ",".join(str(i) for i in range(space.total_states)) + "\n"
    for t, w in zip(traj.times, rows):
        expected += ",".join([f"{t:.17g}"] + [f"{x:.17g}" for x in w]) + "\n"
    assert csv_text(traj) == expected.encode()


def test_trajectory_json_mirror():
    omega = random_probability(SPACE, 1)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.2, h=0.1)
    buf = io.BytesIO()
    trajectory_to_json(buf, traj.times, [traj.weights])
    round_tripped = json.loads(buf.getvalue())
    assert set(round_tripped) == {"times", "states"}
    assert round_tripped["times"] == list(traj.times)
    np.testing.assert_array_equal(round_tripped["states"][-1], traj.states[-1].weights)
