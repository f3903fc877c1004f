"""Property: any scenario document runs or fails with a documented exit code.

Documents are drawn near the schema: every field is either a plausible value
or junk, so most reach validation or a solver.  Files far from it (raw bytes,
deeply nested arrays and objects) must fail with a one-line message.  Sizes and grids stay small
whenever a document can pass validation; the caps are exercised only with
values that validation rejects before anything is allocated.
"""

import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recombdyn.cli import EXIT_NUMERIC, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main

JUNK = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "a", "2"]), st.just([]), st.just({}),
    st.floats(allow_nan=False, allow_infinity=False),
)


def mostly(good, bad, odds=7):
    # The good value ``odds`` times out of ``odds + 1``.
    return st.sampled_from([good] * odds + [bad]).flatmap(lambda chosen: chosen)


def maybe(strategy):
    return mostly(strategy, JUNK, odds=15)


NUMBER = mostly(
    st.one_of(st.floats(0.0, 3.0), st.integers(0, 3)),
    st.sampled_from([-1.0, -1, 1e-300, 5e-324, 1e300, -1e300, 1.7e308]),
)
INDEX = mostly(st.integers(0, 3), st.sampled_from([-1, 4, 5]))
LINKS = st.lists(INDEX, min_size=1, max_size=3)


@functools.lru_cache(maxsize=None)
def rates(n_links, block0_states):
    # Entry lists are mostly singletons on distinct links at positive rates:
    # stretch-disjoint systems, so they reach the product flow.  Per-link
    # lists mostly have one rate per link.  Cyclic maps mostly cut at link 0
    # and permute node 0's states, so they can run.
    entry = st.fixed_dictionaries({"links": maybe(LINKS), "rate": maybe(NUMBER)})
    singleton = st.fixed_dictionaries({"links": st.tuples(st.integers(0, n_links - 1)).map(list),
                                       "rate": maybe(mostly(st.floats(0.01, 3.0), NUMBER))})
    return st.one_of(
        st.fixed_dictionaries({
            "kind": st.sampled_from(["general", "disjoint-stretch"]),
            "entries": maybe(mostly(
                st.lists(singleton, min_size=1, max_size=3, unique_by=lambda e: e["links"][0]),
                st.lists(maybe(entry), max_size=3),
                odds=3,
            )),
        }),
        st.fixed_dictionaries({
            "kind": st.just("crossover"),
            "per_link": maybe(mostly(st.lists(NUMBER, min_size=n_links, max_size=n_links),
                                     st.lists(maybe(NUMBER), max_size=4))),
        }),
        st.fixed_dictionaries({
            "kind": st.just("cyclic"),
            "links": maybe(mostly(st.just([0]), LINKS)),
            "permutation": maybe(mostly(st.permutations(range(block0_states)),
                                        st.lists(INDEX, max_size=4))),
            "rate": maybe(NUMBER),
        }),
    )


@functools.lru_cache(maxsize=None)
def initial(n_states):
    # Explicit weights mostly have the length of the space.
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("random"),
                               "seed": maybe(mostly(st.integers(0, 9),
                                                    st.sampled_from([-1, 2**70])))}),
        st.fixed_dictionaries({"kind": st.just("weights"),
                               "weights": maybe(mostly(
                                   st.lists(NUMBER, min_size=n_states, max_size=n_states),
                                   st.lists(maybe(NUMBER), max_size=3),
                               ))}),
    )


# Up to 3^4 states; the two large shapes exceed the state cap and must be
# rejected before any allocation.
SIZES = mostly(
    st.lists(st.integers(1, 3), min_size=2, max_size=4),
    st.sampled_from([[], [2], [0, 2], [-1, 2], [2] * 25, [1 << 13, 1 << 13]]),
)

# Accepted grids have at most 1 / 0.05 = 20 steps; 1e9 and 1e300 exceed the
# step cap for every accepted step size and fail validation.
TIME = st.fixed_dictionaries({
    "t_end": maybe(mostly(st.floats(0.0, 1.0), st.sampled_from([-1.0, 1e9, 1e300]))),
    "stride": maybe(mostly(st.integers(1, 4), st.sampled_from([0, -1, 10**6]))),
})
STEP = mostly(st.floats(0.05, 1.0), st.sampled_from([0.0, -0.1, 5e-324, 1e300]))
SOLVER = mostly(st.sampled_from(["closed-form", "rk4", "both"]), st.just("fast"))


@st.composite
def documents(draw):
    sizes = draw(maybe(SIZES))
    shaped = isinstance(sizes, list) and 2 <= len(sizes) <= 4 and 1 <= min(sizes) <= max(sizes) <= 3
    doc = {
        "sizes": sizes,
        "initial": draw(maybe(initial(math.prod(sizes) if shaped else 1))),
        "rates": draw(maybe(rates(len(sizes) - 1, sizes[0]) if shaped else rates(1, 2))),
        "time": draw(maybe(TIME)),
        "solver": draw(SOLVER),
    }
    if draw(st.booleans()):
        doc["rk4_step"] = draw(maybe(STEP))
    return draw(mostly(st.just(doc), JUNK, odds=15))


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), fmt=st.sampled_from(["csv", "json"]))
def test_any_scenario_document_gives_a_documented_exit_code(doc, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "s.json", Path(tmp) / f"out.{fmt}"
        config.write_text(json.dumps(doc))
        code = main(["run", "--config", str(config), "--out", str(out), "--format", fmt])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_NUMERIC)
        if code != EXIT_OK:
            return
        artifacts = [out] + list(Path(tmp).glob("*.report.json"))
        for path in artifacts:
            text = path.read_text()
            if fmt == "csv" and path == out:
                cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")]
                values = [float(cell) for cell in cells]
            else:
                values = list(_numbers(json.loads(text, parse_constant=float)))
            assert all(math.isfinite(v) for v in values), path.name


@st.composite
def nested(draw):
    # 1 to 100,000 levels of arrays and objects, a short pattern of the two
    # repeated from the outside in; the innermost level is empty.
    depth = draw(st.integers(1, 100_000))
    kinds = st.sampled_from([("[", "]"), ('{"sizes":', "}")])
    pattern = draw(st.lists(kinds, min_size=1, max_size=3))
    levels = [pattern[i % len(pattern)] for i in range(depth)]
    inner = "[]" if levels[-1][0] == "[" else "{}"
    opens = "".join(o for o, _ in levels[:-1])
    closes = "".join(c for _, c in reversed(levels[:-1]))
    return (opens + inner + closes).encode()


@settings(max_examples=50, deadline=None, database=None)
@given(data=st.one_of(st.binary(), nested()))
def test_any_scenario_file_fails_with_one_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "s.json"
        config.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config), "--out", str(Path(tmp) / "out.csv")])
        assert code in (EXIT_PARSE, EXIT_VALIDATION)
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
        assert "Traceback" not in err.getvalue()
