"""Property tests: every AnalysisSpec round-trips the tagged-JSON codec.

The analysis service's wire format *is* ``repro.api.serialize`` — a
spec that fails to round-trip cannot be submitted, fingerprinted, or
stored.  Hypothesis drives randomized instances of every spec type
(including Sweep-wrapped and Yield) through ``dumps``/``loads`` and
requires the decoded object to compare equal to the original — which,
specs being frozen dataclasses of plain data, is full field equality
re-validated by ``__post_init__``.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import (
    Characterize,
    CharacterizeLibrary,
    Execution,
    FactoryMap,
    ImportanceSampling,
    MonteCarlo,
    Sweep,
    Yield,
)
from repro.api.serialize import dumps, loads
from repro.stats import ParameterMetric
from repro.stats.pelgrom import PARAMETER_ORDER

SETTINGS = settings(max_examples=30, deadline=None)

finite = dict(allow_nan=False, allow_infinity=False)
geometry = st.floats(min_value=40.0, max_value=4000.0, **finite)
polarity = st.sampled_from(("nmos", "pmos"))
model = st.sampled_from(("vs", "bsim"))
parameter = st.sampled_from(PARAMETER_ORDER)
metric = parameter.map(ParameterMetric)
shifts = st.dictionaries(
    parameter, st.floats(min_value=-6.0, max_value=6.0, **finite),
    min_size=1, max_size=len(PARAMETER_ORDER),
).map(lambda d: tuple(d.items()))

execution = st.one_of(
    st.none(),
    st.builds(
        Execution,
        shard_size=st.one_of(st.none(), st.integers(1, 4096)),
        workers=st.integers(1, 8),
        target_rel_err=st.one_of(
            st.none(), st.floats(min_value=1e-3, max_value=1.0, **finite)
        ),
        min_samples=st.integers(0, 1000),
        max_samples=st.one_of(st.none(), st.integers(1, 100000)),
        wave_size=st.one_of(st.none(), st.integers(1, 64)),
        checkpoint=st.one_of(st.none(), st.just("/tmp/repro-ckpt/prefix")),
    ),
)

montecarlo = st.builds(
    MonteCarlo,
    n_samples=st.integers(1, 100000),
    polarity=polarity,
    model=model,
    w_nm=geometry,
    l_nm=geometry,
    seed_offset=st.integers(0, 64),
    execution=execution,
)

importance = st.builds(
    ImportanceSampling,
    metric=metric,
    threshold=st.floats(min_value=-2.0, max_value=2.0, **finite),
    shifts=shifts,
    n_samples=st.integers(1, 100000),
    polarity=polarity,
    w_nm=st.one_of(st.none(), geometry),
    l_nm=st.one_of(st.none(), geometry),
    fail_below=st.booleans(),
    seed_offset=st.integers(0, 64),
    execution=execution,
)

yield_spec = st.builds(
    Yield,
    metric=metric,
    threshold=st.floats(min_value=-2.0, max_value=2.0, **finite),
    shifts=shifts,
    n_samples=st.integers(1, 100000),
    n_rounds=st.integers(0, 6),
    n_per_round=st.integers(1, 4096),
    n_components=st.integers(1, 4),
    elite_fraction=st.floats(min_value=0.01, max_value=0.99, **finite),
    smoothing=st.floats(min_value=0.01, max_value=1.0,
                        exclude_min=False, **finite),
    block_size=st.integers(1, 1024),
    polarity=polarity,
    fail_below=st.booleans(),
    seed_offset=st.integers(0, 64),
    execution=execution,
)

# FactoryMap's work callable must be codec-expressible for service use;
# a frozen-dataclass callable is the canonical picklable form (the
# round trip exercises serialization, not execution).
factory_map = st.builds(
    FactoryMap,
    work=metric,
    n_samples=st.integers(1, 100000),
    model=model,
    seed_offset=st.integers(0, 64),
    execution=execution,
)

grid_axis = st.one_of(
    st.none(),
    st.lists(
        st.floats(min_value=1e-3, max_value=10.0, **finite),
        min_size=1, max_size=3, unique=True,
    ).map(lambda vals: tuple(sorted(vals))),
)

# A characterization grid has no stopping rule (no error target or cap).
grid_execution = st.one_of(
    st.none(),
    st.builds(
        Execution,
        shard_size=st.one_of(st.none(), st.integers(1, 4096)),
        workers=st.integers(1, 8),
        min_samples=st.integers(0, 1000),
        wave_size=st.one_of(st.none(), st.integers(1, 64)),
        checkpoint=st.one_of(st.none(), st.just("/tmp/repro-ckpt/prefix")),
    ),
)

characterize = st.builds(
    Characterize,
    cell=st.sampled_from(("inv", "nand2", "dff")),
    vdd=st.floats(min_value=0.4, max_value=1.2, **finite),
    slews=grid_axis,
    loads=grid_axis,
    n_mc=st.integers(0, 64),
    model=model,
    seed_offset=st.integers(0, 64),
    execution=grid_execution,
)

characterize_library = st.builds(
    CharacterizeLibrary,
    cells=st.lists(
        st.sampled_from(("inv", "nand2", "dff")),
        min_size=1, max_size=3, unique=True,
    ).map(tuple),
    vdd=st.floats(min_value=0.4, max_value=1.2, **finite),
    n_mc=st.integers(0, 64),
    seed_offset=st.integers(0, 64),
    execution=grid_execution,
)

# Sweep-level execution must not carry an adaptive error target.
sweep_execution = st.one_of(
    st.none(),
    st.builds(
        Execution,
        shard_size=st.one_of(st.none(), st.integers(1, 8)),
        workers=st.integers(1, 8),
        max_samples=st.one_of(st.none(), st.integers(1, 64)),
        checkpoint=st.one_of(st.none(), st.just("/tmp/repro-ckpt/sweep")),
    ),
)

axis_values = st.lists(geometry, min_size=1, max_size=3, unique=True).map(tuple)
sweep = st.builds(
    Sweep,
    spec=st.one_of(montecarlo, yield_spec),
    over=st.fixed_dictionaries({"w_nm": axis_values}),
    seed_mode=st.sampled_from(("spawn", "legacy")),
    execution=sweep_execution,
)


def _roundtrip(spec):
    decoded = loads(dumps(spec))
    assert type(decoded) is type(spec)
    assert decoded == spec


@SETTINGS
@given(montecarlo)
def test_montecarlo_roundtrip(spec):
    _roundtrip(spec)


@SETTINGS
@given(importance)
def test_importance_roundtrip(spec):
    _roundtrip(spec)


@SETTINGS
@given(yield_spec)
def test_yield_roundtrip(spec):
    _roundtrip(spec)


@SETTINGS
@given(factory_map)
def test_factory_map_roundtrip(spec):
    _roundtrip(spec)


@SETTINGS
@given(characterize)
def test_characterize_roundtrip(spec):
    _roundtrip(spec)


@SETTINGS
@given(characterize_library)
def test_characterize_library_roundtrip(spec):
    _roundtrip(spec)


@SETTINGS
@given(sweep)
def test_sweep_roundtrip(spec):
    _roundtrip(spec)


def test_decoded_document_revalidates():
    """Decoding rebuilds through constructors: a tampered document that
    violates spec invariants raises instead of producing a bad spec."""
    import json

    from repro.api.serialize import decode, encode

    raw = json.loads(json.dumps(encode(MonteCarlo(n_samples=100))))
    raw["fields"]["n_samples"] = -5
    with pytest.raises(ValueError):
        decode(raw)
