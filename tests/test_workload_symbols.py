"""Tests for the symbol universe."""

import numpy as np
import pytest

from repro.workload.symbols import Symbol, SymbolUniverse, make_universe


def test_deterministic_given_seed():
    a = make_universe(50, seed=3)
    b = make_universe(50, seed=3)
    assert a.names == b.names
    assert [s.base_price for s in a.symbols] == [s.base_price for s in b.symbols]


def test_unique_ticker_names():
    universe = make_universe(800, seed=1)
    assert len(set(universe.names)) == 800


def test_zipf_activity_skew():
    """The top name dominates, as Figure 2(b)'s single stock does."""
    universe = make_universe(100, seed=2)
    weights = sorted((s.activity_weight for s in universe.symbols), reverse=True)
    assert weights[0] > 10 * weights[50]
    top = universe.most_active(1)[0]
    assert top.activity_weight == max(weights)


def test_weighted_sampling_prefers_active_names():
    universe = make_universe(50, seed=4)
    rng = np.random.default_rng(0)
    draws = universe.sample(rng, 5_000)
    top_name = universe.most_active(1)[0].name
    top_share = sum(1 for s in draws if s.name == top_name) / len(draws)
    assert top_share > 0.1  # far above the uniform 2%


def test_instrument_type_mix():
    universe = make_universe(400, seed=5, etf_fraction=0.25)
    etfs = sum(1 for s in universe.symbols if s.instrument_type == "etf")
    assert 0.15 < etfs / 400 < 0.35
    assert universe.instrument_type_of(universe.names[0]) in (
        "equity", "etf", "option",
    )


def test_prices_cent_aligned_and_in_range():
    universe = make_universe(200, seed=6)
    for symbol in universe.symbols:
        assert symbol.base_price % 100 == 0  # PITCH short-price safe
        assert 5 * 10_000 <= symbol.base_price <= 500 * 10_000


def test_lookup_and_containment():
    universe = make_universe(10, seed=7)
    name = universe.names[3]
    assert name in universe
    assert universe[name].name == name
    assert "NOPE" not in universe
    assert len(universe) == 10


def test_validation():
    with pytest.raises(ValueError):
        make_universe(0)
    with pytest.raises(ValueError):
        make_universe(5, etf_fraction=0.7, option_fraction=0.5)
    with pytest.raises(ValueError):
        SymbolUniverse([])
    duplicate = Symbol("AA", "equity", 100, 1.0)
    with pytest.raises(ValueError):
        SymbolUniverse([duplicate, duplicate])
    with pytest.raises(ValueError):
        Symbol("AA", "bond", 100, 1.0)
    with pytest.raises(ValueError):
        Symbol("AA", "equity", 0, 1.0)


@pytest.mark.parametrize("zipf_exponent", [1.1, 0.6])
@pytest.mark.parametrize("n_symbols", [1, 12, 8192])
@pytest.mark.parametrize("n", [1, 7])
def test_sample_matches_generator_choice_on_the_same_stream(
    n_symbols, zipf_exponent, n
):
    """``sample`` is ``Generator.choice(p=...)`` draw for draw, state for state."""
    universe = make_universe(n_symbols, seed=8, zipf_exponent=zipf_exponent)
    rng = np.random.default_rng(11)
    twin = np.random.default_rng(11)
    for _ in range(200):
        expected = [
            universe.symbols[i]
            for i in twin.choice(len(universe), size=n, p=universe._probs)
        ]
        assert universe.sample(rng, n) == expected
    assert rng.bit_generator.state == twin.bit_generator.state
