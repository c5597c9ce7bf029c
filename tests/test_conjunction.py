"""Generators, the three conjunction families and their residua."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from possind import (
    Generator,
    IDENTITY,
    LukasiewiczLike,
    Min,
    OutOfRange,
    ProductLike,
    generator_apply,
    generator_invert,
    parse_conjunction,
    residuum_oracle,
)

FAMILIES = (
    Min(),
    LukasiewiczLike(),
    ProductLike(),
    LukasiewiczLike(Generator(2.0)),
    ProductLike(Generator(2.0)),
)

GRID = [k / 10 for k in range(11)]


class TestGenerator:
    def test_identity_and_power_values(self):
        assert generator_apply(IDENTITY, 0.7) == 0.7
        assert generator_apply(Generator(2.0), 0.5) == 0.25
        assert generator_apply(Generator(2.0), 1.0) == 1.0
        assert generator_invert(Generator(2.0), 0.25) == 0.5
        assert generator_invert(IDENTITY, 0.3) == 0.3

    def test_power_half_inversion_squares(self):
        # invert is y ** (1/p); verified by applying the forward map
        inv = generator_invert(Generator(0.5), 0.09)
        assert inv == pytest.approx(0.0081, abs=1e-15)
        assert generator_apply(Generator(0.5), inv) == pytest.approx(0.09, abs=1e-12)

    @pytest.mark.parametrize("power", [0.5, 1.0, 2.0, 3.0])
    def test_roundtrip_on_dense_grid(self, power):
        g = Generator(power)
        xs = np.linspace(0.0, 1.0, 201)
        assert np.max(np.abs(g.invert(g.apply(xs)) - xs)) <= 1e-12

    @pytest.mark.parametrize("power", [0.5, 1.0, 2.0])
    def test_strictly_increasing_on_grid(self, power):
        g = Generator(power)
        ys = g.apply(np.linspace(0.0, 1.0, 101))
        assert np.all(np.diff(ys) > 0)

    def test_endpoints_are_fixed(self):
        for power in (0.25, 1.0, 4.0):
            assert generator_apply(Generator(power), 0.0) == 0.0
            assert generator_apply(Generator(power), 1.0) == 1.0

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            Generator(0.0)
        with pytest.raises(ValueError):
            Generator(-2.0)

    def test_range_validation(self):
        with pytest.raises(OutOfRange):
            generator_apply(IDENTITY, 1.2)
        with pytest.raises(OutOfRange):
            generator_invert(IDENTITY, -0.1)


class TestConjoin:
    def test_family_values(self):
        assert Min().conjoin(0.7, 0.4) == 0.4
        assert LukasiewiczLike().conjoin(0.7, 0.4) == pytest.approx(0.1, abs=1e-9)
        assert ProductLike().conjoin(0.5, 0.4) == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("conj", FAMILIES, ids=str)
    def test_boundary_laws_hold_exactly_on_grid(self, conj):
        for a in GRID:
            assert conj.conjoin(0.0, a) == 0.0
            assert conj.conjoin(a, 0.0) == 0.0
            assert conj.conjoin(1.0, a) == a
            assert conj.conjoin(a, 1.0) == a

    @pytest.mark.parametrize("conj", FAMILIES, ids=str)
    def test_commutative_and_monotone_on_grid(self, conj):
        for a in GRID:
            for b in GRID:
                assert conj.conjoin(a, b) == conj.conjoin(b, a)
                for b2 in GRID:
                    if b2 >= b:
                        assert conj.conjoin(a, b2) >= conj.conjoin(a, b) - 1e-12

    @pytest.mark.parametrize(
        "conj", [f for f in FAMILIES if not isinstance(f, Min)], ids=str
    )
    def test_associative_within_tolerance_on_grid(self, conj):
        coarse = [0.0, 0.2, 0.5, 0.7, 0.9, 1.0]
        for a in coarse:
            for b in coarse:
                for c in coarse:
                    left = conj.conjoin(conj.conjoin(a, b), c)
                    right = conj.conjoin(a, conj.conjoin(b, c))
                    assert left == pytest.approx(right, abs=1e-9)

    def test_vectorized_input(self):
        out = Min().conjoin(np.array([0.2, 0.9]), np.array([0.5, 0.3]))
        assert np.array_equal(out, [0.2, 0.3])

    def test_range_validation(self):
        with pytest.raises(OutOfRange):
            Min().conjoin(1.1, 0.5)

    @pytest.mark.parametrize("power", [0.5, 1.0, 2.0, 3.0])
    def test_product_conjoin_survives_underflow(self, power):
        # phi(1e-200) ** 2 underflows to 0; phi_inv(phi(a) * phi(b)) is a * b
        got = ProductLike(Generator(power)).conjoin(0.5, 1e-200)
        assert got == pytest.approx(5e-201, rel=1e-12, abs=0)


class TestResiduum:
    def test_zero_conditioner_always_gives_one(self):
        for conj in FAMILIES:
            assert conj.residuum(0.0, 0.3) == 1.0

    def test_min_closed_form(self):
        assert Min().residuum(0.9, 0.6) == 0.6
        assert Min().residuum(0.6, 0.9) == 1.0

    def test_luka_closed_form_matches_bruteforce(self):
        closed = LukasiewiczLike().residuum(0.9, 0.6)
        assert closed == pytest.approx(0.7, abs=1e-9)
        oracle = residuum_oracle(LukasiewiczLike(), 0.9, 0.6, steps=1000)
        assert closed == pytest.approx(oracle, abs=2e-3)

    def test_prod_closed_form_matches_bruteforce(self):
        closed = ProductLike().residuum(0.5, 0.2)
        assert closed == pytest.approx(0.4, abs=1e-12)
        oracle = residuum_oracle(ProductLike(), 0.5, 0.2, steps=1000)
        assert closed == pytest.approx(oracle, abs=2e-3)

    @pytest.mark.parametrize("conj", FAMILIES, ids=str)
    def test_adjunction_on_grid(self, conj):
        # conjoin(s, a) <= b exactly when s is below the residuum
        for a in GRID:
            for b in GRID:
                r = conj.residuum(a, b)
                for s in GRID:
                    assert (conj.conjoin(s, a) <= b + 1e-12) == (s <= r + 1e-9)

    @pytest.mark.parametrize("conj", FAMILIES, ids=str)
    def test_closed_form_tracks_oracle_on_coarse_grid(self, conj):
        points = [k / 20 for k in range(21)]
        for a in points:
            for b in points:
                closed = conj.residuum(a, b)
                assert closed == pytest.approx(
                    residuum_oracle(conj, a, b, steps=2000), abs=1e-3
                )

    def test_results_stay_in_unit_interval(self):
        for conj in FAMILIES:
            for a in GRID:
                for b in GRID:
                    assert 0.0 <= conj.residuum(a, b) <= 1.0


    @pytest.mark.parametrize("conj", FAMILIES, ids=str)
    def test_operands_broadcast_against_each_other(self, conj):
        a = np.array([[0.5], [0.2]])
        b = np.array([[0.1, 0.3]])
        got = conj.residuum(a, b)
        assert got.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                oracle = residuum_oracle(conj, a[i, 0], b[0, j])
                assert got[i, j] == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("power", [0.5, 1.0, 2.0, 3.0])
    def test_product_residuum_survives_underflow(self, power):
        # phi(1e-200) ** 2 underflows to 0; the residuum of the product
        # family depends only on b / a, so it equals the oracle at (0.5, 0.05)
        conj = ProductLike(Generator(power))
        got = conj.residuum(1e-200, 1e-201)
        assert got == pytest.approx(0.1, abs=1e-12)
        assert got == pytest.approx(residuum_oracle(conj, 0.5, 0.05), abs=1e-4)


class TestResiduumOracle:
    def test_saturating_cases(self):
        for conj in FAMILIES:
            assert residuum_oracle(conj, 0.4, 1.0, steps=17) == 1.0

    @pytest.mark.parametrize(
        "conj,a,b",
        [
            (Min(), 1e-200, 3e-201),
            (ProductLike(), 1e-200, 1e-201),
            (ProductLike(Generator(2.0)), 1e-100, 1e-101),
            (ProductLike(Generator(2.0)), 1e-200, 1e-201),
        ],
        ids=str,
    )
    def test_tiny_degrees(self, conj, a, b):
        # a slack of 1e-12 absolute would admit every grid point and give 1.0
        assert residuum_oracle(conj, a, b) == pytest.approx(conj.residuum(a, b), abs=1e-4)

    def test_product_under_a_power_generator_resolves_1e_200(self):
        assert residuum_oracle(ProductLike(Generator(2.0)), 1e-200, 1e-201) == 0.1

    def test_min_scan(self):
        assert residuum_oracle(Min(), 0.9, 0.6, steps=1000) == pytest.approx(0.6, abs=1e-9)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            residuum_oracle(Min(), 0.5, 0.5, steps=0)


#: Degrees on a 1/1000 grid, or tiny: m * 10**-e down to 1e-300.
degrees = st.one_of(
    st.integers(0, 1000).map(lambda k: k / 1000),
    st.builds(lambda m, e: m * 10.0**-e, st.integers(1, 9), st.integers(1, 300)),
)


@st.composite
def conjunctions(draw):
    """One of the five built-in families, the generator's power drawn from
    0.05 to 20 for the Lukasiewicz-like and product-like ones."""
    family = draw(st.sampled_from(("min", "luka", "prod", "luka:pow", "prod:pow")))
    if family == "min":
        return Min()
    power = draw(st.floats(0.05, 20.0)) if family.endswith(":pow") else 1.0
    kind = LukasiewiczLike if family.startswith("luka") else ProductLike
    return kind(Generator(power))


def phi_resolution(conj, x):
    """How far a conjoined degree near x may exceed x by rounding alone: 0
    for min and product-like families, whose results carry relative
    rounding only.  The Lukasiewicz-like family adds phi-values to 1, so
    its results are exact only to an absolute error in phi-space, of about
    (power + 2) ulps of 1: the residuum's phi-value is a power of a rounded
    number.  Under the identity generator that is about 7e-16, a relative
    7e-6 at x = 1e-10."""
    if not isinstance(conj, LukasiewiczLike):
        return 0.0
    g = conj.generator
    return g.invert(min(1.0, g.apply(x) + (g.power + 2) * 2.0**-52)) - x


class TestExtremePowersAndTinyDegrees:
    @settings(max_examples=300, deadline=None)
    @given(conj=conjunctions(), a=degrees, b=degrees)
    def test_closed_form_agrees_with_the_oracle(self, conj, a, b):
        # the oracle admits c(s, a) <= b * (1 + 1e-12), so a within that
        # slack above b reads as b >= a
        assume(not b < a <= b * (1 + 1e-12))
        steps = 10_000
        closed = conj.residuum(a, b)
        assert abs(closed - residuum_oracle(conj, a, b, steps)) <= 1 / steps + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(conj=conjunctions(), a=degrees, b=degrees)
    def test_conjoining_the_residuum_stays_below_b(self, conj, a, b):
        got = conj.conjoin(conj.residuum(a, b), a)
        assert got <= b * (1 + 1e-12) + phi_resolution(conj, b)


class TestParse:
    @pytest.mark.parametrize(
        "text,family,power",
        [
            ("min", Min, None),
            ("luka", LukasiewiczLike, 1.0),
            ("luka:pow=2", LukasiewiczLike, 2.0),
            ("prod", ProductLike, 1.0),
            ("prod:pow=0.5", ProductLike, 0.5),
        ],
    )
    def test_roundtrip(self, text, family, power):
        conj = parse_conjunction(text)
        assert isinstance(conj, family)
        if power is not None:
            assert conj.generator.power == power
        assert parse_conjunction(conj.spec_string()) == conj

    @pytest.mark.parametrize(
        "text", ["frank", "min:pow=2", "luka:pow=", "luka:gen=2", "prod:pow=abc"]
    )
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            parse_conjunction(text)
