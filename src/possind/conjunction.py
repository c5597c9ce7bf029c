"""Conjunction families on [0, 1] and their residua.

Three families are supported: the minimum operator, Lukasiewicz-like
T-norms and product-like T-norms.  The latter two are parameterized by a
generator phi, a continuous strictly increasing bijection of [0, 1] with
phi(0) = 0 and phi(1) = 1:

    lukasiewicz: c(a, b) = phi_inv(max(0, phi(a) + phi(b) - 1))
    product:     c(a, b) = phi_inv(phi(a) * phi(b))  (= a * b for power generators)

The residuum of a conjunction is F(a, b) = sup{s in [0, 1] : c(s, a) <= b};
conditioning a joint distribution on a marginal goes through it.  All
operations accept scalars or numpy arrays; the public ones range-check
their operands, the underscored kernels trust their callers and compute
only their formulas, whose results then lie in [0, 1].  The formulas give
0 annihilating (phi(0) = 0, 0 * b = 0) and F(0, b) = 1 (b >= 0 selects 1)
exactly, and 1 neutral under min and product.  Lukasiewicz-like ones force
it, since (1 + b) - 1 != b, and normalisation flags rely on exact 1s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import check_count, check_degrees

#: Generators refuse powers below this: Lukasiewicz-like formulas lose about
#: 2e-16 / power of absolute accuracy, and at 1e-15 exceed min(a, b).
MIN_POWER = 1e-6


def _operand(x) -> np.ndarray:
    return check_degrees(np.asarray(x, dtype=float), "operands")


def _public(fn, *operands):
    """fn on the range-checked operands; a float when every operand is a scalar."""
    out = fn(*map(_operand, operands))
    return float(out) if all(np.ndim(x) == 0 for x in operands) else out


@dataclass(frozen=True)
class Generator:
    """The bijection x -> x**power of [0, 1], with power >= MIN_POWER."""

    power: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.power) and self.power >= MIN_POWER):
            raise ValueError(f"generator power must be finite and at least {MIN_POWER:g}, "
                             f"got {self.power}")

    def apply(self, x):
        return x if self.power == 1.0 else x**self.power

    def invert(self, y):
        return y if self.power == 1.0 else y ** (1.0 / self.power)


def _spec_string(family: str, g: Generator) -> str:
    """`family`, with `:pow=p` unless the power is 1; p parses back to the power."""
    short = f"{g.power:g}"
    p = short if float(short) == g.power else repr(float(g.power))
    return family if g.power == 1.0 else f"{family}:pow={p}"


IDENTITY = Generator(1.0)


def generator_apply(g: Generator, x):
    """phi(x); validates x in [0, 1]."""
    return _public(g.apply, x)


def generator_invert(g: Generator, y):
    """phi_inv(y); validates y in [0, 1]."""
    return _public(g.invert, y)


class Conjunction:
    """Continuous, monotone binary operation on [0, 1] with residuum.

    The library calls `_conjoin` and `_residuum` directly on degrees it has
    already checked; `conjoin` and `residuum` check caller operands first.
    """

    def conjoin(self, a, b):
        return _public(self._conjoin, a, b)

    def residuum(self, a, b):
        """sup{s : c(s, a) <= b}; the first argument is the conditioning side."""
        return _public(self._residuum, a, b)

    def _conjoin(self, aa, bb):  # pragma: no cover - abstract
        raise NotImplementedError

    def _residuum(self, aa, bb):  # pragma: no cover - abstract
        raise NotImplementedError

    def spec_string(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __str__(self) -> str:
        return self.spec_string()


@dataclass(frozen=True)
class Min(Conjunction):
    """The minimum operator."""

    def _conjoin(self, aa, bb):
        return np.minimum(aa, bb)

    def _residuum(self, aa, bb):
        return np.where(bb >= aa, 1.0, bb)

    def spec_string(self) -> str:
        return "min"


@dataclass(frozen=True)
class LukasiewiczLike(Conjunction):
    """Lukasiewicz-like T-norm with generator phi."""

    generator: Generator = field(default=IDENTITY)

    def _conjoin(self, aa, bb):
        g = self.generator
        out = g.invert(np.maximum(0.0, g.apply(aa) + g.apply(bb) - 1.0))
        # force 1 neutral: (1 + b) - 1 != b
        out = np.where(aa == 1.0, bb, out)
        return np.where(bb == 1.0, aa, out)

    def _residuum(self, aa, bb):
        g = self.generator
        # min keeps the masked branch finite: above 1, ** (1/p) overflows for tiny p
        inner = np.minimum(1.0, 1.0 - g.apply(aa) + g.apply(bb))
        # b >= a already means the sup is the whole interval
        return np.where(bb >= aa, 1.0, g.invert(np.maximum(0.0, inner)))

    def spec_string(self) -> str:
        return _spec_string("luka", self.generator)


@dataclass(frozen=True)
class ProductLike(Conjunction):
    """Product-like T-norm with generator phi.

    For power generators phi_inv(phi(a) * phi(b)) = a * b and
    phi_inv(phi(b) / phi(a)) = b / a, so neither goes through phi, which
    underflows at tiny degrees (phi(1e-200) = 0 under power 2), and
    `prod:pow=p` conjoins and conditions exactly like `prod`.  The power
    shows only in spec strings, equality and characterize_product_*,
    which compare phi-values against eps.
    """

    generator: Generator = field(default=IDENTITY)

    def _conjoin(self, aa, bb):
        return aa * bb

    def _residuum(self, aa, bb):
        # the divisor is used only where a > b
        ratio = bb / np.where(aa > bb, aa, 1.0)
        return np.where(bb >= aa, 1.0, ratio)

    def spec_string(self) -> str:
        return _spec_string("prod", self.generator)


def conjoin(conj: Conjunction, a, b):
    """c(a, b) for the given conjunction family."""
    return conj.conjoin(a, b)


def residuum(conj: Conjunction, a, b):
    """F(a, b) = sup{s : c(s, a) <= b} in closed form."""
    return conj.residuum(a, b)


def residuum_oracle(conj: Conjunction, a, b, steps: int = 10_000) -> float:
    """Brute-force residuum: largest grid point s = k/steps with c(s, a) <= b.

    The comparison carries a slack of 1e-12 relative to b, so boundary grid
    points are not excluded by float noise and tiny degrees are still
    resolved.  Converges to the closed form as steps grows.
    """
    steps = check_count(steps, "steps", 1)
    af, bf = float(_operand(a)), float(_operand(b))
    s = np.linspace(0.0, 1.0, steps + 1)
    ok = conj.conjoin(s, af) <= bf * (1.0 + 1e-12)
    return float(s[ok].max())


def parse_conjunction(text: str) -> Conjunction:
    """Parse a conjunction spec string: min | luka[:pow=p] | prod[:pow=p]."""
    head, sep, tail = text.strip().partition(":")
    gen = IDENTITY
    if sep:
        key, _, value = tail.partition("=")
        if key != "pow" or not value:
            raise ValueError(f"bad conjunction option {tail!r} (expected pow=<p>)")
        gen = Generator(float(value))
    if head == "min":
        if tail:
            raise ValueError("min takes no generator")
        return Min()
    if head == "luka":
        return LukasiewiczLike(gen)
    if head == "prod":
        return ProductLike(gen)
    raise ValueError(f"unknown conjunction {text!r} (expected min, luka or prod)")


def default_families() -> tuple[Conjunction, ...]:
    """The three families with identity generators."""
    return (Min(), LukasiewiczLike(), ProductLike())
