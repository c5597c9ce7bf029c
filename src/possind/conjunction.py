"""Conjunction families on [0, 1] and their residua.

Three families are supported: the minimum operator, Lukasiewicz-like
T-norms and product-like T-norms.  The latter two are parameterized by a
generator phi, a continuous strictly increasing bijection of [0, 1] with
phi(0) = 0 and phi(1) = 1:

    lukasiewicz: c(a, b) = phi_inv(max(0, phi(a) + phi(b) - 1))
    product:     c(a, b) = phi_inv(phi(a) * phi(b))  (= a * b for power generators)

The residuum of a conjunction is F(a, b) = sup{s in [0, 1] : c(s, a) <= b};
conditioning a joint distribution on a marginal goes through it.  All
operations accept scalars or numpy arrays; the public ones validate operand
ranges, the underscored kernels trust their callers.
Boundary identities (0 annihilates, 1 is neutral, F(0, b) = 1) are forced
exactly: the raw float formulas drift at the edges, e.g. (1 + a) - 1 != a
for most a, and downstream normalisation flags rely on exact 1s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange


def _check_unit(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise OutOfRange("operands must lie in [0, 1]")
    return arr


def _binary_op(a, b, fn):
    out = fn(_check_unit(a), _check_unit(b))
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Generator:
    """The bijection x -> x**power of [0, 1], with power > 0."""

    power: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.power) and self.power > 0):
            raise ValueError(f"generator power must be finite and positive, got {self.power}")

    def apply(self, x):
        return x if self.power == 1.0 else x**self.power

    def invert(self, y):
        return y if self.power == 1.0 else y ** (1.0 / self.power)


IDENTITY = Generator(1.0)


def generator_apply(g: Generator, x):
    """phi(x); validates x in [0, 1]."""
    out = g.apply(_check_unit(x))
    return float(out) if np.ndim(x) == 0 else out


def generator_invert(g: Generator, y):
    """phi_inv(y); validates y in [0, 1]."""
    out = g.invert(_check_unit(y))
    return float(out) if np.ndim(y) == 0 else out


class Conjunction:
    """Continuous, monotone binary operation on [0, 1] with residuum.

    The library calls `_conjoin` and `_residuum` directly on degrees it has
    already checked; `conjoin` and `residuum` check caller operands first.
    """

    def conjoin(self, a, b):
        return _binary_op(a, b, self._conjoin)

    def residuum(self, a, b):
        """sup{s : c(s, a) <= b}; the first argument is the conditioning side."""
        return _binary_op(a, b, self._residuum)

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


def _force_boundaries(out, aa, bb):
    out = np.where(aa == 1.0, bb, out)
    out = np.where(bb == 1.0, aa, out)
    out = np.where((aa == 0.0) | (bb == 0.0), 0.0, out)
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class LukasiewiczLike(Conjunction):
    """Lukasiewicz-like T-norm with generator phi."""

    generator: Generator = field(default=IDENTITY)

    def _conjoin(self, aa, bb):
        g = self.generator
        out = g.invert(np.maximum(0.0, g.apply(aa) + g.apply(bb) - 1.0))
        return _force_boundaries(out, aa, bb)

    def _residuum(self, aa, bb):
        g = self.generator
        inner = np.minimum(1.0, 1.0 - g.apply(aa) + g.apply(bb))
        # b >= a already means the sup is the whole interval
        out = np.where(bb >= aa, 1.0, g.invert(np.maximum(0.0, inner)))
        return np.clip(out, 0.0, 1.0)

    def spec_string(self) -> str:
        p = self.generator.power
        return "luka" if p == 1.0 else f"luka:pow={p:g}"


@dataclass(frozen=True)
class ProductLike(Conjunction):
    """Product-like T-norm with generator phi."""

    generator: Generator = field(default=IDENTITY)

    # For power generators phi_inv(phi(a) * phi(b)) = a * b and
    # phi_inv(phi(b) / phi(a)) = b / a, so neither goes through phi, which
    # underflows at tiny degrees (phi(1e-200) = 0 under power 2).

    def _conjoin(self, aa, bb):
        return _force_boundaries(aa * bb, aa, bb)

    def _residuum(self, aa, bb):
        # the divisor is used only where a > b
        ratio = bb / np.where(aa > bb, aa, 1.0)
        return np.clip(np.where(bb >= aa, 1.0, ratio), 0.0, 1.0)

    def spec_string(self) -> str:
        p = self.generator.power
        return "prod" if p == 1.0 else f"prod:pow={p:g}"


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
    if steps < 1:
        raise ValueError("steps must be >= 1")
    af = float(_check_unit(a))
    bf = float(_check_unit(b))
    s = np.linspace(0.0, 1.0, int(steps) + 1)
    ok = conj.conjoin(s, af) <= bf * (1.0 + 1e-12)
    return float(s[ok].max())


def parse_conjunction(text: str) -> Conjunction:
    """Parse a conjunction spec string: min | luka[:pow=p] | prod[:pow=p]."""
    head, _, tail = text.strip().partition(":")
    gen = IDENTITY
    if tail:
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
