"""Binomial subjective-logic opinions and fusion operators.

An opinion assigns belief, disbelief and uncertainty mass to a binary
proposition (here: "these two people are in a social situation"), with
``belief + disbelief + uncertainty = 1`` and a prior base rate. The
operators map to Dirichlet evidence counts with prior weight 2:
cumulative fusion adds independent evidence, averaging fusion averages
dependent evidence.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

PRIOR_WEIGHT = 2.0

SUM_TOL = 1e-9
BASE_RATE_TOL = 1e-9
# rounding slack of the averaging-fusion bound in ``may_pass``
FUSION_BOUND_TOL = 1e-9


class Opinion(NamedTuple):
    belief: float
    disbelief: float
    uncertainty: float
    base_rate: float = 0.5

    def is_valid(self, tol: float = SUM_TOL) -> bool:
        b, d, u, a = self
        if not all(-tol <= x <= 1.0 + tol for x in (b, d, u, a)):
            return False
        return abs(b + d + u - 1.0) <= tol


class EvidenceCounts(NamedTuple):
    """Dirichlet evidence view of an opinion: r positive and s negative
    observations under a fixed non-informative prior weight."""

    positive: float
    negative: float
    prior_weight: float = PRIOR_WEIGHT


def vacuous(base_rate: float = 0.5) -> Opinion:
    """The fully uncertain opinion; neutral element of cumulative fusion."""
    return Opinion(0.0, 0.0, 1.0, base_rate)


def expectation(op: Opinion) -> float:
    """Probability expectation ``belief + base_rate * uncertainty``."""
    return op.belief + op.base_rate * op.uncertainty


def to_evidence(op: Opinion, prior_weight: float = PRIOR_WEIGHT) -> EvidenceCounts:
    """Map an opinion with uncertainty > 0 to its evidence counts."""
    if op.uncertainty <= 0.0:
        raise ValueError("dogmatic opinion has no finite evidence representation")
    r = prior_weight * op.belief / op.uncertainty
    s = prior_weight * op.disbelief / op.uncertainty
    return EvidenceCounts(r, s, prior_weight)


def from_evidence(ev: EvidenceCounts, base_rate: float = 0.5) -> Opinion:
    denom = ev.positive + ev.negative + ev.prior_weight
    return Opinion(ev.positive / denom, ev.negative / denom, ev.prior_weight / denom, base_rate)


def _require_equal_base_rates(a: Opinion, b: Opinion) -> None:
    if abs(a.base_rate - b.base_rate) > BASE_RATE_TOL:
        raise ValueError(
            f"fusion requires equal base rates, got {a.base_rate!r} and {b.base_rate!r}"
        )


def fuse_cumulative(a: Opinion, b: Opinion) -> Opinion:
    """Cumulative fusion of two independent opinions.

    Equivalent to adding evidence counts. The vacuous opinion is neutral.
    Two dogmatic operands (both u = 0) degenerate to the equal-weight mean,
    the continuous limit of the formula.
    """
    _require_equal_base_rates(a, b)
    ua, ub = a.uncertainty, b.uncertainty
    if ua <= 0.0 and ub <= 0.0:
        return Opinion(
            0.5 * (a.belief + b.belief),
            0.5 * (a.disbelief + b.disbelief),
            0.0,
            a.base_rate,
        )
    kappa = ua + ub - ua * ub
    bel = (a.belief * ub + b.belief * ua) / kappa
    unc = ua * ub / kappa
    return Opinion(bel, 1.0 - bel - unc, unc, a.base_rate)


def fuse_averaging(a: Opinion, b: Opinion) -> Opinion:
    """Averaging fusion of two dependent opinions (idempotent, commutative)."""
    return fuse_averaging_multi((a, b))


def fuse_averaging_multi(ops: Iterable[Opinion]) -> Opinion:
    """N-ary averaging fusion: average the underlying evidence counts.

    Order-invariant; a singleton list returns its element. Opinions with
    lower uncertainty carry more weight (weight 1/u). If any operand is
    dogmatic, the result is the equal-weight mean of the dogmatic operands
    with u = 0, the continuous limit.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("cannot fuse an empty list of opinions")
    first = ops[0]
    for other in ops[1:]:
        _require_equal_base_rates(first, other)
    if len(ops) == 1:
        return first
    dogmatic = [op for op in ops if op.uncertainty <= 0.0]
    if dogmatic:
        n = len(dogmatic)
        bel = math.fsum(op.belief for op in dogmatic) / n
        dis = math.fsum(op.disbelief for op in dogmatic) / n
        return Opinion(bel, dis, 0.0, first.base_rate)
    wsum = math.fsum(1.0 / op.uncertainty for op in ops)
    bel = math.fsum(op.belief / op.uncertainty for op in ops) / wsum
    unc = len(ops) / wsum
    return Opinion(bel, 1.0 - bel - unc, unc, first.base_rate)


def floor_uncertainty(op: Opinion, u_min: float) -> Opinion:
    """Raise uncertainty to at least ``u_min``, rescaling belief and
    disbelief proportionally. Opinions at or above the floor pass through
    unchanged."""
    if op.uncertainty >= u_min:
        return op
    mass = op.belief + op.disbelief
    scale = (1.0 - u_min) / mass if mass > 0.0 else 0.0
    return Opinion(op.belief * scale, op.disbelief * scale, u_min, op.base_rate)


def decide(op: Opinion, threshold: float) -> bool:
    """Discretize an opinion: true iff its expectation reaches the
    threshold (inclusive boundary)."""
    return expectation(op) >= threshold


def may_pass(op: Opinion, threshold: float, u_min: float) -> bool:
    """Whether ``op``, floored at ``u_min``, reaches ``threshold`` within
    rounding. Averaging fusion's expectation is the 1/u-weighted mean of its
    operands' (the plain mean of the dogmatic ones), so a fusion of floored
    opinions can pass ``decide`` only if one of its operands passes here."""
    return expectation(floor_uncertainty(op, u_min)) >= threshold - FUSION_BOUND_TOL


def format_opinion(op: Opinion) -> str:
    """Serialize as ``b,d,u,a`` at full round-trip precision."""
    return f"{op.belief!r},{op.disbelief!r},{op.uncertainty!r},{op.base_rate!r}"


def parse_opinion(text: str) -> Opinion:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected four opinion fields, got {text!r}")
    return Opinion(*(float(p) for p in parts))
