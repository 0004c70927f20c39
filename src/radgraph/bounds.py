"""Closed-form radius bounds for connected graphs with degree and girth floors.

This module holds the closed forms and :func:`answer`, their one fold for
``bound`` and ``search stream``.  The bounds are exact rationals
(``fractions.Fraction``), so comparisons against measured integer radii
never suffer float rounding; the witness checks that stand behind them, and
their :class:`~radgraph.witness.BoundReport`, live in :mod:`radgraph.witness`.
"""

from __future__ import annotations

from fractions import Fraction


def exact_radius_formula_g4(n: int, delta: int) -> int | None:
    """Exact maximum radius of a connected triangle-free graph with minimum
    degree delta on n vertices, or None when no such graph exists (n < 2*delta).

    Piecewise: radius 2 on n in {2d, 2d+1}, radius 3 for 2d+2 <= n < 4d, and
    for n >= 4d the value is n/delta - 1 when delta is odd and n = k*delta
    with k odd, else floor(n/delta).
    """
    if delta < 2:
        raise ValueError(f"minimum degree must be >= 2, got {delta}")
    if n < 2 * delta:
        return None
    if n <= 2 * delta + 1:
        return 2
    if n < 4 * delta:
        return 3
    if delta % 2 and n % delta == 0 and (n // delta) % 2:
        return n // delta - 1
    return n // delta


def upper_bound_radius(n: int, delta: int, g: int) -> Fraction:
    """Universal radius upper bound n*k / (2*delta*(delta-1)^(k-2)) + 3*k
    for girth at least g = 2k (k >= 2).  Exact rational."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if delta < 2:
        raise ValueError(f"minimum degree must be >= 2, got {delta}")
    if g % 2:
        raise ValueError(f"bound applies to even girth only, got {g}")
    if g < 4:
        raise ValueError(f"girth must be at least 4, got {g}")
    k = g // 2
    return Fraction(n * k, 2 * delta * (delta - 1) ** (k - 2)) + 3 * k


def cage_lower_bound(n: int, delta: int, g: int) -> Fraction:
    """Lower bound on the maximum radius achievable at girth g in {6, 8, 12}
    when delta - 1 is a prime power (realised by glued incidence graphs):

      g = 6:   3n / (2 (d^2 - d + 1)) - 3
      g = 8:   2n / (d^3 - 2 d^2 + 2 d) - 4
      g = 12:  3n / (((d-1)^3 + 1) (d^2 - d + 1)) - 6
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if delta < 2:
        raise ValueError(f"minimum degree must be >= 2, got {delta}")
    d = delta
    if g == 6:
        return Fraction(3 * n, 2 * (d * d - d + 1)) - 3
    if g == 8:
        return Fraction(2 * n, d**3 - 2 * d * d + 2 * d) - 4
    if g == 12:
        return Fraction(3 * n, ((d - 1) ** 3 + 1) * (d * d - d + 1)) - 6
    raise ValueError(f"cage-based lower bounds exist for g in (6, 8, 12), got {g}")


def answer(n: int, delta: int, g: int) -> dict:
    """The bounds above folded for n vertices, minimum degree delta and girth
    >= g: ``{"exists": False}`` alone below the Moore bound (2T vertices
    around an edge at g = 2k, 1 + delta*T around a vertex at g = 2k + 1, with
    T the sum of (delta-1)^i over i < k); else ``exact`` at g = 4, ``upper``
    the least ``upper_bound_radius`` over the even 4 <= g' <= g, and
    ``cage_lower`` at g in (6, 8, 12).  Below delta = 2 no key applies."""
    if delta < 2:
        return {}
    k = g // 2
    if delta > 2 and k > n.bit_length():  # T >= 2^(k-1) >= 2^bit_length(n) > n
        return {"exists": False}
    t = k if delta == 2 else ((delta - 1) ** k - 1) // (delta - 2)
    if n < (1 + delta * t if g % 2 else 2 * t):
        return {"exists": False}
    out = {"exact": exact_radius_formula_g4(n, delta)} if g == 4 else {}
    top = 4 if delta == 2 else g  # at delta = 2, n*k/4 + 3k grows with k: g' = 4 gives the least
    if g >= 4:
        out["upper"] = min(upper_bound_radius(n, delta, ge) for ge in range(4, top + 1, 2))
    if g in (6, 8, 12):
        out["cage_lower"] = cage_lower_bound(n, delta, g)
    return out
