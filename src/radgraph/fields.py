"""GF(q) as integer tables for the prime powers backing the incidence geometries.

Elements are the integers 0..q-1; the base-p digits of x are the coefficients
of a polynomial over Z_p (digit i is the coefficient of x^i), multiplied modulo
a fixed monic reduction polynomial f.  The geometry builds read the addition,
negation, multiplication and inverse tables directly.

Integer tables; the inverse check proves the field: Z_p[x]/(f) is a finite
commutative ring for every p and monic f, and such a ring is a field exactly
when every non-zero element has an inverse.  The table build looks up every
inverse and fails otherwise, so a composite order or a reducible polynomial is
rejected without a separate primality or irreducibility test.
"""

from __future__ import annotations

#: Orders with either prime modular arithmetic or a fixed reduction polynomial.
SUPPORTED_ORDERS = frozenset({2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27})

# The characteristic p and a monic reduction polynomial over Z_p, constant
# coefficient first.
_REDUCTION = {
    4: (2, (1, 1, 1)),          # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),       # x^3 + x + 1
    9: (3, (1, 0, 1)),          # x^2 + 1
    16: (2, (1, 1, 0, 0, 1)),   # x^4 + x + 1
    25: (5, (2, 4, 1)),         # x^2 + 4x + 2
    27: (3, (1, 2, 0, 1)),      # x^3 + 2x + 1
}


def _poly_mod(a, b, p):
    """Low digits of the remainder of a by the monic polynomial b over Z_p."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        factor = a[i]
        if factor:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - factor * b[j]) % p
    return a[:db]


def _undigits(ds, p) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


class FiniteField:
    """GF(q) with total add/neg/mul/inverse tables; build via :func:`field_make`."""

    __slots__ = ("q", "p", "e", "reduction_polynomial", "_add", "_neg", "_mul", "_inv")

    def __init__(self, q: int):
        if q not in SUPPORTED_ORDERS:
            supported = ", ".join(str(v) for v in sorted(SUPPORTED_ORDERS))
            raise ValueError(f"unsupported field order {q}; supported: {supported}")
        p, poly = _REDUCTION.get(q, (q, (0, 1)))
        self.q = q
        self.p = p
        self.e = len(poly) - 1
        self.reduction_polynomial = poly
        self._build_tables()

    def _build_tables(self):
        q, p, e, poly = self.q, self.p, self.e, self.reduction_polynomial
        digits = [[x // p ** i % p for i in range(e)] for x in range(q)]
        self._add = [
            [_undigits([(a + b) % p for a, b in zip(dx, dy)], p) for dy in digits]
            for dx in digits
        ]
        self._neg = [_undigits([(-a) % p for a in dx], p) for dx in digits]
        mul = []
        for dx in digits:
            row = []
            for dy in digits:
                prod = [0] * (2 * e - 1)
                for i, a in enumerate(dx):
                    if a:
                        for j, b in enumerate(dy):
                            prod[i + j] = (prod[i + j] + a * b) % p
                row.append(_undigits(_poly_mod(prod, poly, p), p))
            mul.append(row)
        self._mul = mul
        inv = [0] * q
        for x in range(1, q):
            for y in range(1, q):
                if mul[x][y] == 1:
                    inv[x] = y
                    break
            else:
                raise ValueError(f"element {x} of GF({q}) has no inverse")
        self._inv = inv

    def __repr__(self):
        return f"GF({self.q})"


def field_make(q: int) -> FiniteField:
    """Construct GF(q) for a supported order; the inverse check proves it a field."""
    return FiniteField(q)
