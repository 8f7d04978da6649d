"""Exact sparse Laurent polynomials over the integers, in one or several variables.

Coefficients are Python ints (arbitrary precision); the zero coefficient is
never stored, so equality is plain map equality.  An exponent is an int for
one variable, q, or a tuple for several, (q, t, ...).

It is the (q,t) type of ``cat_qt`` and the permutation distributions, and the type that
``cat_q`` and ``q_binomial`` return; inside the package, cat_q and the q-binomials stay
dense coefficient lists (:mod:`corelattice.qpoly`).

>>> p = LaurentPoly({0: 1, 2: 1})
>>> p * p == LaurentPoly({0: 1, 2: 2, 4: 1})
True
>>> LaurentPoly.monomial(-1) * p
LaurentPoly({-1: 1, 1: 1})
>>> q, t = LaurentPoly.monomial((1, 0)), LaurentPoly.monomial((0, 1))
>>> print(q * q + q * t + t * t)
t^2 + qt + q^2
>>> (q * t - t).swapped() == q * t - q
True
"""

from __future__ import annotations

from operator import add


class Exponents(tuple):
    """An exponent vector (q, t, ...) whose ``+`` adds coordinatewise."""

    __slots__ = ()

    def __add__(self, other) -> "Exponents":
        return Exponents(map(add, self, other))


class LaurentPoly:
    """Laurent polynomial ``sum c_e q^e`` (or ``sum c_e q^e_0 t^e_1 ...``) with integer coefficients.

    A tuple exponent is stored as an :class:`Exponents`, so products add
    exponents with one ``+`` in either case.  Evaluation is a one-variable
    operation; :meth:`swapped` exchanges the two variables of a (q, t)
    polynomial.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict | None = None):
        c = {e: v for e, v in (coeffs or {}).items() if v}
        if c and isinstance(next(iter(c)), tuple):
            c = {Exponents(e): v for e, v in c.items()}
        self._c = c

    @classmethod
    def monomial(cls, exp, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def items(self):
        return sorted(self._c.items())

    @property
    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return LaurentPoly(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: v * other for e, v in self._c.items()})
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at ``x`` (int or Fraction; exact)."""
        from fractions import Fraction  # only evaluation needs it; no command evaluates a polynomial

        if self.is_zero:
            return 0 * x if isinstance(x, Fraction) else 0
        if not isinstance(x, Fraction) and min(self._c) < 0:
            x = Fraction(x)
        return sum(v * x**e for e, v in self._c.items())

    def total(self) -> int:
        """Sum of all coefficients (the value at q = t = 1)."""
        return sum(self._c.values())

    def swapped(self) -> "LaurentPoly":
        """Exchange q and t."""
        return LaurentPoly({(f, e): v for (e, f), v in self._c.items()})

    def map_exponents(self, fn) -> "LaurentPoly":
        """Apply an injective exponent transform ``e -> fn(e)``."""
        c = {}
        for e, v in self._c.items():
            e2 = fn(e)
            if e2 in c:
                raise ValueError("exponent transform is not injective")
            c[e2] = v
        return LaurentPoly(c)

    def to_rows(self) -> list[list]:
        """Serialization form: ``[exponent(s)..., coefficient-as-string]`` sorted by exponent."""
        return [[e, str(v)] if isinstance(e, int) else [*e, str(v)] for e, v in self.items()]

    def __repr__(self):
        return f"LaurentPoly({dict(self.items())})"

    def __str__(self):
        if self.is_zero:
            return "0"

        def power(name, e):
            if e == 0:
                return ""
            return name if e == 1 else f"{name}^{e}"

        terms = []
        for e, v in self.items():
            exps = (e,) if isinstance(e, int) else e
            body = "".join(power(*ne) for ne in zip("qt"[: len(exps)], exps, strict=True))
            if not body:
                terms.append(f"{v}")
            else:
                coeff = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                terms.append(f"{coeff}{body}")
        return " + ".join(terms).replace("+ -", "- ")
