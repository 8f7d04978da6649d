"""Exact Laurent polynomials over the integers, in one and two variables.

Coefficients are Python ints (arbitrary precision); the zero coefficient is
never stored, so equality is plain map equality.

>>> p = LaurentPoly({0: 1, 2: 1})
>>> p * p == LaurentPoly({0: 1, 2: 2, 4: 1})
True
>>> LaurentPoly.monomial(-1) * p
LaurentPoly({-1: 1, 1: 1})
"""

from __future__ import annotations

from fractions import Fraction


class LaurentPoly:
    """Univariate Laurent polynomial ``sum c_e q^e`` with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self._c = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def coefficient(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def items(self):
        return sorted(self._c.items())

    @property
    def is_zero(self) -> bool:
        return not self._c

    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._c)

    def max_exp(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._c)

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

    def sub_shifted(self, polys, e: int) -> "LaurentPoly":
        """``self - q^e * sum(polys)``, built in one dict with no temporary polynomials."""
        c = dict(self._c)
        for p in polys:
            for k, v in p._c.items():
                k += e
                nv = c.get(k, 0) - v
                if nv:
                    c[k] = nv
                else:
                    del c[k]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c  # canonical already: a coefficient that reaches zero is deleted above
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: v * other for e, v in self._c.items()})
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate at ``x`` (int or Fraction; exact)."""
        if self.is_zero:
            return 0 * x if isinstance(x, Fraction) else 0
        if not isinstance(x, Fraction) and self.min_exp() < 0:
            x = Fraction(x)
        return sum(v * x**e for e, v in self._c.items())

    def subs_power(self, m: int) -> "LaurentPoly":
        """Substitute ``q -> q^m`` (m >= 1)."""
        if m < 1:
            raise ValueError("power substitution needs m >= 1")
        return LaurentPoly({e * m: v for e, v in self._c.items()})

    def nonnegative(self) -> bool:
        return all(v > 0 for v in self._c.values())

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ``ArithmeticError`` on a nonzero remainder."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        qmin = self.min_exp() - other.min_exp()
        rem = dict(self._c)
        dmax = other.max_exp()
        dlead = other._c[dmax]
        quot: dict[int, int] = {}
        while rem:
            rmax = max(rem)
            v = rem[rmax]
            if v % dlead:
                raise ArithmeticError("exact division failed (leading coefficient)")
            e = rmax - dmax
            if e < qmin:  # quotient exponent below the possible range
                raise ArithmeticError("exact division failed (nonzero remainder)")
            t = v // dlead
            quot[e] = t
            for de, dv in other._c.items():
                k = e + de
                nv = rem.get(k, 0) - t * dv
                if nv:
                    rem[k] = nv
                else:
                    rem.pop(k, None)
        q = LaurentPoly(quot)
        if q * other != self:
            raise ArithmeticError("exact division failed (nonzero remainder)")
        return q

    def to_pairs(self) -> list[list]:
        """Serialization form: ``[exponent, coefficient-as-string]`` sorted by exponent."""
        return [[e, str(v)] for e, v in self.items()]

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        return cls({int(e): int(v) for e, v in pairs})

    def __repr__(self):
        return f"LaurentPoly({dict(self.items())})"

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for e, v in self.items():
            if e == 0:
                terms.append(f"{v}")
            else:
                coeff = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                power = "q" if e == 1 else f"q^{e}"
                terms.append(f"{coeff}{power}")
        return " + ".join(terms).replace("+ -", "- ")


class LaurentPoly2:
    """Bivariate Laurent polynomial ``sum c_{e,f} q^e t^f`` with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        self._c = {ef: c for ef, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, qexp: int, texp: int, coeff: int = 1) -> "LaurentPoly2":
        return cls({(qexp, texp): coeff})

    def coefficient(self, qexp: int, texp: int) -> int:
        return self._c.get((qexp, texp), 0)

    def items(self):
        return sorted(self._c.items())

    @property
    def is_zero(self) -> bool:
        return not self._c

    def total(self) -> int:
        """Sum of all coefficients (the value at q = t = 1)."""
        return sum(self._c.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly2) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        c = dict(self._c)
        for ef, v in other._c.items():
            c[ef] = c.get(ef, 0) + v
        return LaurentPoly2(c)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({ef: -v for ef, v in self._c.items()})

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly2({ef: v * other for ef, v in self._c.items()})
        c: dict[tuple[int, int], int] = {}
        for (e1, f1), v1 in self._c.items():
            for (e2, f2), v2 in other._c.items():
                ef = (e1 + e2, f1 + f2)
                c[ef] = c.get(ef, 0) + v1 * v2
        return LaurentPoly2(c)

    __rmul__ = __mul__

    def swapped(self) -> "LaurentPoly2":
        """Exchange the two variables."""
        return LaurentPoly2({(f, e): v for (e, f), v in self._c.items()})

    def map_exponents(self, fn) -> "LaurentPoly2":
        """Apply an injective exponent transform ``(e, f) -> (e', f')``."""
        c: dict[tuple[int, int], int] = {}
        for ef, v in self._c.items():
            ef2 = fn(*ef)
            if ef2 in c:
                raise ValueError("exponent transform is not injective")
            c[ef2] = v
        return LaurentPoly2(c)

    def nonnegative(self) -> bool:
        return all(v > 0 for v in self._c.values())

    def to_triples(self) -> list[list]:
        """Serialization form: ``[q-exp, t-exp, coefficient-as-string]`` sorted lexicographically."""
        return [[e, f, str(v)] for (e, f), v in self.items()]

    @classmethod
    def from_triples(cls, triples) -> "LaurentPoly2":
        return cls({(int(e), int(f)): int(v) for e, f, v in triples})

    def __repr__(self):
        return f"LaurentPoly2({dict(self.items())})"

    def __str__(self):
        if self.is_zero:
            return "0"

        def var(name, e):
            if e == 0:
                return ""
            return name if e == 1 else f"{name}^{e}"

        terms = []
        for (e, f), v in self.items():
            body = var("q", e) + var("t", f)
            if not body:
                terms.append(f"{v}")
            else:
                coeff = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                terms.append(f"{coeff}{body}")
        return " + ".join(terms).replace("+ -", "- ")
