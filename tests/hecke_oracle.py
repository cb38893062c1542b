"""
Test oracle for the Hecke module: exact Laurent polynomials in the variable
v, with q = v**2, and the dense generator matrices built from a graph's
labels and weights over them.

Coefficients are arbitrary-precision Python integers; the zero polynomial
is the empty coefficient map, and no zero coefficient is ever stored.  A
polynomial is immutable: its coefficient map is read-only.

>>> str(Q + ONE)
'v^2 + 1'
>>> V * V == Q
True
>>> (Q + lp_monomial(-1, 0)) * (Q + ONE) == Q * Q + lp_monomial(-1, 0)
True

laurent_matrices reads only tau and the weights of a graph, never the
integer columns that the library's relation check evaluates, so a fault in
those columns shows as a disagreement with this oracle.
"""

from __future__ import annotations

from types import MappingProxyType

__all__ = ["LaurentPoly", "lp_monomial", "ZERO", "ONE", "V", "Q", "laurent_matrices"]


class LaurentPoly:
    """Sparse map from exponent of v to nonzero integer coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        # zeros are stripped here, into a fresh map that only a read-only view reaches
        kept = {e: c for e, c in coeffs.items() if c != 0} if coeffs else {}
        object.__setattr__(self, "coeffs", MappingProxyType(kept))

    def __setattr__(self, name, value):
        raise AttributeError(f"LaurentPoly is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"LaurentPoly is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (LaurentPoly, (dict(self.coeffs),))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                power = "v" if e == 1 else f"v^{e}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            terms.append((c < 0, body))
        first_neg, first_body = terms[0]
        text = ("-" if first_neg else "") + first_body
        for neg, body in terms[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.coeffs)!r})"


def lp_monomial(coeff: int, exp: int) -> LaurentPoly:
    """The monomial coeff * v**exp (zero coeff gives the zero polynomial)."""
    return LaurentPoly({exp: coeff})


ZERO = LaurentPoly()
ONE = lp_monomial(1, 0)
V = lp_monomial(1, 1)
Q = lp_monomial(1, 2)


def laurent_matrices(g) -> dict[int, list[list[LaurentPoly]]]:
    """
    Dense matrix of each generator i of the graph g, matrix[row][col] in the
    vertex basis: T_i e_u = q e_u when i is not in tau(u), and otherwise
    T_i e_u = -e_u + v * sum m(u > w) e_w over the edges u -> w with i not
    in tau(w).
    """
    count = len(g.vertices)
    matrices = {}
    for i in sorted(g.index_set):
        matrix = [[ZERO] * count for _ in range(count)]
        for u, t in enumerate(g.tau):
            matrix[u][u] = -ONE if i in t else Q
        for (u, w), m in g.weights.items():
            if i in g.tau[u] and i not in g.tau[w]:
                matrix[w][u] = lp_monomial(m, 1)
        matrices[i] = matrix
    return matrices
