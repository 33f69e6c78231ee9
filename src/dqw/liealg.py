"""Finite-dimensional Lie algebra data and the Poisson structures they induce.

Structure constants are stored as the list of nonzero brackets
{(i, j): {k: c_k^{ij}}} for i < j, from [X^i, X^j] = sum_k c_k^{ij} X^k;
c_k^{ji} = -c_k^{ij} is implied, so antisymmetry holds by construction.  The
induced linear Poisson structure on the dual has matrix
alpha^{ij} = sum_k c_k^{ij} x_k.

`triangular_nilpotent` checks the increasing-orientation condition: every
bracket [X^i, X^j] lives in the span of basis vectors strictly beyond both i
and j (c_k^{ij} = 0 unless k > max(i, j)).  In such a basis every operator
ad_{X^i} is strictly triangular, so all traces of products of ad's vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import MAX_DIGITS, Polynomial, nonzero

__all__ = [
    "StructureConstants",
    "PoissonStructure",
    "LieAlgebraError",
    "MAX_DIM",
    "check_dim",
    "heisenberg",
    "solvable2",
    "strictly_upper",
    "moyal_trick",
    "symplectic_matrix",
    "builtin_algebra",
    "linear_poisson",
    "constant_poisson",
    "killing_matrix",
    "cyclic_product",
    "index_from_json",
    "rational_from_json",
    "structure_from_json",
    "structure_to_json",
]


class LieAlgebraError(ValueError):
    pass


# Largest dimension an algebra or a constant structure may have.  The bracket
# list stays short, but the products built on it hold dim x dim Poisson and
# ad matrices and colour graph edges with dim indices, so their cost grows as
# a power of dim; a larger one is bad input rather than a run out of time or
# memory.
MAX_DIM = 64


def check_dim(dim: int) -> None:
    if dim > MAX_DIM:
        raise LieAlgebraError(f"dimension {dim} exceeds the limit {MAX_DIM}")


@dataclass(frozen=True)
class StructureConstants:
    """The nonzero brackets of a finite-dimensional Lie algebra.

    `brackets[(i, j)] = {k: c_k^{ij}}` for i < j, keys and components in
    ascending order, with zero coefficients and empty columns dropped: the
    constructor brings any {(i, j): {k: c}} given for i < j to this form, so
    equal algebras store equal mappings.  Shared; do not mutate it.
    """

    dim: int
    brackets: dict[tuple[int, int], dict[int, Fraction]]

    def __post_init__(self):
        d = self.dim
        check_dim(d)
        if d < 1:
            raise LieAlgebraError("dimension must be positive")
        brackets = {}
        for (i, j), column in sorted(self.brackets.items()):
            if not (1 <= i < j <= d):
                raise LieAlgebraError(f"bracket key ({i},{j}) must satisfy 1 <= i < j <= dim")
            live = {}
            for k, value in sorted(column.items()):
                if not 1 <= k <= d:
                    raise LieAlgebraError(f"component {k} out of range")
                value = Fraction(value)
                if value:
                    live[k] = value
            if live:
                brackets[(i, j)] = live
        object.__setattr__(self, "brackets", brackets)

    def __hash__(self):
        # the stored order is canonical, so equal mappings hash alike
        return hash((self.dim, *((ij, *column.items()) for ij, column in self.brackets.items())))

    @classmethod
    def from_brackets(
        cls, dim: int, brackets: Mapping[tuple[int, int], Mapping[int, Fraction | int | str]]
    ) -> "StructureConstants":
        """Build from {(i, j): {k: c_k^{ij}}} given for i < j."""
        return cls(dim, brackets)

    def c(self, k: int, i: int, j: int) -> Fraction:
        """c_k^{ij}, 1-based."""
        if i > j:
            return -self.c(k, j, i)
        return self.brackets.get((i, j), {}).get(k, Fraction(0))

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[X^i, X^j] as a fresh {k: coefficient}, zero entries omitted."""
        if i > j:
            return {k: -v for k, v in self.brackets.get((j, i), {}).items()}
        return dict(self.brackets.get((i, j), {}))

    def bracket_vectors(
        self, a: Mapping[int, Fraction], b: Mapping[int, Fraction]
    ) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, ca in a.items():
            for j, cb in b.items():
                if ca and cb:
                    for k, c in self.bracket_basis(i, j).items():
                        out[k] = out.get(k, 0) + ca * cb * c
        return nonzero(out)

    def ad_matrix(self, i: int) -> tuple[tuple[Fraction, ...], ...]:
        """Matrix of ad_{X^i} acting on column vectors: rows k, columns j."""
        span = range(1, self.dim + 1)
        return tuple(tuple(self.c(k, i, j) for j in span) for k in span)

    # -- diagnostics -----------------------------------------------------------

    def satisfies_jacobi(self) -> bool:
        """[[X^i, X^j], X^l] + [[X^j, X^l], X^i] + [[X^l, X^i], X^j] = 0 for
        every i < j < l.  The sum is zero on a triple none of whose pairs has
        a live bracket, so only the triples around a live bracket are summed."""
        triples = {
            tuple(sorted((i, j, l)))
            for i, j in self.brackets
            for l in range(1, self.dim + 1)
            if l != i and l != j
        }
        for i, j, l in triples:
            total: dict[int, Fraction] = {}
            for a, b, e in ((i, j, l), (j, l, i), (l, i, j)):
                for k, x in self.bracket_basis(a, b).items():
                    for m, y in self.bracket_basis(k, e).items():
                        total[m] = total.get(m, 0) + x * y
            if any(total.values()):
                return False
        return True

    def is_triangular_nilpotent(self) -> bool:
        """c_k^{ij} = 0 unless k > max(i, j) (strictly increasing brackets)."""
        return all(k > j for (_, j), column in self.brackets.items() for k in column)

    def validate(self) -> dict[str, bool]:
        return {
            # only i < j is stored and c_k^{ji} = -c_k^{ij} is implied
            "antisymmetric": True,
            "jacobi": self.satisfies_jacobi(),
            "triangular_nilpotent": self.is_triangular_nilpotent(),
        }


# -- builtin algebras -----------------------------------------------------------


def heisenberg() -> StructureConstants:
    """dim 3, [X^1, X^2] = X^3, X^3 central."""
    return StructureConstants.from_brackets(3, {(1, 2): {3: 1}})


def solvable2() -> StructureConstants:
    """dim 2, [X^1, X^2] = X^2 (the nonabelian two-dimensional algebra)."""
    return StructureConstants.from_brackets(2, {(1, 2): {2: 1}})


def strictly_upper(n: int) -> StructureConstants:
    """Strictly upper-triangular n x n matrices, basis E_{ab} (a < b) ordered
    by superdiagonal level b - a, then by row a.  In this order every bracket
    lands strictly beyond both arguments."""
    if n < 2:
        raise LieAlgebraError("need n >= 2")
    check_dim(n * (n - 1) // 2)
    positions = sorted(((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)),
                       key=lambda ab: (ab[1] - ab[0], ab[0]))
    index = {ab: k + 1 for k, ab in enumerate(positions)}
    dim = len(positions)
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for i, (a, b) in enumerate(positions, start=1):
        for j, (p, q) in enumerate(positions, start=1):
            if i >= j:
                continue
            # [E_ab, E_pq] = delta_{bp} E_aq - delta_{qa} E_pb; both deltas
            # are 1 only when a < b = p < q = a, which cannot happen
            if b == p:
                brackets[(i, j)] = {index[(a, q)]: 1}
            elif q == a:
                brackets[(i, j)] = {index[(p, b)]: -1}
    return StructureConstants.from_brackets(dim, brackets)


_PAIRINGS = {
    "split": lambda h: [(i, i + h) for i in range(h)],
    "adjacent": lambda h: [(2 * r, 2 * r + 1) for r in range(h)],
}


def symplectic_matrix(d: int, pairing: str) -> tuple[tuple[Fraction, ...], ...]:
    """The standard symplectic form on an even number d of coordinates:
    alpha^{ij} = 1 and alpha^{ji} = -1 for each pair (i, j) of the pairing.

    `pairing` is "split" (x_i with x_{i + d/2}, the `symplectic(d)` structure)
    or "adjacent" (x_{2r-1} with x_{2r}, as `moyal_trick(d)` uses).
    """
    if d < 2 or d % 2:
        raise LieAlgebraError(f"symplectic dimension must be an even integer >= 2, got {d}")
    check_dim(d)
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i, j in _PAIRINGS[pairing](d // 2):
        rows[i][j] = Fraction(1)
        rows[j][i] = Fraction(-1)
    return tuple(tuple(r) for r in rows)


def moyal_trick(alpha) -> StructureConstants:
    """One central dimension above a constant antisymmetric matrix.

    [X^i, X^j] = alpha^{ij} X^{d+1} for i, j <= d and X^{d+1} central: the
    enveloping-algebra product on this algebra, with the central generator
    specialised to 1, reproduces the constant-coefficient star product.

    Accepts either a square matrix of rationals or an even integer d (the
    adjacent symplectic pairing on d coordinates: alpha^{2r-1,2r} = 1).
    """
    if isinstance(alpha, int):
        matrix = symplectic_matrix(alpha, "adjacent")
        d = alpha
    else:
        matrix = [[Fraction(v) for v in row] for row in alpha]
        d = len(matrix)
        if any(len(row) != d for row in matrix):
            raise LieAlgebraError("alpha must be square")
        if any(matrix[i][j] != -matrix[j][i] for i in range(d) for j in range(d)):
            raise LieAlgebraError("alpha must be antisymmetric")
    brackets = {
        (i, j): {d + 1: matrix[i - 1][j - 1]} for i in range(1, d + 1) for j in range(i + 1, d + 1)
    }
    return StructureConstants.from_brackets(d + 1, brackets)


def builtin_algebra(name: str) -> StructureConstants:
    """Look up an algebra by name: heisenberg, solvable2, strictly_upper(n),
    moyal_trick(d)."""
    name = name.strip()
    if name == "heisenberg":
        return heisenberg()
    if name == "solvable2":
        return solvable2()
    for prefix, builder in (("strictly_upper", strictly_upper), ("moyal_trick", moyal_trick)):
        if name.startswith(prefix + "(") and name.endswith(")"):
            text = name[len(prefix) + 1 : -1]
            try:
                size = int(text)
            except ValueError:
                raise LieAlgebraError(f"{prefix}(n) needs an integer n, got {text!r}") from None
            return builder(size)
    raise LieAlgebraError(f"unknown algebra {name!r}")


# -- invariants -------------------------------------------------------------------


def killing_matrix(c: StructureConstants) -> tuple[tuple[Fraction, ...], ...]:
    """K(i,j) = trace(ad_{X^i} ad_{X^j}) = sum_{k,l} c_k^{il} c_l^{jk}."""
    d = c.dim
    out = []
    for i in range(1, d + 1):
        row = []
        for j in range(1, d + 1):
            total = Fraction(0)
            for k in range(1, d + 1):
                for l in range(1, d + 1):
                    total += c.c(k, i, l) * c.c(l, j, k)
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def cyclic_product(c: StructureConstants, indices: Sequence[int]) -> Fraction:
    """trace(ad_{X^{i_1}} ... ad_{X^{i_m}}) for a tuple of basis indices."""
    if not indices:
        raise LieAlgebraError("need at least one index")
    d = c.dim
    matrix = c.ad_matrix(indices[0])
    for idx in indices[1:]:
        nxt = c.ad_matrix(idx)
        matrix = tuple(
            tuple(
                sum((matrix[r][m] * nxt[m][s] for m in range(d)), Fraction(0))
                for s in range(d)
            )
            for r in range(d)
        )
    return sum((matrix[r][r] for r in range(d)), Fraction(0))


# -- Poisson structures -------------------------------------------------------------


@dataclass(frozen=True)
class PoissonStructure:
    """Antisymmetric matrix of polynomial coefficients alpha^{ij}(x).

    A private table, filled on demand by `live_derivatives` and kept beside
    `entries`, caches the nonzero derivatives of the entries for graph
    compilation.  Three index tables over it, filled the same way, let the
    colouring look entries up instead of filtering them: `live_rows`,
    `keeps_live` and `grows_live`.  None of them takes part in `==`, `hash`
    or `repr`.  Neither does the largest entry degree, kept beside them for
    `max_entry_degree`.
    """

    dim: int
    kind: str  # "constant" | "linear" | "general"
    entries: tuple[tuple[Polynomial, ...], ...]
    _derivatives: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)
    _keeps: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)
    _grows: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)
    _max_degree: int = field(default=0, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        d = self.dim
        if len(self.entries) != d or any(len(row) != d for row in self.entries):
            raise LieAlgebraError("alpha must be dim x dim")
        for i in range(d):
            for j in range(d):
                p = self.entries[i][j]
                if p.dim != d:
                    raise LieAlgebraError("entry dimension mismatch")
                if (p + self.entries[j][i]).terms:
                    raise LieAlgebraError("alpha must be antisymmetric")
        if self.kind not in ("constant", "linear", "general"):
            raise LieAlgebraError(f"unknown kind {self.kind!r}")
        degrees = {sum(e) for row in self.entries for p in row for e in p.terms}
        allowed = {"constant": {0}, "linear": {1}}.get(self.kind)
        if allowed is not None and not degrees <= allowed:
            raise LieAlgebraError(
                f"a {self.kind} structure has entry monomials of degree "
                f"{sorted(degrees - allowed)}"
            )
        object.__setattr__(self, "_max_degree", max(degrees, default=0))

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i - 1][j - 1]

    @property
    def max_entry_degree(self) -> int:
        """The largest total degree of an entry monomial (0 when every entry
        is zero): every derivative of order above it vanishes."""
        return self._max_degree

    def live_derivatives(self, orders: tuple[int, ...]) -> dict[tuple[int, int], Polynomial]:
        """{(i, j): d^orders alpha^{ij}} over the entries whose derivative is
        not zero, in row-major order; `orders` is a sorted tuple of 1-based
        coordinate indices (a multiset, so (1, 1, 3) is d1^2 d3).

        Each multiset is derived once, from its parent `orders[:-1]`, and
        only over the entries still live there: an entry that dies under I
        is absent from I's row and is never derived below it.  The result
        is shared; do not mutate it.
        """
        table = self._derivatives
        live = table.get(orders)
        if live is None:
            if orders:
                idx = orders[-1]
                live = {}
                for ij, p in self.live_derivatives(orders[:-1]).items():
                    q = p.derive(idx)
                    if q.terms:
                        live[ij] = q
            else:
                live = {
                    (i, j): p
                    for i, row in enumerate(self.entries, start=1)
                    for j, p in enumerate(row, start=1)
                    if p.terms
                }
            table[orders] = live
        return live

    def live_rows(self, orders: tuple[int, ...]) -> dict[int, dict[int, Polynomial]]:
        """`live_derivatives(orders)` indexed by first index: {i: {j: d^orders
        alpha^{ij}}}, both levels in ascending order.  Shared; do not mutate."""
        rows = self._rows.get(orders)
        if rows is None:
            rows = {}
            for (i, j), p in self.live_derivatives(orders).items():
                rows.setdefault(i, {})[j] = p
            self._rows[orders] = rows
        return rows

    def keeps_live(self, orders: tuple[int, ...], ij: tuple[int, int]) -> dict[int, tuple]:
        """{k: orders + (k,), sorted} over the indices k, ascending, for which
        entry ij stays live: d^(orders + k) alpha^{ij} is not zero.  Shared;
        do not mutate."""
        key = (orders, ij)
        keep = self._keeps.get(key)
        if keep is None:
            keep = {}
            for k, grown in self._grown(orders):
                if ij in self.live_derivatives(grown):
                    keep[k] = grown
            self._keeps[key] = keep
        return keep

    def grows_live(self, orders: tuple[int, ...]) -> dict[int, tuple]:
        """{k: orders + (k,), sorted} over the indices k, ascending, that leave
        some entry live.  Shared; do not mutate."""
        grow = self._grows.get(orders)
        if grow is None:
            grow = {k: grown for k, grown in self._grown(orders) if self.live_derivatives(grown)}
            self._grows[orders] = grow
        return grow

    def _grown(self, orders: tuple[int, ...]) -> list[tuple[int, tuple]]:
        """(k, orders + (k,) sorted) for every coordinate index k."""
        return [(k, tuple(sorted(orders + (k,)))) for k in range(1, self.dim + 1)]

    def poisson_bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        total = Polynomial.zero(self.dim)
        for i in range(1, self.dim + 1):
            df = f.derive(i)
            if df.is_zero():
                continue
            for j in range(1, self.dim + 1):
                a = self.entries[i - 1][j - 1]
                if a.is_zero():
                    continue
                dg = g.derive(j)
                if not dg.is_zero():
                    total = total + a * df * dg
        return total


def linear_poisson(c: StructureConstants) -> PoissonStructure:
    """alpha^{ij} = sum_k c_k^{ij} x_k on the dual of the algebra."""
    d = c.dim
    terms: list[list[dict]] = [[{} for _ in range(d)] for _ in range(d)]
    for (i, j), column in c.brackets.items():
        for k, v in column.items():
            x_k = tuple(1 if m == k else 0 for m in range(1, d + 1))
            terms[i - 1][j - 1][x_k] = v
            terms[j - 1][i - 1][x_k] = -v
    entries = tuple(tuple(Polynomial(d, t) for t in row) for row in terms)
    return PoissonStructure(d, "linear", entries)


def constant_poisson(matrix: Sequence[Sequence[Fraction | int | str]]) -> PoissonStructure:
    rows = [[Fraction(v) for v in row] for row in matrix]
    d = len(rows)
    if any(len(row) != d for row in rows):
        raise LieAlgebraError("alpha must be square")
    entries = tuple(
        tuple(Polynomial.constant(d, rows[i][j]) for j in range(d)) for i in range(d)
    )
    return PoissonStructure(d, "constant", entries)


# -- JSON serialisation ---------------------------------------------------------------


def structure_to_json(c: StructureConstants) -> dict:
    return {
        "schema": 1,
        "dim": c.dim,
        "brackets": [
            {"i": i, "j": j, "coeffs": {str(k): str(v) for k, v in column.items()}}
            for (i, j), column in c.brackets.items()
        ],
    }


def rational_from_json(value) -> Fraction:
    """A rational read from a JSON document: an int, or the text of a
    fraction p/q or a decimal (a float is read through its shortest decimal
    text, so 0.1 is 1/10).  Text with an exponent, which would make Fraction
    build 10**exponent, or longer than MAX_DIGITS characters raises
    ValueError; a bool or any other type raises TypeError."""
    if isinstance(value, bool):
        raise TypeError("a rational must be a number or text, not a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if not isinstance(value, str):
        raise TypeError(f"a rational must be a number or text, not {type(value).__name__}")
    if len(value) > MAX_DIGITS:
        raise ValueError(f"rational text longer than {MAX_DIGITS} characters")
    if "e" in value or "E" in value:
        raise ValueError(f"rational {value!r} has an exponent; write it as p/q or a decimal")
    return Fraction(value)


def index_from_json(value) -> int:
    """A dimension or index read from a JSON document: an int, or text of
    ASCII digits (JSON object keys are text).  A float such as 1.9, which
    int() would truncate, and text longer than MAX_DIGITS raise ValueError;
    a bool or any other type raises TypeError."""
    if isinstance(value, bool):
        raise TypeError("an index must be an integer, not a bool")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise ValueError(f"an index must be an integer, not {value!r}")
    if not isinstance(value, str):
        raise TypeError(f"an index must be an integer, not {type(value).__name__}")
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"index {value!r} is not a string of digits")
    if len(value) > MAX_DIGITS:
        raise ValueError(f"index text longer than {MAX_DIGITS} digits")
    return int(value)


def structure_from_json(data: Mapping) -> StructureConstants:
    """The algebra of a `structure_to_json` document; anything malformed,
    including a dimension above MAX_DIM or a bracket or component given twice
    (also in two spellings, such as 1 and "01"), raises LieAlgebraError."""
    try:
        dim = index_from_json(data["dim"])
        brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        for entry in data.get("brackets", []):
            ij = (index_from_json(entry["i"]), index_from_json(entry["j"]))
            column = {index_from_json(k): rational_from_json(v) for k, v in entry["coeffs"].items()}
            if len(column) < len(entry["coeffs"]):
                raise ValueError(f"a component of bracket {ij} is given twice")
            if ij in brackets:
                raise ValueError(f"bracket {ij} is given twice")
            brackets[ij] = column
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise LieAlgebraError(f"malformed structure document: {exc}") from exc
    return StructureConstants.from_brackets(dim, brackets)

