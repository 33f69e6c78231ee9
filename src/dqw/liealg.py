"""Finite-dimensional Lie algebra data and the Poisson structures they induce.

Structure constants are stored densely as nested tuples c[k-1][i-1][j-1] for
[X^i, X^j] = sum_k c_k^{ij} X^k, kept antisymmetric in (i, j).  The induced
linear Poisson structure on the dual has matrix alpha^{ij} = sum_k c_k^{ij} x_k.

`triangular_nilpotent` checks the increasing-orientation condition: every
bracket [X^i, X^j] lives in the span of basis vectors strictly beyond both i
and j (c_k^{ij} = 0 unless k > max(i, j)).  In such a basis every operator
ad_{X^i} is strictly triangular, so all traces of products of ad's vanish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .poly import Polynomial

__all__ = [
    "StructureConstants",
    "PoissonStructure",
    "LieAlgebraError",
    "heisenberg",
    "solvable2",
    "strictly_upper",
    "moyal_trick",
    "builtin_algebra",
    "linear_poisson",
    "constant_poisson",
    "killing_matrix",
    "cyclic_product",
    "load_structure",
    "save_structure",
    "structure_from_json",
    "structure_to_json",
]


class LieAlgebraError(ValueError):
    pass


Table = tuple[tuple[tuple[Fraction, ...], ...], ...]


@dataclass(frozen=True)
class StructureConstants:
    """Antisymmetric structure-constant table of a finite-dimensional algebra."""

    dim: int
    table: Table  # table[k-1][i-1][j-1] = c_k^{ij}

    def __post_init__(self):
        d = self.dim
        if d < 1:
            raise LieAlgebraError("dimension must be positive")
        if len(self.table) != d or any(
            len(plane) != d or any(len(row) != d for row in plane) for plane in self.table
        ):
            raise LieAlgebraError("structure table must be dim^3")

    @classmethod
    def from_brackets(
        cls, dim: int, brackets: Mapping[tuple[int, int], Mapping[int, Fraction | int | str]]
    ) -> "StructureConstants":
        """Build from {(i, j): {k: c_k^{ij}}} given for i < j; antisymmetry is filled in."""
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), column in brackets.items():
            if not (1 <= i < j <= dim):
                raise LieAlgebraError(f"bracket key ({i},{j}) must satisfy 1 <= i < j <= dim")
            for k, value in column.items():
                if not 1 <= k <= dim:
                    raise LieAlgebraError(f"component {k} out of range")
                value = Fraction(value)
                c[k - 1][i - 1][j - 1] = value
                c[k - 1][j - 1][i - 1] = -value
        return cls(dim, tuple(tuple(tuple(row) for row in plane) for plane in c))

    def c(self, k: int, i: int, j: int) -> Fraction:
        """c_k^{ij}, 1-based."""
        return self.table[k - 1][i - 1][j - 1]

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[X^i, X^j] as {k: coefficient}, zero entries omitted."""
        return {
            k: self.table[k - 1][i - 1][j - 1]
            for k in range(1, self.dim + 1)
            if self.table[k - 1][i - 1][j - 1]
        }

    def bracket_vectors(
        self, a: Mapping[int, Fraction], b: Mapping[int, Fraction]
    ) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, ca in a.items():
            for j, cb in b.items():
                if ca and cb:
                    for k, c in self.bracket_basis(i, j).items():
                        acc = out.get(k, Fraction(0)) + ca * cb * c
                        if acc:
                            out[k] = acc
                        else:
                            out.pop(k, None)
        return out

    def ad_matrix(self, i: int) -> tuple[tuple[Fraction, ...], ...]:
        """Matrix of ad_{X^i} acting on column vectors: rows k, columns j."""
        return tuple(
            tuple(self.table[k][i - 1][j] for j in range(self.dim)) for k in range(self.dim)
        )

    # -- diagnostics -----------------------------------------------------------

    def is_antisymmetric(self) -> bool:
        d = self.dim
        return all(
            self.table[k][i][j] == -self.table[k][j][i]
            for k in range(d)
            for i in range(d)
            for j in range(i, d)
        )

    def satisfies_jacobi(self) -> bool:
        d = self.dim
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                for l in range(j + 1, d + 1):
                    for m in range(1, d + 1):
                        total = Fraction(0)
                        for k in range(1, d + 1):
                            total += (
                                self.c(k, i, j) * self.c(m, k, l)
                                + self.c(k, j, l) * self.c(m, k, i)
                                + self.c(k, l, i) * self.c(m, k, j)
                            )
                        if total:
                            return False
        return True

    def is_triangular_nilpotent(self) -> bool:
        """c_k^{ij} = 0 unless k > max(i, j) (strictly increasing brackets)."""
        d = self.dim
        return all(
            not self.table[k][i][j]
            for k in range(d)
            for i in range(d)
            for j in range(d)
            if k + 1 <= max(i + 1, j + 1)
        )

    def validate(self) -> dict[str, bool]:
        return {
            "antisymmetric": self.is_antisymmetric(),
            "jacobi": self.satisfies_jacobi(),
            "triangular_nilpotent": self.is_triangular_nilpotent(),
        }

    def nonzero_brackets(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        out = {}
        for i in range(1, self.dim + 1):
            for j in range(i + 1, self.dim + 1):
                column = self.bracket_basis(i, j)
                if column:
                    out[(i, j)] = column
        return out


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
    positions = sorted(((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)),
                       key=lambda ab: (ab[1] - ab[0], ab[0]))
    index = {ab: k + 1 for k, ab in enumerate(positions)}
    dim = len(positions)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, (a, b) in enumerate(positions, start=1):
        for j, (p, q) in enumerate(positions, start=1):
            if i >= j:
                continue
            column: dict[int, Fraction] = {}
            # [E_ab, E_pq] = delta_{bp} E_aq - delta_{qa} E_pb
            if b == p:
                column[index[(a, q)]] = column.get(index[(a, q)], Fraction(0)) + 1
            if q == a:
                column[index[(p, b)]] = column.get(index[(p, b)], Fraction(0)) - 1
            column = {k: v for k, v in column.items() if v}
            if column:
                brackets[(i, j)] = column
    return StructureConstants.from_brackets(dim, brackets)


def moyal_trick(alpha) -> StructureConstants:
    """One central dimension above a constant antisymmetric matrix.

    [X^i, X^j] = alpha^{ij} X^{d+1} for i, j <= d and X^{d+1} central: the
    enveloping-algebra product on this algebra, with the central generator
    specialised to 1, reproduces the constant-coefficient star product.

    Accepts either a square matrix of rationals or an even integer d (standard
    symplectic pairing on d coordinates: alpha^{2r-1,2r} = 1).
    """
    if isinstance(alpha, int):
        d = alpha
        if d < 2 or d % 2:
            raise LieAlgebraError("symplectic dimension must be a positive even integer")
        matrix = [[Fraction(0)] * d for _ in range(d)]
        for r in range(0, d, 2):
            matrix[r][r + 1] = Fraction(1)
            matrix[r + 1][r] = Fraction(-1)
    else:
        matrix = [[Fraction(v) for v in row] for row in alpha]
        d = len(matrix)
        if any(len(row) != d for row in matrix):
            raise LieAlgebraError("alpha must be square")
        if any(matrix[i][j] != -matrix[j][i] for i in range(d) for j in range(d)):
            raise LieAlgebraError("alpha must be antisymmetric")
    brackets = {
        (i, j): {d + 1: matrix[i - 1][j - 1]}
        for i in range(1, d + 1)
        for j in range(i + 1, d + 1)
        if matrix[i - 1][j - 1]
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
            return builder(int(name[len(prefix) + 1 : -1]))
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
    """Antisymmetric matrix of polynomial coefficients alpha^{ij}(x)."""

    dim: int
    kind: str  # "constant" | "linear" | "general"
    entries: tuple[tuple[Polynomial, ...], ...]

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

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i - 1][j - 1]

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
    entries = tuple(
        tuple(
            Polynomial(
                d,
                {
                    tuple(1 if m == k else 0 for m in range(d)): c.table[k][i][j]
                    for k in range(d)
                    if c.table[k][i][j]
                },
            )
            for j in range(d)
        )
        for i in range(d)
    )
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
            for (i, j), column in sorted(c.nonzero_brackets().items())
        ],
    }


def structure_from_json(data: Mapping) -> StructureConstants:
    try:
        dim = int(data["dim"])
        brackets = {
            (int(entry["i"]), int(entry["j"])): {
                int(k): Fraction(v) for k, v in entry["coeffs"].items()
            }
            for entry in data.get("brackets", [])
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise LieAlgebraError(f"malformed structure document: {exc}") from exc
    return StructureConstants.from_brackets(dim, brackets)


def save_structure(c: StructureConstants, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(structure_to_json(c), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_structure(path: str) -> StructureConstants:
    with open(path, encoding="utf-8") as fh:
        return structure_from_json(json.load(fh))
