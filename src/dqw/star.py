"""Star products on polynomial algebras, built three independent ways.

* `moyal_product`: exponential of the halved constant-coefficient wedge.
* `uea_product`: symmetrize, multiply in the enveloping algebra, pull back.
* `cbh_product`: exponential (in the symbol sense) of the bidifferential
  operators carved out of the Hausdorff series, one per Lyndon bracket
  monomial of degree >= 2, at eps degree = bracket count.

All three return a `StarProduct`, a bilinear map on polynomials extended
eps-bilinearly to truncated series.  `xn_star_y` evaluates the closed form
for x^n * y with x, y linear, where the coefficient ladder is binomial(n,k)
times a Bernoulli number; its two variants walk the two sign conventions.

`check_associativity` and `check_equivalence` produce small report objects
the command-line front end prints as JSON.  They are built from per-item
checks (`associativity_failure`, `equivalence_failure`) and the reports'
`add`, which the command-line front end also uses when it fans a batch out
over worker processes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Mapping, Union

from .bernoulli import bernoulli_number
from .bidiff import BiDiffOp, wedge_operator
from .freelie import BracketTree, free_lie, hausdorff_series, tree_degree
from .liealg import PoissonStructure, StructureConstants
from .pbw import enveloping_algebra
from .poly import Polynomial, nonzero
from .series import EpsSeries

__all__ = [
    "StarProduct",
    "StarError",
    "moyal_product",
    "uea_product",
    "cbh_product",
    "poisson_operator",
    "bracket_monomial_operator",
    "xn_star_y",
    "xn_star_y_coefficients",
    "check_associativity",
    "check_equivalence",
    "associativity_failure",
    "equivalence_failure",
    "equivalence_pairs",
    "check_degree_drop",
    "random_polynomials",
    "AssociativityReport",
    "EquivalenceReport",
]


class StarError(ValueError):
    pass


@dataclass(frozen=True)
class StarProduct:
    """A bilinear product on polynomials valued in truncated eps series."""

    name: str
    dim: int
    order: int
    bilinear: Callable[[Polynomial, Polynomial], EpsSeries]
    operator: BiDiffOp | None = None  # set when the product is a single operator

    def on_polynomials(self, f: Polynomial, g: Polynomial) -> EpsSeries:
        if f.dim != self.dim or g.dim != self.dim:
            raise StarError("argument dimension mismatch")
        return self.bilinear(f, g)

    def __call__(
        self, f: Union[Polynomial, EpsSeries], g: Union[Polynomial, EpsSeries]
    ) -> EpsSeries:
        if isinstance(f, Polynomial) and isinstance(g, Polynomial):
            return self.on_polynomials(f, g)
        fs = EpsSeries.from_polynomial(f, self.order) if isinstance(f, Polynomial) else f
        gs = EpsSeries.from_polynomial(g, self.order) if isinstance(g, Polynomial) else g
        if fs.order != self.order or gs.order != self.order:
            raise StarError("series order must match the product's truncation")
        total = EpsSeries.zero(self.dim, self.order)
        for mf, pf in enumerate(fs.coeffs):
            if pf.is_zero():
                continue
            for mg, pg in enumerate(gs.coeffs):
                if mf + mg > self.order or pg.is_zero():
                    continue
                total = total + self.on_polynomials(pf, pg).shift(mf + mg)
        return total


# -- Moyal ----------------------------------------------------------------------


def _constant_matrix(alpha) -> tuple[tuple[Fraction, ...], ...]:
    if isinstance(alpha, PoissonStructure):
        if alpha.kind != "constant":
            raise StarError("this product needs a constant-coefficient structure")
        return tuple(
            tuple(alpha.entries[i][j].constant_term() for j in range(alpha.dim))
            for i in range(alpha.dim)
        )
    rows = tuple(tuple(Fraction(v) for v in row) for row in alpha)
    d = len(rows)
    if any(len(row) != d for row in rows):
        raise StarError("alpha must be square")
    if any(rows[i][j] != -rows[j][i] for i in range(d) for j in range(d)):
        raise StarError("alpha must be antisymmetric")
    return rows


@lru_cache(maxsize=None)
def _moyal_operator(matrix: tuple[tuple[Fraction, ...], ...], order: int) -> BiDiffOp:
    d = len(matrix)
    coeffs = {
        (i, j): matrix[i - 1][j - 1]
        for i in range(1, d + 1)
        for j in range(1, d + 1)
        if matrix[i - 1][j - 1]
    }
    return wedge_operator(d, order, coeffs, prefactor=Fraction(1, 2)).exp()


def moyal_product(alpha, order: int) -> StarProduct:
    """exp((eps/2) sum alpha^{ij} d_i tensor d_j) for constant antisymmetric alpha."""
    matrix = _constant_matrix(alpha)
    op = _moyal_operator(matrix, order)
    return StarProduct("moyal", len(matrix), order, op.apply, op)


def poisson_operator(pi: PoissonStructure, order: int) -> BiDiffOp:
    """sum_{i,j} alpha^{ij}(x) d_i tensor d_j at eps degree 1 (not halved)."""
    coeffs = {
        (i, j): pi.entry(i, j)
        for i in range(1, pi.dim + 1)
        for j in range(1, pi.dim + 1)
        if not pi.entry(i, j).is_zero()
    }
    return wedge_operator(pi.dim, order, coeffs)


# -- enveloping algebra ------------------------------------------------------------


def uea_product(c: StructureConstants, order: int) -> StarProduct:
    alg = enveloping_algebra(c)
    return StarProduct("uea", c.dim, order, lambda f, g: alg.star(f, g, order), None)


# -- Hausdorff-series product ---------------------------------------------------------


def _contract_tree(
    c: StructureConstants, tree: BracketTree
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, Fraction]]:
    """Map (left multi, right multi) -> algebra-valued coefficient vector.

    An X leaf stands for "derivative on the first slot", summed over the
    coordinate it hits; a Y leaf likewise on the second slot; a bracket node
    contracts the children's vectors through the structure constants.
    """
    d = c.dim

    def unit(k: int) -> tuple[int, ...]:
        return tuple(1 if m == k else 0 for m in range(1, d + 1))

    zero = (0,) * d
    if tree == "X":
        return {(unit(i), zero): {i: Fraction(1)} for i in range(1, d + 1)}
    if tree == "Y":
        return {(zero, unit(j)): {j: Fraction(1)} for j in range(1, d + 1)}
    if isinstance(tree, str):
        raise StarError(f"leaf {tree!r} is not X or Y")
    left = _contract_tree(c, tree[0])
    right = _contract_tree(c, tree[1])
    out: dict = {}
    for (l1, r1), v1 in left.items():
        for (l2, r2), v2 in right.items():
            key = (
                tuple(a + b for a, b in zip(l1, l2)),
                tuple(a + b for a, b in zip(r1, r2)),
            )
            acc = out.setdefault(key, {})
            for k, v in c.bracket_vectors(v1, v2).items():
                acc[k] = acc.get(k, 0) + v
    return nonzero({key: nonzero(acc) for key, acc in out.items()})


def bracket_monomial_operator(
    c: StructureConstants, tree: BracketTree, order: int
) -> BiDiffOp:
    """The bidifferential operator of one bracket monomial in X and Y.

    eps degree = number of brackets = degree - 1; the coefficient of
    d^L tensor d^R is the linear polynomial sum_k v_k x_k produced by
    contracting the tree.
    """
    d = c.dim
    eps_degree = tree_degree(tree) - 1
    if eps_degree < 1:
        raise StarError("need at least one bracket")
    terms = {
        (eps_degree, left, right): Polynomial(
            d,
            {
                tuple(1 if m == k else 0 for m in range(1, d + 1)): v
                for k, v in vec.items()
            },
        )
        for (left, right), vec in _contract_tree(c, tree).items()
    }
    return BiDiffOp(d, order, terms)


def _cbh_generator(
    c: StructureConstants,
    order: int,
    override: Mapping[tuple[str, ...], Fraction] | None,
) -> BiDiffOp:
    fl = free_lie(("X", "Y"))
    H = hausdorff_series(order + 1)
    total = BiDiffOp.zero(c.dim, order)
    table = dict(H.terms)
    if override:
        for word, value in override.items():
            word = tuple(word)
            if not fl.is_lyndon(word):
                raise StarError(f"override key {word!r} is not a Lyndon word")
            table[word] = Fraction(value)
    for word, coeff in sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0])):
        if len(word) < 2 or len(word) > order + 1 or not coeff:
            continue
        op = bracket_monomial_operator(c, fl.bracket_tree(word), order)
        total = total + op.scale(coeff)
    return total


def cbh_product(
    c: StructureConstants,
    order: int,
    override: Mapping[tuple[str, ...], Fraction] | None = None,
) -> StarProduct:
    """Symbol exponential of the Hausdorff bracket operators.

    `override` replaces the series coefficient of individual Lyndon words
    (keys like ("X","X","Y")), as a wrongness control.  A changed word is
    seen only where its bracket operator is nonzero: on an algebra of
    nilpotency step below the word's length every bracket of that length
    vanishes, so the product does not change at all (on strictly_upper(4),
    XXY is seen and XXYY is not).
    """
    op = _cbh_generator(c, order, override).exp()
    return StarProduct("cbh", c.dim, order, op.apply, op)


# -- closed form for x^n * y ------------------------------------------------------------


def xn_star_y_coefficients(n: int, max_k: int, variant: str = "modified") -> list[Fraction]:
    """[coefficient of eps^k (x)^{n-k} ad_x^k(y)] for k = 0..min(n, max_k).

    variant "modified": binomial(n,k) * (-1)^k B_k for every k.
    variant "standard": the same ladder written with plain Bernoulli numbers,
    which only changes the k = 1 entry's bookkeeping (+n/2 either way).
    """
    out = []
    for k in range(0, min(n, max_k) + 1):
        if variant == "modified":
            b = bernoulli_number(k, variant="modified")
        elif variant == "standard":
            b = -bernoulli_number(k) if k == 1 else bernoulli_number(k)
        else:
            raise StarError(f"unknown variant {variant!r}")
        out.append(comb(n, k) * b)
    return out


def _linear_vector(p: Polynomial) -> dict[int, Fraction]:
    vec: dict[int, Fraction] = {}
    for exps, coeff in p.terms.items():
        if sum(exps) != 1:
            raise StarError("x and y must be linear with no constant term")
        vec[exps.index(1) + 1] = coeff
    return vec


def xn_star_y(
    c: StructureConstants,
    n: int,
    order: int,
    variant: str = "modified",
    x: Polynomial | None = None,
    y: Polynomial | None = None,
) -> EpsSeries:
    """Closed form of (x)^n * y: sum_k eps^k binom(n,k) B-hat_k (x)^{n-k} ad_x^k(y)."""
    if n < 0:
        raise StarError("n must be >= 0")
    d = c.dim
    if d < 2 and (x is None or y is None):
        raise StarError("default x, y need dim >= 2")
    x = Polynomial.variable(d, 1) if x is None else x
    y = Polynomial.variable(d, 2) if y is None else y
    if x.dim != d or y.dim != d:
        raise StarError("x, y dimension mismatch")
    coeffs = xn_star_y_coefficients(n, order, variant)
    ad = _linear_vector(y)
    xvec = _linear_vector(x)
    levels: list[Polynomial] = []
    for k, coeff in enumerate(coeffs):
        if k > 0:
            ad = c.bracket_vectors(xvec, ad)
        if not coeff or not ad:
            levels.append(Polynomial.zero(d))
            if not ad:
                break
            continue
        lin = Polynomial(
            d, {tuple(1 if m == i else 0 for m in range(1, d + 1)): v for i, v in ad.items()}
        )
        levels.append((x ** (n - k)) * lin * coeff)
    return EpsSeries(d, order, levels[: order + 1])


# -- checks and reports -------------------------------------------------------------------


def random_polynomials(
    dim: int,
    count: int,
    max_degree: int,
    seed: int,
    terms: int = 3,
    coeff_bound: int = 4,
) -> list[Polynomial]:
    """Deterministic sparse test polynomials (nonzero, possibly fewer terms)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        acc: dict[tuple[int, ...], Fraction] = {}
        for _ in range(terms):
            degree = rng.randint(0, max_degree)
            exps = [0] * dim
            for _ in range(degree):
                exps[rng.randrange(dim)] += 1
            num = rng.randint(-coeff_bound, coeff_bound)
            if not num:
                num = 1
            acc[tuple(exps)] = acc.get(tuple(exps), Fraction(0)) + Fraction(
                num, rng.randint(1, 3)
            )
        p = Polynomial(dim, acc)
        if not p.is_zero():
            out.append(p)
    return out


def _nonzero_levels(series: EpsSeries) -> list[dict]:
    return [{"eps": m, "value": t} for m, t in series.to_pairs() if t != "0"]


@dataclass
class AssociativityReport:
    name: str
    order: int
    trials: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.trials > 0 and not self.failures

    def add(self, failure: dict | None) -> None:
        """Count one triple; `failure` is `associativity_failure`'s result."""
        self.trials += 1
        if failure is not None:
            self.failures.append(failure)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "check": "associativity",
            "product": self.name,
            "order": self.order,
            "trials": self.trials,
            "ok": self.ok,
            "failures": self.failures,
        }


def associativity_failure(
    star: StarProduct, f: Polynomial, g: Polynomial, h: Polynomial
) -> dict | None:
    """None when (f*g)*h == f*(g*h), else the failure entry with the residual."""
    residual = star(star(f, g), h) - star(f, star(g, h))
    if residual.is_zero():
        return None
    return {
        "f": f.to_text(),
        "g": g.to_text(),
        "h": h.to_text(),
        "residual": _nonzero_levels(residual),
    }


def check_associativity(
    star: StarProduct, triples: Iterable[tuple[Polynomial, Polynomial, Polynomial]]
) -> AssociativityReport:
    report = AssociativityReport(star.name, star.order)
    for f, g, h in triples:
        report.add(associativity_failure(star, f, g, h))
    return report


@dataclass
class EquivalenceReport:
    """Counts every pair and lists the first `max_failures` failures."""

    left: str
    right: str
    order: int
    mode: str
    pairs: int = 0
    failures: list[dict] = field(default_factory=list)
    max_failures: int = 5

    @property
    def ok(self) -> bool:
        return self.pairs > 0 and not self.failures

    def add(self, failure: dict | None) -> None:
        """Count one pair; `failure` is `equivalence_failure`'s result."""
        self.pairs += 1
        if failure is not None and len(self.failures) < self.max_failures:
            self.failures.append(failure)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "check": "equivalence",
            "left": self.left,
            "right": self.right,
            "order": self.order,
            "mode": self.mode,
            "pairs": self.pairs,
            "ok": self.ok,
            "failures": self.failures,
        }


def _monomials_up_to(dim: int, degree: int) -> list[Polynomial]:
    out = []
    for total in range(degree + 1):
        for cuts in itertools.combinations(range(total + dim - 1), dim - 1):
            exps = []
            prev = -1
            for cut in cuts:
                exps.append(cut - prev - 1)
                prev = cut
            exps.append(total + dim - 2 - prev)
            out.append(Polynomial.monomial(dim, tuple(exps)))
    return out


def equivalence_pairs(
    dim: int, degree_bound: int, mode: str = "monomials", seed: int = 0, trials: int = 25
) -> list[tuple[Polynomial, Polynomial]]:
    """The (f, g) pairs an equivalence check compares, in report order.

    "monomials": every pair of monomials with deg f + deg g <= degree_bound.
    "random": `trials` seeded pairs from `random_polynomials`.
    """
    if mode == "monomials":
        # sorted by degree, so the g for an f are a prefix: the degree <= k ones
        monos = _monomials_up_to(dim, degree_bound)
        return [
            (f, g)
            for f in monos
            for g in monos[: comb(degree_bound - f.total_degree() + dim, dim)]
        ]
    if mode == "random":
        fs = random_polynomials(dim, trials, degree_bound, seed)
        gs = random_polynomials(dim, trials, degree_bound, seed + 1)
        return list(zip(fs, gs))
    raise StarError(f"unknown mode {mode!r}")


def equivalence_failure(
    a: StarProduct, b: StarProduct, f: Polynomial, g: Polynomial
) -> dict | None:
    """None when a(f, g) == b(f, g), else the failure entry with the difference."""
    diff = a(f, g) - b(f, g)
    if diff.is_zero():
        return None
    return {"f": f.to_text(), "g": g.to_text(), "difference": _nonzero_levels(diff)}


def check_equivalence(
    a: StarProduct,
    b: StarProduct,
    degree_bound: int,
    mode: str = "monomials",
    seed: int = 0,
    trials: int = 25,
    max_failures: int = 5,
) -> EquivalenceReport:
    """Compare two products pairwise; exact equality of truncated series."""
    if a.dim != b.dim or a.order != b.order:
        raise StarError("products must share dim and truncation order")
    report = EquivalenceReport(a.name, b.name, a.order, mode, max_failures=max_failures)
    for f, g in equivalence_pairs(a.dim, degree_bound, mode, seed, trials):
        report.add(equivalence_failure(a, b, f, g))
    return report


def check_degree_drop(star: StarProduct, f: Polynomial, g: Polynomial) -> bool:
    """Level m of f * g may not exceed polynomial degree deg f + deg g - m,
    and level 0 must be the plain product."""
    s = star(f, g)
    if s.coeffs[0] != f * g:
        return False
    bound = f.total_degree() + g.total_degree()
    for m, level in enumerate(s.coeffs):
        if not level.is_zero() and level.total_degree() > bound - m:
            return False
    return True
