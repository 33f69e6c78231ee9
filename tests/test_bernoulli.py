from fractions import Fraction
from math import comb, factorial

import pytest

from dqw import bernoulli
from dqw.bernoulli import BernoulliError, bernoulli_number, bernoulli_polynomial
from dqw.poly import Polynomial, parse_polynomial


def test_standard_values():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for k, value in expected.items():
        assert bernoulli_number(k) == value


def test_modified_flips_odd_signs_only():
    assert bernoulli_number(1, "modified") == Fraction(1, 2)
    for k in range(0, 31):
        std = bernoulli_number(k)
        mod = bernoulli_number(k, "modified")
        assert mod == (-1) ** k * std
        if k % 2 == 1 and k > 1:
            assert mod == 0


def test_bad_inputs():
    with pytest.raises(ValueError):
        bernoulli_number(-1)
    with pytest.raises(ValueError):
        bernoulli_number(2, "weird")


def reference_standard_upto(n):
    """The per-n body the in-place table replaced: B_0..B_n by the binomial
    recurrence, from scratch on every call.  Kept as the table's oracle."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * values[k]
        values.append(-acc / (m + 1))
    return values


def test_table_extends_in_place(monkeypatch):
    # out-of-order requests extend one table, and every value agrees at ==
    monkeypatch.setattr(bernoulli, "_STANDARD", [Fraction(1)])
    expected = reference_standard_upto(60)
    for k in (40, 7, 60, 0, 41):
        assert bernoulli_number(k) == expected[k]
    assert bernoulli._STANDARD == expected
    # negative control: a wrong entry in the table is read back, not recomputed
    bernoulli._STANDARD[7] = Fraction(1)
    assert bernoulli_number(7) != expected[7]


def test_integer_recurrence_equals_the_fraction_recurrence(monkeypatch):
    # B_0..B_400 requested out of order, from a fresh table, then resumed
    # one index at a time as the CLI asks, all at == with the Fraction body
    monkeypatch.setattr(bernoulli, "_STANDARD", [Fraction(1)])
    expected = reference_standard_upto(400)
    for k in (250, 3, 251, 0, 330, 1, 17, 330):
        assert bernoulli_number(k) == expected[k], k
    for k in range(331, 401):
        assert bernoulli_number(k) == expected[k], k
    assert bernoulli._STANDARD == expected
    # a table swapped in under the saved state restarts from its own entries
    monkeypatch.setattr(bernoulli, "_STANDARD", expected[:40])
    assert bernoulli_number(60) == expected[60]


def test_domain_error_class():
    for call in (
        lambda: bernoulli_number(-1),
        lambda: bernoulli_number(2, "bogus"),
        lambda: bernoulli_polynomial(-1),
        lambda: bernoulli_polynomial(2, "bogus"),
    ):
        with pytest.raises(BernoulliError):
            call()


def test_polynomials():
    x = Polynomial.variable(1, 1)
    half = Polynomial.constant(1, Fraction(1, 2))
    assert bernoulli_polynomial(1) == x - half
    assert bernoulli_polynomial(1, "modified") == x + half
    assert bernoulli_polynomial(2) == parse_polynomial("x1^2 - x1 + 1/6", dim=1)


def test_polynomial_reflection_identity():
    # Bhat_n(-t) == (-1)^n B_n(t) for n <= 12
    x = Polynomial.variable(1, 1)
    for n in range(13):
        lhs = bernoulli_polynomial(n, "modified").substitute(1, -x)
        rhs = (-1) ** n * bernoulli_polynomial(n)
        assert lhs == rhs, n


def test_convolution_identities_to_30():
    # sum_k n! Bhat_k / (k! (n-k)! (n-k+1)) equals 1, and its alternating
    # counterpart vanishes for n >= 1.
    for n in range(0, 31):
        plain = Fraction(0)
        alternating = Fraction(0)
        for k in range(n + 1):
            term = (
                Fraction(factorial(n), factorial(k) * factorial(n - k))
                * bernoulli_number(k, "modified")
                / (n - k + 1)
            )
            plain += term
            alternating += (-1) ** k * term
        assert plain == 1, n
        if n >= 1:
            assert alternating == 0, n
