#!/usr/bin/env python3
"""Print the chain weight ladder and the transform polynomials.

Usage: python3 scripts/weight_table.py [max_m]
"""

import sys
from fractions import Fraction
from math import factorial

from dqw.bernoulli import bernoulli_number
from dqw.graphs import chain_graph, symmetry_count
from dqw.weights import pn_polynomial, weight_w_computable


def main() -> int:
    max_m = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    ok = True
    print(f"{'m':>2}  {'w_I':>10}  {'w_K':>12}  {'sym':>6}  sym*w_K/2^m")
    for m in range(1, max_m + 1):
        w = weight_w_computable(chain_graph(m))
        sym = symmetry_count(chain_graph(m))
        packed = sym * w.weight * Fraction(1, 2**m)
        match = packed == bernoulli_number(m, "modified") / factorial(m)
        ok = ok and match
        check = "ok" if match else "MISMATCH"
        print(f"{m:>2}  {str(w.integral):>10}  {str(w.weight):>12}  {sym:>6}  {str(packed):>10}  {check}")
    print()
    print("transform ladder T^n[1], argument x1:")
    for n in range(max_m + 1):
        print(f"  P_{n} = {pn_polynomial(n).to_text()}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
