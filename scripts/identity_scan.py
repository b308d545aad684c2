"""Check the two catalog-wide identities weight by weight.

First the Bernoulli identity: summing z(G) * tours(G) * prod((deg+ - 1)!)
over all stable graphs of weight k must give (-1)^(k+1) B_k / k exactly.
Then the unit-ball identity: the same catalog, weighted by cycle
decomposition polynomials, must reproduce the degree-2k volume polynomial
whose values at integer points are fixed by interpolation, with leading
coefficient (-1)^k / (2^k k!).
"""

from __future__ import annotations

import argparse
import math
from fractions import Fraction

from tyz import bernoulli, bernoulli_identity_lhs, unit_ball_lhs, unit_ball_rhs
from tyz.catalog import format_poly, format_rational
from tyz.enumeration import check_weight


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-weight", type=int, default=4, metavar="K")
    ap.add_argument("--allow-slow", action="store_true", help="permit weight 5")
    args = ap.parse_args()

    try:
        check_weight(args.max_weight, args.allow_slow)
    except ValueError as exc:
        ap.error(str(exc))

    failures = 0

    print("Bernoulli identity")
    print(f"{'k':>2} {'catalog sum':>12} {'(-1)^(k+1) B_k/k':>17} {'ok':>3}")
    for k in range(1, args.max_weight + 1):
        lhs = bernoulli_identity_lhs(k)
        rhs = (-1) ** (k + 1) * bernoulli(k) / k
        ok = lhs == rhs
        failures += not ok
        print(f"{k:>2} {format_rational(lhs):>12} {format_rational(rhs):>17} "
              f"{'yes' if ok else 'NO':>3}")

    print()
    print("Unit-ball identity (coefficients lowest degree first)")
    for k in range(1, args.max_weight + 1):
        lhs = unit_ball_lhs(k)
        equal = lhs == unit_ball_rhs(k)
        lead = lhs.coeffs[-1] if lhs.coeffs else Fraction(0)
        expected_lead = Fraction((-1) ** k, 2**k * math.factorial(k))
        ok = equal and lead == expected_lead
        failures += not ok
        print(f"  P_{k} = {format_poly(lhs)}")
        print(f"      matches interpolated volume polynomial: "
              f"{'yes' if equal else 'NO'}; leading coefficient "
              f"{format_rational(lead)} (expected {format_rational(expected_lead)})")

    if failures:
        print(f"\n{failures} identity check(s) FAILED")
        return 1
    print("\nall identity checks pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
