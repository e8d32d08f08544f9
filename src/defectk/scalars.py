"""The characteristics of the prime fields.

Every form, ideal piece and functional has rational coefficients, held as
ints or ``fractions.Fraction``s.  A prime field F_p appears only as residues on
plain ints: the modular ranks of point sets (``ideals``,
``linalg.IntForwardEchelon``, the oracle ``linalg.rank``) and the
``--probe-prime`` sweep (``defect.sweep_singular_points``).  This module
decides which p those accept.
"""

from __future__ import annotations


# Miller-Rabin with the bases 2, 3, 5, 7 has no strong pseudoprime below
# this bound (Pomerance-Selfridge-Wagstaff 1980), which lies above every
# allowed characteristic.
_MILLER_RABIN_BOUND = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, 5, 7, exact for
    n < 3,215,031,751; larger n raise ValueError."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"primality is only decided below {_MILLER_RABIN_BOUND}, got {n}")
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_characteristic(p: int) -> int:
    if not (2 < p <= 2**31 and p % 2 == 1 and is_prime(p)):
        raise ValueError(f"characteristic must be an odd prime <= 2^31, got {p}")
    return p
