"""Infinite congruence families for powers of the partition generating function.

For rational r, the coefficients P_r of the r-th power of 1/(q;q)_inf satisfy
P_r(5m+4) = 0 mod 5 whenever r = 1 mod 5, and five more families like it.
"Mod p" for rational values means p-adic valuation >= 1, and the residue
condition on rational r is read p-adically: v_p(r - c) >= 1.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import padic_valuation
from .identities import partition_power
from .report import check_all


@dataclass(frozen=True)
class CongruenceFamily:
    modulus: int  # 5 or 3
    k: int  # residue of the argument: P_r(modulus*m + k)
    r_residue: int  # required residue of r mod modulus
    description: str


FAMILIES = (
    CongruenceFamily(5, 1, 0, "P_r(5m+1) = 0 mod 5 when r = 0 mod 5"),
    CongruenceFamily(5, 2, 2, "P_r(5m+2) = 0 mod 5 when r = 2 mod 5"),
    CongruenceFamily(5, 3, 4, "P_r(5m+3) = 0 mod 5 when r = 4 mod 5"),
    CongruenceFamily(5, 4, 1, "P_r(5m+4) = 0 mod 5 when r = 1 mod 5"),
    CongruenceFamily(3, 1, 0, "P_r(3m+1) = 0 mod 3 when r = 0 mod 3"),
    CongruenceFamily(3, 2, 0, "P_r(3m+2) = 0 mod 3 when r = 0 mod 3"),
)


def family(modulus, k):
    for fam in FAMILIES:
        if fam.modulus == modulus and fam.k == k:
            return fam
    raise ValueError(f"no registered family with modulus {modulus} and offset {k}")


def _check_residue(fam, r):
    r = Fraction(r)
    if fam.modulus == 3:
        if r.denominator != 1:
            raise ValueError("the mod-3 families require an integer r")
        if r % 3 != fam.r_residue:
            raise ValueError(f"r = {r} violates the condition of: {fam.description}")
        return r
    if padic_valuation(r, 5) < 0:
        raise ValueError("r must have no 5 in its denominator")
    if r != fam.r_residue and padic_valuation(r - fam.r_residue, 5) < 1:
        raise ValueError(f"r = {r} violates the condition of: {fam.description}")
    return r


def _check_m(M):
    if M < 0:
        raise ValueError(f"max m must be non-negative, got {M}")


def check_family(fam, r, M):
    """Verify v_p(P_r(p*m + k)) >= 1 for 0 <= m <= M; exact, reported per index."""
    r = _check_residue(fam, r)
    _check_m(M)
    p, k = fam.modulus, fam.k
    N = p * M + k
    P = partition_power(r, N, method="triangular")

    def pairs():
        for m in range(M + 1):
            n = p * m + k
            ok = padic_valuation(P[n], p) >= 1
            yield n, ok, True

    name = f"congruence[p={p},k={k},r={r}]"
    return check_all(name, N, pairs())


def scan(p, r_candidates, M):
    """Exhaustive residue-class table: (r, k) -> does v_p stay >= 1 up to M.

    No claim is made for cells outside the registered families; the table just
    reports what the computation finds.
    """
    if p not in (3, 5):
        raise ValueError("p must be 3 or 5")
    _check_m(M)
    table = {}
    for r in r_candidates:
        r = Fraction(r)
        N = p * M + (p - 1)
        P = partition_power(r, N, method="triangular")
        for k in range(p):
            ok = all(
                padic_valuation(P[p * m + k], p) >= 1
                for m in range(M + 1)
                if p * m + k >= 1
            )
            table[(r, k)] = ok
    return table
