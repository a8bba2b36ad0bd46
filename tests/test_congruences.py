from fractions import Fraction

import pytest

from pfecalc import congruences
from pfecalc.congruences import FAMILIES, check_family, family, scan


def test_family_lookup():
    fam = family(5, 4)
    assert fam.modulus == 5 and fam.k == 4 and fam.r_residue == 1
    assert len(FAMILIES) == 6
    with pytest.raises(ValueError):
        family(5, 0)
    with pytest.raises(ValueError):
        family(7, 1)


def test_classic_ramanujan_case():
    # ordinary partition function: p(5m + 4) = 0 mod 5
    report = check_family(family(5, 4), 1, 40)
    assert report.passed, report.describe()


def test_mod5_families_small():
    for fam in FAMILIES:
        if fam.modulus != 5:
            continue
        for r in (fam.r_residue, fam.r_residue + 5, fam.r_residue - 5):
            report = check_family(fam, r, 25)
            assert report.passed, (fam, r, report.describe())


def test_mod3_families_small():
    for fam in FAMILIES:
        if fam.modulus != 3:
            continue
        for r in (3, -3, 6, 9):
            report = check_family(fam, r, 25)
            assert report.passed, (fam, r, report.describe())


def test_rational_r_read_padically():
    # 1/6 = 1 (mod 5) since v_5(1/6 - 1) = 1; it belongs to the k = 4 family
    report = check_family(family(5, 4), Fraction(1, 6), 20)
    assert report.passed, report.describe()


def test_negative_r():
    report = check_family(family(5, 4), -24, 25)
    assert report.passed, report.describe()


def test_residue_violations_raise():
    with pytest.raises(ValueError):
        check_family(family(5, 4), 2, 10)
    with pytest.raises(ValueError):
        check_family(family(5, 4), Fraction(1, 5), 10)  # 5 in the denominator
    with pytest.raises(ValueError):
        check_family(family(3, 1), Fraction(3, 2), 10)  # mod-3 needs integer r
    with pytest.raises(ValueError):
        check_family(family(3, 1), 4, 10)


def test_scan_table():
    table = scan(5, [1], 20)
    assert table[(Fraction(1), 4)] is True
    # p(5m + k) is not uniformly divisible by 5 for the other offsets
    assert not all(table[(Fraction(1), k)] for k in (0, 1, 2, 3))
    with pytest.raises(ValueError):
        scan(7, [1], 5)


def test_negative_max_m_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        check_family(family(5, 4), 1, -1)
    with pytest.raises(ValueError, match="non-negative"):
        scan(5, [1], -1)
    assert check_family(family(5, 4), 1, 0).passed
