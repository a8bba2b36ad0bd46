"""Exact partition-frequency enumeration calculus.

Generate partition-type sequences and frequency tables from product
specifications, convert between series and product representations, and
verify the catalog of recurrences, divisibility theorems, and congruence
families — all in exact rational arithmetic.
"""

from .arith import (
    bernoulli,
    mobius,
    mobius_inversion,
    padic_valuation,
    pentagonal_sign,
    rising_factorial,
    sigma,
    sigma_odd_even,
)
from .series import TruncatedSeries
from .pfe import (
    CombinedRow,
    EnumerationError,
    EnumerationResult,
    ExplicitRow,
    PfeMatrix,
    ProductRow,
    build_product_matrix,
    collapse_form1,
    column_weight_sums,
    enumerate_pfe,
    frequency_row_check,
    g_to_pfe,
    series_to_pfe,
    verify_divisor_sum,
)
from .identities import (
    IDENTITY_KEYS,
    SERIES_NAMES,
    named_series,
    partition_power,
    tau,
    verify,
    zeta_hat,
)
from .roots import integrality_check, prime_power_divisibility, root_integrality
from .congruences import FAMILIES, CongruenceFamily, check_family, family, scan
from .report import IdentityReport

__version__ = "0.1.0"
