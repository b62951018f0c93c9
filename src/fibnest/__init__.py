"""Nested Fibonacci-interval certificates with exact verification of
Littlewood-type product bounds."""

from .bounds import (
    ErrorBudget,
    LittlewoodResult,
    MinRecord,
    ProxyTooShallow,
    check_min_product_bound,
    check_nonconvergent_gap,
    convergent_gap,
    limit_table,
    limit_table_csv,
    littlewood_lower_bound,
    min_product,
    star_discrepancy,
    star_discrepancy_of_points,
)
from .exact import Rat, UnitInterval, rat_decimal, rat_str
from .fib import fib, fib_index_at_least, golden_convergent
from .lattice import witness_point
from .nest import (
    Certificate,
    DepthUnreachable,
    Stage,
    Verified,
    build,
    certificate_from_json,
    certificate_to_json,
    seed_stage,
    verify,
    verify_certificate,
)
from .report import BoundReport, ReportBundle
from .search import (
    TwoScaleExhausted,
    find_brute,
    find_two_scale,
    find_witness,
    select_kstar,
)
from .surd import GOLDEN_INV_SQ, GOLDEN_SQ, Quad

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Certificate",
    "DepthUnreachable",
    "ErrorBudget",
    "GOLDEN_INV_SQ",
    "GOLDEN_SQ",
    "LittlewoodResult",
    "MinRecord",
    "ProxyTooShallow",
    "Quad",
    "Rat",
    "ReportBundle",
    "Stage",
    "TwoScaleExhausted",
    "UnitInterval",
    "Verified",
    "build",
    "certificate_from_json",
    "certificate_to_json",
    "check_min_product_bound",
    "check_nonconvergent_gap",
    "convergent_gap",
    "fib",
    "fib_index_at_least",
    "find_brute",
    "find_two_scale",
    "find_witness",
    "golden_convergent",
    "limit_table",
    "limit_table_csv",
    "littlewood_lower_bound",
    "min_product",
    "rat_decimal",
    "rat_str",
    "seed_stage",
    "select_kstar",
    "star_discrepancy",
    "star_discrepancy_of_points",
    "verify",
    "verify_certificate",
    "witness_point",
]
