"""Exact evaluation of Newman digit sums S_{m,l}(x) with a brute-force
oracle, two O(log N)-step algorithms for S_{3,0}, sharp growth bounds,
and a verification CLI."""

from .core import (
    digit_sum,
    thue_morse_sign,
    bit_exponents,
    alt_exponent_sum,
    classify_prefix,
    power_sum,
    dyadic_sum,
    boundary_term,
    newman_sum_decomposition,
    decomposition_terms,
    recursion_correction,
    newman_sum_recursive,
    recursion_trace,
    residue_sum,
    six_residue_sum,
    scaled_residue_sum,
)
from .oracle import (
    OracleCapError,
    DEFAULT_ORACLE_CAP,
    KERNEL_BACKEND,
    oracle_cap,
    oracle_sum,
    oracle_interval_sum,
    oracle_prefix,
)
from .analysis import (
    LAMBDA,
    growth_exponent,
    delta_liminf,
    delta_limsup,
    ratio_liminf,
    ratio_limsup,
    delta,
    lower_bound,
    upper_bound,
    coquet_ratio,
    newman_inequality_check,
    eta_defined,
    eta_derived,
    eta_half,
    DeltaRecord,
    delta_record,
    extremal_sequences,
    scan,
    EtaRow,
    eta_row,
    eta_rows,
)
from .verify import CheckReport, run_core_checks, BoundsReport, bounds_sweep

__version__ = "0.1.0"
