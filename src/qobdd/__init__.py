"""Quantum OBDD compiler and exact simulator for characteristic polynomials."""

from .compiler import (
    Compilation,
    closed_form_general,
    closed_form_single,
    compile_general,
    compile_single,
    error_bound_general,
)
from .goodsets import (
    GoodSet,
    is_good_for,
    required_size,
    required_size_raw,
    sample,
    sample_good,
    verify_exhaustive,
)
from .hsf import (
    FiniteGroup,
    HSFInstance,
    compile_hsf,
    coset_decomposition,
    cyclic_subgroup,
    decode_input,
    encode_values,
    hsf_characteristic,
    hsf_eval,
)
from .polynomials import (
    Characteristic,
    LinearPolynomial,
    MultilinearPolynomial,
    SOPFormula,
    eq_polynomial,
    mod_polynomial,
    palindrome_polynomial,
    perm_polynomial,
    sop_to_polynomial,
)
from .programs import (
    Instruction,
    ProgramMetrics,
    QuantumBranchingProgram,
    accept_probability,
    metrics,
)
from .verification import (
    NamedOracle,
    VerificationReport,
    certify_general,
    certify_hsf,
    certify_single,
    named_function,
    verify,
    width_table,
)

__version__ = "0.1.0"
