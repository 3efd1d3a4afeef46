"""Turing-machine workbench: simulation under selectable transition-cost
models, measure-function bound checking, certificate-based nondeterminism,
and lookup-trie machine synthesis for language-sequence convergence.

The names imported below are the package's public API; `from tmbench import *`
binds each of them.
"""

from tmbench.machine import (
    BLANK,
    LEFT,
    RIGHT,
    Configuration,
    Machine,
    RunResult,
    StepRecord,
    Verdict,
    InvalidInputError,
    run,
    validate_machine,
)
from tmbench.cost import (
    COUNT_ALL,
    FREE_BLIND,
    CostModel,
    counted_set,
    is_blind_state,
    parse_cost_model,
)
from tmbench.measures import (
    BoundReport,
    BoundSpec,
    MeasureFunction,
    check_bound,
    check_monotone_sample,
    evaluate,
    parse_measure,
)
from tmbench.nondet import (
    CertificateBudgetError,
    CertificateSearchReport,
    CheckingRelation,
    build_demo_machines,
    decide_nc,
    decide_nt,
)
from tmbench.convergence import (
    BUILTIN_LANGUAGES,
    ConvergenceReport,
    TrieMachineReport,
    TrieSizeError,
    build_trie_machine,
    find_convergence_index,
    finite_language,
    verify_trie,
)
from tmbench.textfmt import MachineParseError, emit_machine, parse_machine_file

