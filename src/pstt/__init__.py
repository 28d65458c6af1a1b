"""A typed language for complete quantum pulse schedules.

Terms in a graded linear calculus describe which pulse plays on which
channel when; the type system guarantees every accepted program yields a
schedule with no gaps and no overlapping inputs.
"""

__version__ = "0.1.0"

from .chip import (
    Calibration,
    ChipError,
    ChipSpec,
    GateDecl,
    QubitId,
    delay_gate,
    parse_chip_spec,
)
from .equality import (
    BudgetExceeded,
    EqKind,
    EqVerdict,
    NormalForm,
    judgementally_equal,
    normalize,
)
from .schedule import (
    Channel,
    MissingCalibration,
    Schedule,
    Unschedulable,
    ValidationReport,
    emit,
    from_json,
    to_json,
    validate,
)
from .surface import (
    Declaration,
    Diagnostic,
    ParseError,
    SourceFile,
    parse,
    parse_term,
    parse_type,
    print_context,
    print_judgement,
    print_term,
    print_type,
)
from .syntax import (
    Box,
    BoxIntro,
    Context,
    CtxEntry,
    GateApp,
    Grade,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Qubit,
    Star,
    Tensor,
    TermExpr,
    TypeExpr,
    Unit,
    Var,
    alpha_eq,
    free_vars,
    make_context,
    shift_context,
    substitute,
)
from .typecheck import Derivation, ErrorKind, TypingError, check, infer

__all__ = [
    "__version__",
    # chip
    "Calibration", "ChipError", "ChipSpec", "GateDecl", "QubitId",
    "delay_gate", "parse_chip_spec",
    # syntax
    "Box", "BoxIntro", "Context", "CtxEntry", "GateApp", "Grade",
    "Judgement", "LetBox", "LetPair", "LetStar", "Pair", "Qubit", "Star",
    "Tensor", "TermExpr", "TypeExpr", "Unit", "Var", "alpha_eq",
    "free_vars", "make_context", "shift_context", "substitute",
    # surface
    "Declaration", "Diagnostic", "ParseError", "SourceFile", "parse",
    "parse_term", "parse_type", "print_context", "print_judgement",
    "print_term", "print_type",
    # typecheck
    "Derivation", "ErrorKind", "TypingError", "check", "infer",
    # equality
    "BudgetExceeded", "EqKind", "EqVerdict", "NormalForm",
    "judgementally_equal", "normalize",
    # schedule
    "Channel", "MissingCalibration", "Schedule", "Unschedulable", "ValidationReport",
    "emit", "from_json", "to_json", "validate",
]
