"""Strand-space protocol models with symbolic operation costs.

Parse a protocol description, project it onto per-role knowledge strands,
compile each strand into typed cryptographic operation strands, and
compute, simplify, compare, or numerically evaluate the resulting
symbolic costs.
"""

from .config import load_config, parse_config
from .costs import (
    DEFAULT_ASSUMPTIONS,
    ZERO_COST,
    Affine,
    App,
    AssumptionSet,
    CompareResult,
    CostExpr,
    CostFunc,
    CostModel,
    LambdaC,
    LambdaP,
    Overhead,
    Verdict,
    compare,
    cost_expr,
    cost_of_space,
    eval_cost,
    expand_additivity,
    expand_one,
    render_cost,
    render_cost_term,
    simplify,
)
from .errors import (
    AmbiguousMatch,
    ConfigError,
    DuplicateDeclaration,
    InvalidOpStrand,
    KindMismatch,
    ParseError,
    SelfMessage,
    ShapeViolation,
    SpaError,
    UndeclaredIdentifier,
    Ungeneratable,
    UnknownRole,
    Unrecoverable,
)
from .extraction import Extraction, extract
from .oracle import op_count_oracle
from .parser import (
    Message,
    ProtocolSpec,
    fresh_atoms,
    parse,
    project,
    render_spec,
)
from .sizes import (
    AsymSize,
    HashSize,
    SizeExpr,
    SizeModel,
    Sum,
    TypeSize,
    ZERO,
    add,
    addend_count,
    as_multiset,
    contains_hash,
    delta,
    eval_size,
    lambda_a,
    lambda_h,
    lambda_s,
    normalize,
    render_size,
    ssum,
)
from .strands import (
    Classifier,
    KStrand,
    Node,
    StrandSpace,
    TStrand,
    edges,
    enumerate_nodes,
    render_kstrand,
    render_tstrand,
    validate_op_strand,
)
from .terms import (
    Atom,
    AtomKind,
    Basic,
    BasicTT,
    Empty,
    Enc,
    FuncName,
    Pair,
    SignedTerm,
    SignedTTerm,
    TEmpty,
    TEnc,
    TPair,
    TTerm,
    Term,
    atoms_of,
    pair_of,
    render_signed,
    render_term,
    render_tterm,
    type_erase,
)

__version__ = "0.1.0"
