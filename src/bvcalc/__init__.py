"""bvcalc: symbolic variational calculus for the Batalin-Vilkovisky setup on
jet spaces: graded jet expressions, Euler operators, the variational Schouten
bracket and BV-Laplacian in geometric (frozen-channel) and naive modes, with
machine checks of their canonical interrelations."""

from .coeff import Coefficient
from .algebra import (
    Atom,
    Attach,
    BaseVar,
    Expr,
    GhostNumberError,
    JetVar,
    ParityError,
    Trig,
    make_attach,
)
from .jetcalc import (
    BvModel,
    collapse,
    euler,
    euler_left,
    iterated_variation,
    partial,
    total_derivative,
)
from .grammar import ParseError, format_expr, parse_expr, parse_model_file
from .cohomology import (
    Functional,
    functional_equal,
    is_trivial,
)
from .bv import (
    GEOMETRIC,
    NAIVE,
    check_identity,
    check_master_equation,
    laplacian,
    omega,
    schouten,
)
from .models import (
    LieAlgebraData,
    build_scalar_example,
    build_yang_mills_bv,
    random_functional,
)
from .oracle import GrassmannNumber, SectionSpec, evaluate

__all__ = [
    "Atom", "Attach", "BaseVar", "BvModel", "Coefficient", "Expr",
    "Functional", "GEOMETRIC", "GhostNumberError", "GrassmannNumber",
    "JetVar", "LieAlgebraData", "NAIVE", "ParityError", "ParseError",
    "SectionSpec", "Trig",
    "build_scalar_example", "build_yang_mills_bv",
    "check_identity", "check_master_equation", "collapse",
    "euler", "euler_left", "evaluate", "format_expr", "functional_equal",
    "is_trivial", "iterated_variation", "laplacian", "make_attach", "omega",
    "parse_expr", "parse_model_file", "partial", "random_functional",
    "schouten", "total_derivative",
]

__version__ = "0.1.0"
