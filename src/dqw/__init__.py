"""dqw: an exact-arithmetic workbench for deformation quantization on R^d.

Everything is computed over the rationals: polynomial algebras, star
products built three ways (constant-structure exponential, enveloping
algebra, Hausdorff series), and the graph/weight calculus that ties the
third construction to a sum over admissible diagrams.
"""

from .poly import Polynomial, Rational, parse_polynomial
from .series import EpsSeries, NCSeries, nc_exp, nc_log
from .bernoulli import bernoulli_number, bernoulli_polynomial
from .freelie import (
    FreeLie,
    LieSeries,
    free_lie,
    hausdorff_linear_in_y,
    hausdorff_series,
    lie_to_lgraph,
    parse_bracket,
    format_bracket,
)
from .liealg import (
    PoissonStructure,
    StructureConstants,
    builtin_algebra,
    constant_poisson,
    heisenberg,
    killing_matrix,
    linear_poisson,
    moyal_trick,
    solvable2,
    strictly_upper,
)
from .graphs import (
    AdmissibleGraph,
    canonical_form,
    chain_graph,
    classify,
    enumerate_graphs,
    format_graph,
    graph_product,
    parse_graph,
    symmetry_count,
)
from .bidiff import BiDiffOp, wedge_operator
from .pbw import enveloping_algebra, uea_star
from .star import (
    StarProduct,
    cbh_product,
    check_associativity,
    check_equivalence,
    moyal_product,
    uea_product,
    xn_star_y,
)
from .weights import (
    Weight,
    iterated_integral_weight,
    normalized_weight,
    pn_polynomial,
    product_weight,
    weight_w_computable,
)
from .kontsevich import (
    assemble_linear_star,
    assemble_xn_star_y,
    graph_to_operator,
    loop_vanishing_report,
    prime_type_table,
)

__version__ = "0.1.0"
