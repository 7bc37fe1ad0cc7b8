"""Exact rational integration over finite measure spaces.

Two constructions of the integral, both computed exactly:

* the monotone (Lebesgue-style) scheme: simple functions, a fixed dyadic
  staircase approximation for nonnegative integrands, and the
  positive/negative decomposition;
* the series-based (Bochner-style) scheme: absolutely summable series of
  simple functions with exact summability certificates.

`series_from_integrand`, `integral_from_series` and `equivalence_report`
realize the equivalence of the two schemes as executable, certified
transformations in both directions.
"""

from .rationals import ONE, ZERO, decimal_string, parse_rational
from .spaces import (
    UNIT_INTERVAL,
    DiscreteSet,
    DiscreteSpace,
    IntervalMeasure,
    IntervalSet,
    Measure,
    MeasurableSet,
    OutsideDomainError,
    Space,
    SpaceMismatchError,
    UnitIntervalSpace,
    space_of,
)
from .simple import NormKind, SimpleFunction, Vec, integrate_simple
from .piecewise import PiecewiseLinear
from .lebesgue import (
    DyadicApproximation,
    Integrand,
    IntegralResult,
    NegativeIntegrandError,
    integrate_nonneg,
    integrate_over,
    lebesgue_integral,
)
from .bochner import (
    BochnerRepresentation,
    CertificateError,
    FiniteSeries,
    FunctionSeries,
    GeometricIndicatorSeries,
    SeriesIntegralResult,
    TelescopeSeries,
    bochner_integrate,
    equivalence_report,
    integral_from_series,
    l1_norm,
    series_from_integrand,
)
from .generators import (
    FAMILIES,
    GeneratedCase,
    GeneratorConfig,
    generate,
    generate_stream,
    random_measure,
    random_piecewise_linear,
    random_series,
    random_simple_function,
    sample_points,
    split_representation,
)
from .tasks import (
    TaskSpec,
    TaskSpecError,
    approx_table_rows,
    load_task,
    parse_task_document,
    render_report,
    render_table_csv,
)

__version__ = "0.1.0"
