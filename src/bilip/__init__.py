"""Numerical toolkit for Euclidean inversion, stereographic
compactification, and bi-Lipschitz distortion of sampled maps.

The submodules split along what they act on:

* ``geometry``: pointwise transforms and identities (inversion, the
  sphere embedding, pole charts, separation bounds).
* ``maps``: sampled and closed-form maps, the origin hypothesis,
  conjugation by inversion, compactification, the example registry.
* ``distortion``: empirical bi-Lipschitz constants and radial ratios.
* ``cones``: asymptotic directions, links, and the exchange of the
  two direction sets under inversion.
* ``serialize``: CSV/JSON persistence with exact float round trips.
* ``fixtures``: deterministic point clouds and sampled registry maps.
* ``verify``: named check suites used by the command line.

The most commonly used names are re-exported here.
"""

from .cones import (
    ConeKind,
    DirectionSet,
    ExchangeResiduals,
    angular_hausdorff,
    asymptotic_directions,
    link,
    verify_cone_exchange,
)
from .distortion import (
    AllPairs,
    DistortionReport,
    RadialReport,
    SeededRandom,
    estimate_bilip,
    radial_comparability,
)
from .errors import (
    BilipError,
    DegenerateData,
    DegenerateMap,
    DomainError,
    EmptyRestriction,
    HypothesisError,
    InsufficientPoints,
    OriginError,
    ParseError,
    PoleError,
)
from .geometry import (
    PointCloud,
    SeparationBounds,
    inversion_derivative_norm,
    invert,
    inverted_distance_residual,
    law_of_cosines_residual,
    norms,
    north_pole,
    pole_chart,
    pole_chart_exact,
    separation_bounds,
    stereo_embed,
    stereo_project,
)
from .maps import (
    Ambient,
    AnalyticMap,
    SampledMap,
    SamplerConfig,
    compactify_map,
    invert_map,
    registry,
    restrict_map,
    sample_analytic,
)
from .serialize import dumps_report, load_cloud, load_map, save_cloud, save_map

__version__ = "0.1.0"

__all__ = [
    "Ambient",
    "AllPairs",
    "AnalyticMap",
    "BilipError",
    "ConeKind",
    "DegenerateData",
    "DegenerateMap",
    "DirectionSet",
    "DistortionReport",
    "DomainError",
    "EmptyRestriction",
    "ExchangeResiduals",
    "HypothesisError",
    "InsufficientPoints",
    "OriginError",
    "ParseError",
    "PointCloud",
    "PoleError",
    "RadialReport",
    "SampledMap",
    "SamplerConfig",
    "SeededRandom",
    "SeparationBounds",
    "angular_hausdorff",
    "asymptotic_directions",
    "compactify_map",
    "dumps_report",
    "estimate_bilip",
    "inversion_derivative_norm",
    "invert",
    "invert_map",
    "inverted_distance_residual",
    "law_of_cosines_residual",
    "link",
    "load_cloud",
    "load_map",
    "norms",
    "north_pole",
    "pole_chart",
    "pole_chart_exact",
    "radial_comparability",
    "registry",
    "restrict_map",
    "sample_analytic",
    "save_cloud",
    "save_map",
    "separation_bounds",
    "stereo_embed",
    "stereo_project",
    "verify_cone_exchange",
]
