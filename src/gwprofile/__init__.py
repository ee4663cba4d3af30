"""gwprofile: labelled Galton-Watson trees, excursion decompositions,
vertical edge-profile Markov chains, and quadrangulation ball profiles.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    GWProfileError,
    IntegrityError,
    ReconstructionError,
    ResourceLimitError,
    TreeParseError,
)
from .model import (
    DisplacementFamily,
    OffspringDistribution,
    TreeModel,
    builtin_model,
    excursion_weight,
    load_model,
    parse_model_config,
    resolve_model,
    tree_weight,
)
from .tree import (
    LabelledPlaneTree,
    VerticalEdgeProfile,
    decode,
    edge_profile,
    encode,
    truncate,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DomainError",
    "GWProfileError",
    "IntegrityError",
    "ReconstructionError",
    "ResourceLimitError",
    "TreeParseError",
    "DisplacementFamily",
    "OffspringDistribution",
    "TreeModel",
    "builtin_model",
    "excursion_weight",
    "load_model",
    "parse_model_config",
    "resolve_model",
    "tree_weight",
    "LabelledPlaneTree",
    "VerticalEdgeProfile",
    "decode",
    "edge_profile",
    "encode",
    "truncate",
]
