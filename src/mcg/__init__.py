"""Symbolic verifier for generating-set derivations in big mapping class groups.

The package replays derivations written in a small proof-script language over
three infinite-genus surface models, deciding word identities between
products of Dehn twists, handle shifts and finite-order symmetries by
normalization (free reduction, commutation, braid moves), cross-checked by an
exact integer homology oracle and a permutation-group oracle on the ends.
"""

from .labels import CurveLabel, ShiftLabel
from .modelfile import load_model, parse_model_file, parse_model_text
from .models import SurfaceModel

intersection_number = SurfaceModel.intersection
validate_model = SurfaceModel.validate

__all__ = [
    "CurveLabel",
    "ShiftLabel",
    "SurfaceModel",
    "intersection_number",
    "load_model",
    "parse_model_file",
    "parse_model_text",
    "validate_model",
]

__version__ = "0.1.0"
