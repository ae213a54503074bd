"""Symbolic verifier for generating-set derivations in big mapping class groups.

The package replays derivations written in a small proof-script language over
three infinite-genus surface models, deciding word identities between
products of Dehn twists, handle shifts and finite-order symmetries by
normalization (free reduction, commutation, braid moves), cross-checked by an
exact integer homology oracle and a permutation-group oracle on the ends.
"""

from .labels import CurveLabel, ShiftLabel
from .modelfile import load_model, parse_model_file, parse_model_text
from .models import (
    SurfaceModel,
    apply_symmetry,
    apply_symmetry_shift,
    intersection_number,
    validate_model,
)

__all__ = [
    "CurveLabel",
    "ShiftLabel",
    "SurfaceModel",
    "apply_symmetry",
    "apply_symmetry_shift",
    "intersection_number",
    "load_model",
    "parse_model_file",
    "parse_model_text",
    "validate_model",
]

__version__ = "0.1.0"
