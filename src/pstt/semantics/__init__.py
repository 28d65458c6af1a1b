"""Categorical models and the generic interpreter: the oracle the compiler is tested against."""

from .interpret import context_obj, context_shape, interpret
from .laws import (
    LawCheckConfig,
    LawReport,
    check_model_laws,
    sample_pulse_morphisms,
    sample_pulse_objects,
)
from .model import Model, ModelError
from .pulse import (
    Provenance,
    PulseModel,
    PulseMorphism,
    PulseObject,
    type_pulse_object,
)
from .syntactic import SynMorphism, SyntacticModel

__all__ = [
    "Model",
    "ModelError",
    "PulseModel",
    "PulseMorphism",
    "PulseObject",
    "Provenance",
    "SynMorphism",
    "SyntacticModel",
    "LawCheckConfig",
    "LawReport",
    "check_model_laws",
    "context_obj",
    "context_shape",
    "interpret",
    "sample_pulse_morphisms",
    "sample_pulse_objects",
    "type_pulse_object",
]
