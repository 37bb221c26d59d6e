"""Conjugacy-class products and their decompositions in finite groups.

The package computes a^G * b^G for conjugacy classes of finite groups,
splits the product into classes (the eta invariant), and runs exhaustive
falsification sweeps of the structural claims about those products on a
deterministic corpus of p-groups.
"""

from .classes import (
    ClassDecomposition,
    ClassPartition,
    CommutatorSet,
    ConjugacyClass,
    class_partition,
    class_product,
    commutator_set,
    conjugacy_class,
    eta_one_criterion,
)
from .constructions import (
    ConstructionSpec,
    build,
    corpus,
    distinguished_element,
    predicted_order,
)
from .errors import (
    ClassprodError,
    EnumerationCapError,
    EvenPrimeError,
    ForeignElementError,
    FormatError,
    GroupMismatchError,
    InvalidParameterError,
    InvalidPrimeError,
    NotAPGroupError,
    PreconditionViolatedError,
    UnknownGeneratorError,
    UnsupportedRoleError,
    WordParseError,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    CayleyTableGroup,
    Element,
    GroupHandle,
    PermutationGroup,
    SubgroupView,
    center,
    centralizer,
)
from .verify import (
    SpectrumEntry,
    TheoremReport,
    Violation,
    eta_spectrum,
    reproduce_examples,
    verify_size_two,
    verify_theorem_a,
    verify_theorem_b,
)
from .words import parse_element_word

__version__ = "0.1.0"

__all__ = [
    "CayleyTableGroup",
    "ClassDecomposition",
    "ClassPartition",
    "ClassprodError",
    "CommutatorSet",
    "ConjugacyClass",
    "ConstructionSpec",
    "DEFAULT_ORDER_CAP",
    "Element",
    "EnumerationCapError",
    "EvenPrimeError",
    "ForeignElementError",
    "FormatError",
    "GroupHandle",
    "GroupMismatchError",
    "InvalidParameterError",
    "InvalidPrimeError",
    "NotAPGroupError",
    "PermutationGroup",
    "PreconditionViolatedError",
    "SpectrumEntry",
    "SubgroupView",
    "TheoremReport",
    "UnknownGeneratorError",
    "UnsupportedRoleError",
    "Violation",
    "WordParseError",
    "build",
    "center",
    "centralizer",
    "class_partition",
    "class_product",
    "commutator_set",
    "conjugacy_class",
    "corpus",
    "distinguished_element",
    "eta_one_criterion",
    "eta_spectrum",
    "parse_element_word",
    "predicted_order",
    "reproduce_examples",
    "verify_size_two",
    "verify_theorem_a",
    "verify_theorem_b",
]
