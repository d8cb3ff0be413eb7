"""Exception taxonomy for the radiotree package.

Every error raised on bad input derives from :class:`RadioTreeError`, so
callers (and the CLI) can distinguish input problems from genuine bugs.
"""


class RadioTreeError(Exception):
    """Base class for all radiotree input/contract errors."""


# --- tree construction -----------------------------------------------------

class NotATree(RadioTreeError):
    """Edge list does not describe a tree (cycle, disconnected, wrong count)."""


class BadEdge(RadioTreeError):
    """Self-loop or duplicate edge."""


class SparseIds(RadioTreeError):
    """Vertex ids are not the contiguous range 0..max."""


class BadVertex(RadioTreeError):
    """Vertex id out of range for the tree."""


class DiameterTooSmall(RadioTreeError):
    """Operation requires a larger diameter than the tree has: the basic
    bound and its tightness conditions need diameter >= 2, the comparison
    bounds half-diameter >= 2 (diameter >= 4 even, >= 5 odd)."""


# --- orders ----------------------------------------------------------------

class NotAPermutation(RadioTreeError):
    """Order is not a permutation of the vertex set."""


class NotTwoBranch(RadioTreeError):
    """Operation is defined only for two-branch trees."""


class InfeasibleASequence(RadioTreeError):
    """An a-sequence does not start with a_0 = 0 (raised by
    :class:`radiotree.orders.ASequence`; :func:`radiotree.orders.a_sequence`
    always yields a_0 = 0 and every a_t in {0, |W|})."""


class LengthMismatch(RadioTreeError):
    """Sequence length does not match the order/tree size."""


# --- labellings ------------------------------------------------------------

class NegativeLabel(RadioTreeError):
    """A label is negative (for a constructed labelling: the recurrence
    dipped below zero, which signals a non-certifying order)."""


class NonIntegerLabel(RadioTreeError):
    """A label is not an integer."""


class MissingLabel(RadioTreeError):
    """Some vertex has no label."""


class DuplicateLabel(RadioTreeError):
    """Two vertices share a label where distinct labels are required, or
    (from :func:`radiotree.labelling.parse_labels_text`) a labels file
    labels one vertex twice."""


# --- bounds / certification ------------------------------------------------

class CertificationFailure(RadioTreeError):
    """Optimality certification failed at a named pipeline stage: a stage of
    :func:`radiotree.bounds.certify_tightness`, or, for a family's proof
    order, ``positions`` (not a permutation) or ``span`` (not the closed
    form)."""

    def __init__(self, stage: str, detail: str):
        self.stage = stage
        self.detail = detail
        super().__init__(f"certification failed at stage '{stage}': {detail}")


class NotOmegaTree(RadioTreeError):
    """Tree/vertex pair outside the comparison-bound frame (need a degree-2
    weight center and the right diameter parity)."""


# --- solver ----------------------------------------------------------------

class OrderTooLarge(RadioTreeError):
    """A tree above a vertex-count limit: the depth the exact solver's
    recursive search can reach, or :data:`radiotree.families.MAX_VERTICES`
    for a family instance, which its generator refuses before building
    anything."""


# --- families --------------------------------------------------------------

class BadParams(RadioTreeError):
    """Family parameters outside the generator's domain."""


class UnsupportedParams(RadioTreeError):
    """Proof-order construction not available for these parameters."""


class ExhaustedAttempts(RadioTreeError):
    """Rejection sampling gave up."""


class OutOfRange(RadioTreeError):
    """Closed-form parameters outside the formula's stated range."""
