"""Exception hierarchy shared by all glmn modules."""


class GlmnError(Exception):
    """Base class for all library errors."""


# --- field construction ---

class CompositeP(GlmnError):
    pass


class PTooSmall(GlmnError):
    pass


class NonIrreducibleModulus(GlmnError):
    pass


# --- algebra structure ---

class BadDims(GlmnError):
    pass


class OddInput(GlmnError):
    pass


class OddReflectionOnWeight(GlmnError):
    pass


class InvalidSupport(GlmnError):
    pass


# --- enveloping algebra ---

class NotWeightZero(GlmnError):
    pass


class MixedParity(GlmnError):
    pass


# --- module construction ---

class ChiNotBorelCompatible(GlmnError):
    pass


class LambdaNotInX(GlmnError):
    pass


class NonScalarResult(GlmnError):
    pass


class NotG0Module(GlmnError):
    pass


class NotMaximal(GlmnError):
    pass


class IntertwinerCheckFailed(GlmnError):
    pass


# --- module analysis ---

class ZeroVector(GlmnError):
    pass


class NotWeightBasis(GlmnError):
    """A Cartan matrix has an off-diagonal entry, so weight spaces are not
    coordinate blocks of the module's basis."""


class NoMaximalVector(GlmnError):
    pass


class NotClosed(GlmnError):
    pass


class NotCyclic(GlmnError):
    """A module with Cartan units is not cyclic over u(n-, chi)."""


class ShiftInconsistent(GlmnError):
    """No consistent one-dimensional shifted-trivial module for a unipotent
    subalgebra; the joint-kernel oracle is not applicable."""


# --- KW reduction ---

class NotNormalized(GlmnError):
    pass


class ClosureFailure(GlmnError):
    pass


class OrderingStuck(GlmnError):
    pass


class FormulaMismatch(GlmnError):
    pass


class NotStandardLevi(GlmnError):
    pass


class SingularG(GlmnError):
    pass


class NotNormalizable(GlmnError):
    """An eigenvalue of chi's even avatar lies outside the field, so chi has
    no standard Levi form over it; the CLI exits with code 2."""


# --- CLI ---

class ConfigInvalid(GlmnError):
    pass


class BudgetExceeded(GlmnError):
    """A budget (the field size, a module's dimension, dim u(sub), a table's
    entries) would be exceeded; the CLI exits with code 2."""
