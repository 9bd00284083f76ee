"""Exception hierarchy shared across the toolkit.

Two families matter to callers: DataError (bad inputs, schemas, files) and
NumericalError (degenerate or non-finite math). The CLI maps them to exit
codes 2 and 3 respectively.
"""


class GeomatchError(Exception):
    pass


class DataError(GeomatchError):
    pass


class NumericalError(GeomatchError):
    pass


# geometry
class EmptyMesh(DataError):
    pass


class TooFewPoints(DataError):
    pass


class FullyCropped(DataError):
    pass


# kinematics
class DegenerateInput(NumericalError):
    pass


class NotARotation(NumericalError):
    pass


class LimitViolation(DataError):
    pass


# contact maps / tensors
class TooFewVertices(DataError):
    pass


class ShapeMismatch(DataError):
    pass


class MissingGradient(DataError):
    pass


class IndexOutOfRange(DataError):
    pass


# training / inference
class EmptyDataset(DataError):
    pass


class EmptyScores(DataError):
    pass


# ik solver
class InfeasibleStart(NumericalError):
    pass


class NonFiniteResidual(NumericalError):
    pass


# evaluation
class TooFewPoses(DataError):
    pass


# dataset / io
class MissingFile(DataError):
    pass


class SchemaError(DataError):
    pass


class UnknownEe(DataError):
    pass


class IoError(DataError):
    pass
