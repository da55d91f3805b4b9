"""Exception types shared across the pipeline."""


class DataError(Exception):
    """Base class for malformed or inconsistent input data."""


class MalformedFileError(DataError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class DanglingReferenceError(DataError):
    """A record references an id that does not exist."""


class UnsupportedCameraModelError(DataError):
    """Camera model other than PINHOLE / SIMPLE_PINHOLE."""


class InsufficientCandidatesError(DataError):
    """Fewer eligible points than requested landmarks."""

    def __init__(self, requested, achievable):
        super().__init__(
            f"requested {requested} landmarks but only {achievable} are achievable"
        )
        self.requested = requested
        self.achievable = achievable


class InvalidPartitionError(DataError):
    """Group count incompatible with the landmark set."""


class DuplicateLandmarkError(DataError):
    """Same landmark id produced by more than one ensemble member."""


class DegeneracyError(Exception):
    """Geometric configuration admits no well-posed solution."""


class RobustFitError(Exception):
    """Robust estimation failed to find an acceptable consensus."""


class InvalidRotationError(DataError):
    """Matrix fails the orthogonality / determinant test for a rotation."""
