"""Exception types shared across the package."""


class EntwaveError(Exception):
    """Base class for library errors."""


class NonAdmissibleError(EntwaveError):
    """Wavelet fails the zero-mean admissibility condition."""


class BoundaryDecayError(EntwaveError):
    """Field magnitude at the grid boundary exceeds the decay threshold."""


class FileFormatError(EntwaveError):
    """Malformed or truncated EWG1/EWC1/CSV input."""


class OutputError(EntwaveError):
    """An output file could not be made, written or renamed."""


class ConvergenceError(EntwaveError):
    """A truncated series failed to reach the requested tolerance."""
