"""Complex continuous wavelet transforms over the complex plane."""

from .errors import (
    BoundaryDecayError,
    ConvergenceError,
    EntwaveError,
    FileFormatError,
    NonAdmissibleError,
    OutputError,
)
from .grid import (
    ComplexPlaneGrid,
    Field,
    ScaleGrid,
    integrate,
    read_field_csv,
    read_field_ewg1,
    sample,
    scale_weights,
    write_field_csv,
    write_field_ewg1,
)
from .wavelets import (
    MotherWavelet,
    admissibility_defect,
    c_psi_prime,
    emhw,
    eval_wavelet,
    fourier_closed,
    is_admissible,
    laguerre_gaussian,
    mexican_hat,
    symplectic_fourier,
)
from .ccwt import (
    CCWTCoefficients,
    Cwt1dCoefficients,
    Signal1D,
    cwt1d_grid,
    forward,
    forward_fast,
    icwt1d,
    inverse,
    read_coefficients_ewc1,
    write_coefficients_ewc1,
)
from .fock import (
    TwoModeFockState,
    coherent_state_eta,
    completeness_gram,
    number_state_eta,
    state_field,
    u2_matrix_element,
    unit_norm_field,
    xi_eta_overlap,
    xi_eta_overlap_fock,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
