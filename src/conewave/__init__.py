"""conewave: wave kernels, diffraction coefficients and wave-trace
singularities on Euclidean cones and surfaces with conical singularities.

Importing the package loads numpy only: each scipy submodule is imported
inside the function that calls it, so a process pays for the scipy it uses.
"""

from .geometry import (ConeChain, ConePoint, PlanarPoint, angular_separation,
                       cone_distance)
from .special import (Mollifier, find_roots_convex, mollified_delta,
                      mollified_inverse_power)
from .diffraction import (SINE_PRODUCT_LIMITS, scattering_matrix,
                          scattering_matrix_fourier)
from .kernels import (KernelQuery, KernelValue, cheeger_series_sweep,
                      halfwave_mu_4pi, sine_kernel_4pi_closed,
                      sine_kernel_cheeger_series, sine_kernel_moving_point,
                      spherical_wave_l, upsilon0)
from .friedlander import build_friedlander, sine_kernel_friedlander
from .two_diffraction import (CompositionPoint, StationaryData,
                              amplitude_tilde, composed_phase_psi,
                              nondegeneracy_check, oscillatory_oracle,
                              phase_phi1, phase_phi2,
                              principal_symbol_lambda0, stationary_eliminate)
from .wave_trace import (PillowcaseSurface, Spectrum, TracePrediction,
                         extract_singularity_coefficient, mollified_trace,
                         pillowcase_lengths, pillowcase_spectrum,
                         predict_two_diffraction_singularity,
                         trace_pipeline_check)

__version__ = "0.1.0"
