"""conewave: wave kernels, diffraction coefficients and wave-trace
singularities on Euclidean cones and surfaces with conical singularities.

The package needs numpy alone.
"""

from .geometry import (ConeChain, ConePoint, PlanarPoint, angular_separation,
                       cone_distance)
from .special import (Mollifier, find_roots_convex, mollified_delta,
                      mollified_inverse_power)
from .diffraction import (SINE_PRODUCT_LIMITS, scattering_matrix,
                          scattering_matrix_fourier)
from .kernels import (KernelQuery, KernelValue, cheeger_series_sweep,
                      halfwave_series_sweep, sine_kernel_cheeger_series,
                      sine_kernel_closed, sine_kernel_moving_point,
                      spherical_wave_l, upsilon0)
from .friedlander import build_friedlander, sine_kernel_friedlander
from .two_diffraction import (CompositionPoint, StationaryData,
                              amplitude_tilde, chain_nondegeneracy,
                              composed_phase_psi, one_cone_nondegeneracy,
                              oscillatory_oracle, phase_phi1, phase_phi2,
                              principal_symbol_lambda0, stationary_eliminate)
from .wave_trace import (PillowcaseSurface, Spectrum, TracePrediction,
                         extract_singularity_coefficient, mollified_trace,
                         pillowcase_lengths, pillowcase_spectrum,
                         predict_two_diffraction_singularity,
                         trace_pipeline_check)

__version__ = "0.1.0"
