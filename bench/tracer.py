"""Per-layer timing by swapping module attributes, never the program source.

`Tracer.wrap` replaces a function in every module namespace that holds it
(its own module and every `from .x import f` copy), so callers that look
the name up at call time reach the wrapper. `Tracer.restore` puts the
originals back. Every wrapped function is recorded as an aggregate: call
count, total time, self time (total minus the time of wrapped callees) and
an optional work count. Aggregates instead of one span per call keep the
cost flat for functions called 10^5 times and more (`s_times_cos_half`).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._child_time: list[float] = []
        self._swapped: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        """Time `module.attr` under `name`; `counter(args, kwargs, result)`
        gives the work count of one call."""
        original = getattr(module, attr)
        stat = self.stats.setdefault(name, Stat())
        child_time = self._child_time

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stat.self_s += elapsed - child_time.pop()
                stat.total_s += elapsed
                stat.calls += 1
                if child_time:
                    child_time[-1] += elapsed
            if counter is not None:
                stat.count += int(counter(args, kwargs, result))
            return result

        holders = [module] + [m for m in list(sys.modules.values())
                              if m is not module
                              and getattr(m, "__name__", "").startswith("conewave")
                              and vars(m).get(attr) is original]
        for holder in holders:
            self._swapped.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._swapped):
            setattr(holder, attr, original)
        self._swapped.clear()

    def merge(self, stats: dict) -> None:
        """Add aggregates recorded by another process (see `as_dict`)."""
        for name, fields in stats.items():
            stat = self.stats.setdefault(name, Stat())
            stat.calls += fields["calls"]
            stat.total_s += fields["total_s"]
            stat.self_s += fields["self_s"]
            stat.count += fields["count"]

    def as_dict(self) -> dict:
        return {name: vars(stat) for name, stat in self.stats.items()}


def _size(args, kwargs, result) -> int:
    return int(np.size(result))


def _trace_terms(args, kwargs, result) -> int:
    spec = args[0] if args else kwargs["spec"]
    return int(np.size(result) * spec.frequencies.size)


# (module, attribute, metric prefix, work counter). The layer of a metric
# is the module whose public function it times; scipy's jv is charged to
# `special`, the module that owns the package's Bessel functions.
TIMED = [
    ("verification", "at1_moving_point", "verification.at1", None),
    ("verification", "at2_friedlander", "verification.at2", None),
    ("verification", "at3_scattering", "verification.at3", None),
    ("verification", "at4_two_diffraction", "verification.at4", None),
    ("verification", "at5_differentiated_propagator", "verification.at5", None),
    ("verification", "at6_trace_pipeline", "verification.at6", None),
    ("verification", "at7_pillowcase", "verification.at7", None),
    ("two_diffraction", "oscillatory_oracle", "two_diffraction.oscillatory_oracle", None),
    ("two_diffraction", "leg_amplitude", "two_diffraction.leg_amplitude", None),
    ("two_diffraction", "stationary_phase_value", "two_diffraction.stationary_phase_value", None),
    ("two_diffraction", "phase_hessian_fd", "two_diffraction.phase_hessian_fd", None),
    ("diffraction", "s_times_cos_half", "diffraction.s_times_cos_half", None),
    ("diffraction", "scattering_matrix_fourier", "diffraction.scattering_matrix_fourier", None),
    ("kernels", "cheeger_series_sweep", "kernels.cheeger_series_sweep", _size),
    ("kernels", "sine_kernel_cheeger_series", "kernels.sine_kernel_cheeger_series", None),
    ("kernels", "sine_kernel_moving_point", "kernels.sine_kernel_moving_point", None),
    ("kernels", "sine_kernel_closed_mollified", "kernels.sine_kernel_closed_mollified", None),
    ("special", "find_roots_convex", "special.find_roots_convex", None),
    ("special", "l1_half_derivative", "special.l1_half_derivative", None),
    ("special", "mollified_inverse_power", "special.mollified_inverse_power", None),
    ("friedlander", "build_friedlander", "friedlander.build_friedlander", None),
    ("friedlander", "sine_kernel_friedlander", "friedlander.sine_kernel_friedlander", None),
    ("wave_trace", "mollified_trace", "wave_trace.mollified_trace", _trace_terms),
    ("wave_trace", "pillowcase_spectrum", "wave_trace.pillowcase_spectrum", None),
    ("wave_trace", "detect_trace_peaks", "wave_trace.detect_trace_peaks", None),
    ("wave_trace", "extract_singularity_coefficient", "wave_trace.extract_singularity_coefficient", None),
    ("wave_trace", "trace_pipeline_check", "wave_trace.trace_pipeline_check", None),
]

# Work counters reported under their own names: the count of one timed
# function, named for what it counts.
COUNTERS = {
    "kernels.cheeger_points": "kernels.cheeger_series_sweep",
    "special.jv_elements": "special.jv",
    "wave_trace.trace_terms": "wave_trace.mollified_trace",
}


def install(tracer: Tracer) -> None:
    """Wrap every function in TIMED, and scipy.special.jv, which kernels
    and special look up through the scipy.special module at call time."""
    import importlib

    import scipy.special

    for module_name, attr, name, counter in TIMED:
        module = importlib.import_module("conewave." + module_name)
        tracer.wrap(module, attr, name, counter)
    tracer.wrap(scipy.special, "jv", "special.jv", _size)
