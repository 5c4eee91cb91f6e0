"""sclab: a numerical laboratory for small-time controllability experiments.

Classical side: controlled Hamiltonian flows H = ½‖p‖² + V + Σ u_a W_a on
flat charts, small-time steering synthesis, and control-uniform exit-time
bounds.  Quantum side: WKB approximate propagation with caustic detection, a
spectrally accurate split-step Schrödinger oracle, localization
(uncontrollability) experiments, and spectral controllability criteria for
the harmonic oscillator with Gaussian control.
"""

from .geometry import (BoxRegion, ChartSpace, PhasePoint, PotentialField,
                       make_potential)
from .dynamics import (ControlSignal, HamiltonianSpec, Trajectory, evolve,
                       sample_controls)

__all__ = [
    "BoxRegion", "ChartSpace", "PhasePoint", "PotentialField", "make_potential",
    "ControlSignal", "HamiltonianSpec", "Trajectory", "evolve", "sample_controls",
]

__version__ = "0.1.0"
