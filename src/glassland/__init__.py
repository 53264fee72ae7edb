"""Landscape theory of multi-species spherical spin glasses.

Modules
-------
mixture        mixture functions, solvability, critical-point predictions
dyson          vector Dyson equation, spectral measures, boundary values
complexity     annealed complexity functionals and their maximization
singlespecies  one-species threshold energies and complexity ellipse
hamiltonian    finite-N sampled Hamiltonians and local derivative data
landscape      critical-point following and spectrum comparison
presets        named example mixtures
errors         exception hierarchy shared by all modules
"""

__version__ = "0.1.0"
