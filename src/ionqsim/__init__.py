"""Desk-scale simulations of trapped-ion qubit experiments.

Subpackages cover coherent two-level dynamics (bloch), quantum Zeno
measurement statistics (zeno), Bayesian adaptive state estimation
(estimation), affine qubit channels with tomography (channels), and
the spin-spin-coupled ion chain calculator (ionchain).

Importing the package loads none of them, and no numpy: import the
layer you use (`from ionqsim import ionchain`), and only it and what it
needs are loaded.
"""

__version__ = "0.1.0"
