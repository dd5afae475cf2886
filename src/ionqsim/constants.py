"""Physical constants (CODATA-2018) and ion species data.

All values in SI units. Everything downstream imports constants from
here so that a single table fixes the numerical provenance.
"""

from dataclasses import dataclass

CONSTANTS_PROVENANCE = "CODATA-2018"

E_CHARGE = 1.602176634e-19      # elementary charge, C (exact)
EPSILON_0 = 8.8541878128e-12    # vacuum permittivity, F/m
PLANCK_H = 6.62607015e-34       # Planck constant, J s (exact)
HBAR = PLANCK_H / (2.0 * 3.141592653589793)  # reduced Planck constant, J s (exact)
MU_B = 9.2740100783e-24         # Bohr magneton, J/T
MU_N = 5.0507837461e-27         # nuclear magneton, J/T
M_ELECTRON = 9.1093837015e-31   # electron mass, kg
M_PROTON = 1.67262192369e-27    # proton mass, kg
AMU = 1.66053906660e-27         # atomic mass unit, kg

# Coulomb constant times e^2, J m (convenient for chain calculations)
COULOMB_E2 = E_CHARGE**2 / (4.0 * 3.141592653589793 * EPSILON_0)


@dataclass(frozen=True)
class Species:
    """A singly charged ion species with a J=1/2 electronic ground state.

    Attributes
    ----------
    mass : float
        Ion mass in kg.
    g_j : float
        Electronic g-factor (2 for S-state ions).
    g_i : float
        Nuclear g-factor in the mu_I = g_i * I * mu_N convention.
    e_hfs : float
        Zero-field hyperfine splitting between F = I + 1/2 and
        F = I - 1/2 levels, in J.
    i_nuc : float
        Nuclear spin quantum number.
    name : str
        Human-readable label.
    """

    mass: float
    g_j: float
    g_i: float
    e_hfs: float
    i_nuc: float
    name: str = ""

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError(f"ion mass must be positive, got {self.mass}")
        if self.e_hfs < 0:
            raise ValueError(f"hyperfine splitting must be >= 0, got {self.e_hfs}")


# 171Yb+ ground-state qubit: |S_1/2, F=0> <-> |S_1/2, F=1, m_F=0>,
# hyperfine splitting 12.6428 GHz.  g_j is taken as the free-electron
# value 2 (pure S state); the nuclear term only enters at the 5e-4 level.
YB171 = Species(
    mass=170.936 * AMU,
    g_j=2.0,
    g_i=0.98734,
    e_hfs=PLANCK_H * 12.6428121e9,
    i_nuc=0.5,
    name="171Yb+",
)

SPECIES_REGISTRY = {"yb171": YB171}
