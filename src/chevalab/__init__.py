"""chevalab: an exact computational laboratory for the characteristic-
polynomial (Chevalley) map on matrices over truncated local rings
F_{ell^k}[t]/(t^(m+1)): jet-scheme point counts, pushforward densities of
Haar measure, weighted transversal slices, and closed-form valuation
statistics, all in exact arithmetic.
"""

from .counting import (CountQuery, CountRecord, count_gi_jets, count_jet_fiber,
                       count_nilcone_jets, count_sharded, fiber_table,
                       fit_dimension)
from .field import BOTTOM, FieldCtx, TruncCtx, field_make, trunc_make
from .matrices import CharCoeffs, JetMatrix, charpoly
from .measure import (DensityProfile, anfrs_ratio, density_profile,
                      insep_probe, lt_norm, sup_density)
from .slices import (Partition, SliceBasis, audit_equivariance,
                     audit_orbit_jump, audit_transversality, exponent_sum,
                     jordan_matrix, slice_basis, subregular_threshold,
                     weight_report)
from .subreg import (ValHistogram, h_formula, m1_identity_check,
                     mult_pushforward_hist, subreg_slice_density,
                     val_integral)

__version__ = "0.1.0"
