"""Effective Hamiltonians for multilevel atoms in quantized fields.

The package builds the standard cavity-QED model families (driven spin,
Dicke, three-level cascade and Lambda systems, N-level chains, two-mode
four-level chains) in finite tensor-product spaces, applies small nonlinear
rotations of their deformed ladder algebras to obtain second-order
effective Hamiltonians, and verifies every closed form against exact
diagonalization and exact time evolution.
"""

import logging

from .algebra import (DeformedAlgebra, RelationReport, StructureSample,
                      build_deformed, ladder_from_structure,
                      ladder_relation_report, structure_polynomial_samples,
                      verify_su3_cross_relations)
from .dynamics import (ComparisonReport, ScalingFit, Trajectory,
                       compare_spectra, effective_evolution,
                       effective_frequency, evolve, fidelity,
                       infidelity_series, scaling_study)
from .errors import (AnalysisError, ConfigError, DimensionCapError,
                     EffhamError, GuardViolationError, LadderRelationError,
                     ResonanceError, SpaceMismatchError)
from .hilbert import (DIMENSION_CAP, EnsembleSpec, FockTruncation,
                      OperatorMatrix, SpaceDescriptor, annihilator,
                      basis_state, collective_inversion, collective_operator,
                      commutator, creator, enumerate_basis, identity,
                      number_operator, occupation_sector_mask,
                      photon_safe_mask, spin_operators, zero)
from .models import (Block, GuardResult, Interaction, ModelInstance,
                     ModelSpec, block_masks, build, build_cascade_n,
                     build_dicke, build_lambda3, build_spin_in_field,
                     build_two_mode_four, build_xi3, cascade_detunings,
                     conserved_blocks, dispersive_guard, inversion_weights,
                     with_scaled_couplings)
from .rotations import (SCENARIOS, CascadeDecomposition, CouplingTable,
                        EffectiveForms, EffectiveScenario, RotationSpec,
                        cancellation_residual, cascade_first_stage,
                        cascade_stark_leading, closed_form_effective,
                        conjugate, conjugate_stages, corrected_eigenstate,
                        coupling_table, effective_su2, eliminating_generator,
                        filter_signatures, fit_coefficient,
                        four_level_constants, matrix_exponential,
                        offdiagonal_residual, small_rotation,
                        two_mode_pair_coupling, two_mode_tables)

__version__ = "0.1.0"

# the library logs through ``logging`` and is silent unless the application
# configures a handler
logging.getLogger(__name__).addHandler(logging.NullHandler())
