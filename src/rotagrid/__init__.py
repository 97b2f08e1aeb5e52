"""rotagrid: exact matroid oracles, constrained grid completion, and
potential descent for Rota-style basis-arrangement problems."""

__version__ = "0.1.0"

from .matroid import (BasesRep, GraphicRep, GroundSet, LinearRep,
                      MatroidOracle, enumerate_bases, find_exchange_violation,
                      is_disjoint_union_of_bases, rank_axiom_violations)
from .grid import (NOT_REQUIRED, REQUIRED, Grid, GridInstance, InstanceCheck,
                   SolveReport, brute_force_count, find_basis_partition,
                   solve, splits_into_bases, validate_grid,
                   validate_instance)
from .descent import (CounterexampleCertificate, DescentStep, DescentTrace,
                      DoublePartition, RotaInstance, Subinstance,
                      build_subinstance, check_double_partition, descent_step,
                      grid_from_double_partition, initial_double_partition,
                      mu, rebuild, rota_solve, select_block)
from .instances import (NamedInstance, SweepReport, builtin_instance,
                        builtin_names, c3_catalog, enumerate_row_families,
                        k4_c2_instance, mcdiarmid_instance,
                        odd_wheel_instance, oxley_j_instance,
                        random_graphic_matroid, random_linear_matroid,
                        random_rota_instance, u39_instance, uniform_matroid,
                        verify_c3_for_matroid)
from .formats import (FormatError, instance_digest, matroid_digest,
                      parse_grid_instance, parse_matroid,
                      serialize_grid_instance, serialize_matroid,
                      write_instance_files)

__all__ = [name for name in dir() if not name.startswith("_")]
