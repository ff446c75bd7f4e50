"""sisbox: sampling in shift-invariant spaces.

Grammians, Zak fibers and sampling kernels on a dyadic frequency grid;
space certification, reconstruction from integer samples, membership
criteria, determining sets and direct-sum decompositions.
"""

from .catalog import build_signal, catalog_names
from .decomposition import (
    DeterminingSetReport,
    PeriodicPartition,
    RescaledSpace,
    check_determining_set,
    decompose,
    kernel_sum_gap,
    lattice_rescale,
    span_sum_check,
    verify_direct_sum,
)
from .errors import (
    BandwidthOverflowError,
    CatalogError,
    ConstructionRefusedError,
    DegenerateSpaceError,
    FileFormatError,
    GridMismatchError,
    NotAGrammianError,
    NotASamplingSpaceError,
    NotInSpaceError,
    PartitionError,
    PreconditionError,
    SisboxError,
    TruncationError,
)
from .grid import FrequencyGrid, PeriodicSpectrum, SupportMask, TimeSamples
from .membership import (
    ConditionCheck,
    ConditionReport,
    InducedSubspace,
    check_sz04,
    check_theorem2,
    check_theorem5,
    construct_s_from_f,
    induced_subspace,
)
from .reports import ReportDocument
from .signals import (
    GridSpectrum,
    PiecewiseConstantSpectrum,
    ShiftCombination,
    Signal,
    TimeKernel,
)
from .spaces import (
    ReconstructionResult,
    SamplingSpace,
    SZ99Report,
    build_space,
    check_sz99,
    gram_matrix_bounds_oracle,
    project,
    reconstruct,
    synthesize,
    tight_frame_generator,
)
from .spectral import (
    abs_periodize,
    bracket,
    essential_bounds,
    grammian,
    integer_samples,
    periodize,
    shift_square_sum,
    spectral_norm,
    support_mask,
    zak_dual_fiber,
    zak_time_fiber,
)

__version__ = "0.1.0"
