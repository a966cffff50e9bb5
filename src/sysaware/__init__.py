"""System-aware lossy compression: adapt a codec to the system around it.

The pieces: matrix-free linear operators (:mod:`~sysaware.linops`), a
pruned-binary-tree codec (:mod:`~sysaware.tree_codec`), the ADMM adaptation
loop (:mod:`~sysaware.admm`), closed-form Gaussian rate-distortion theory
(:mod:`~sysaware.gauss_theory`), and an end-to-end simulation harness
(:mod:`~sysaware.system_sim`) with a CLI (:mod:`~sysaware.cli`).
"""

__version__ = "0.1.0"

from .linops import (  # noqa: F401
    CirculantSpectral,
    Compose,
    Convolution,
    DimensionMismatchError,
    Identity,
    LinearMap,
    Replicate,
    Scale,
    SolverError,
    Subsample,
    circulant_symbol,
    pseudoinverse_apply,
    project_range,
    solve_regularized,
)
from .tree_codec import (  # noqa: F401
    Bitstream,
    BitstreamError,
    TreeCodecPlug,
    decode,
    encode,
)
from .admm import AdmmConfig, AdmmState, run, system_distortion_dc  # noqa: F401
from .gauss_theory import (  # noqa: F401
    SpectralAllocation,
    SpectralModel,
    expected_min_distortion,
    theoretical_rd_curve,
    water_fill,
)
from .system_sim import (  # noqa: F401
    RDPoint,
    SystemModel,
    acquire,
    ideal_distortion_check,
    make_blur_subsample_system,
    make_chirp,
    psnr,
    render,
    sweep,
)
