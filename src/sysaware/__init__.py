"""System-aware lossy compression: adapt a codec to the system around it.

The pieces: the kernel spectrum and the closed-form z-update
(:mod:`~sysaware.linops`), a pruned-binary-tree codec (:mod:`~sysaware.tree_codec`),
the ADMM adaptation loop (:mod:`~sysaware.admm`), closed-form Gaussian
rate-distortion theory (:mod:`~sysaware.gauss_theory`), and the blur-subsample
system in an end-to-end simulation harness (:mod:`~sysaware.system_sim`) with a
CLI (:mod:`~sysaware.cli`).
"""

__version__ = "0.1.0"
