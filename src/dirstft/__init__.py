"""k-directional short-time Fourier analysis, synthesis and directional
singularity detection for sampled n-dimensional signals."""

from .grids import Grid, Signal, dft, dft_oracle, idft, inner_product
from .windows import (
    PairingCert,
    Window,
    WindowKind,
    gaussian_window,
    gevrey_bump,
    pairing_check,
)
from .direction import DirectionFrame, build_frame, frequency_map, identity_frame, pullback
from .transform import DstftField, default_y_grid, dstft_direct, dstft_fast
from .synthesis import dso, dso_direct, reconstruct, window_change
from .wavefront import (
    BallSpec,
    ConeSpec,
    DecayFit,
    WavefrontReport,
    cone_dictionary_2d,
    decay_fit,
    partial_wf_test,
    wavefront_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
