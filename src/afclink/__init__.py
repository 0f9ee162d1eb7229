"""afclink: discrete-event simulator of a frequency-multiplexed photon-pair
link with wavelength conversion, an atomic-frequency-comb memory, a
GPS-comb-referenced lock chain, and a herald-synchronized noise shutter."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    SpectralGrid,
    eom_sideband_offsets,
    tpc_mode_offsets,
)
from .lockchain import (  # noqa: F401
    DriftModel,
    LaserId,
    LaserNetworkState,
    LockChainConfig,
    RfOffsets,
    ServoModel,
    matching_residual,
    simulate_lock_run,
)
from .source import SourceConfig, pair_delays, sample_pairs  # noqa: F401
from .channel import (  # noqa: F401
    ConverterConfig,
    FiberLink,
    ShutterSchedule,
    fiber_passes,
    gate_passes,
)
from .memory import (  # noqa: F401
    AFCConfig,
    AbsorptionSpectrum,
    InhomogeneousProfile,
    afc_efficiency,
    afc_efficiency_oracle,
    comb_spectrum,
    exit_times,
    prepare_afc,
    storage_branches,
)
from .detection import (  # noqa: F401
    CoincidenceHistogram,
    SPDConfig,
    accumulate_histogram,
    compute_snr,
    detect,
    moving_average,
)
