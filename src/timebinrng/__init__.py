"""timebinrng: unbiased random bits from biased detector streams.

Gate-window detections are grouped into fixed-length time-bin blocks;
each block's avalanche-position pattern is ranked among its C(n, k)
equally likely peers and re-emitted as a fixed-width bit fragment via
power-of-two subblock expansion.  The output depends only on positions
within blocks, so slowly drifting click probability cannot bias it.

The package also ships a physics-motivated detector simulator
(Poisson light + dark counts, sinusoidal drift, afterpulse taps),
closed-form yield analysis, and output-quality reports.
"""

__version__ = "0.1.0"

from .analysis import (
    AfterpulseEntropyReport,
    MinEntropyReport,
    SanityReport,
    UniformityMatrix,
    afterpulse_entropy,
    export_nist,
    k_grouped_order,
    min_entropy,
    sanity_tests,
    statistical_error_scale,
    uniformity_matrix,
)
from .combinatorics import (
    MAX_BLOCK_LEN,
    BinomialExpansion,
    Combination,
    binary_expansion,
    binomial,
    rank_combination,
    unrank_combination,
)
from .efficiency import (
    ModulationProfile,
    binary_rate,
    block_entropy_rate,
    crossing_points,
    shannon_binary,
    time_average_binary_rate,
    verify_monotone_convergence,
    verify_optimal_p,
)
from .errors import (
    DomainError,
    NoEntropyError,
    StreamFormatError,
    TimebinError,
    UnsupportedCaseError,
)
from .extractor import (
    BitOutput,
    BitPacker,
    DetectionStream,
    ExtractStats,
    StreamingExtractor,
    StreamingMerger,
    extract,
    merge_channels,
)
from .source_sim import (
    GENERATOR_TAG,
    SCENARIOS,
    SourceModel,
    click_probability,
    iter_simulate,
    preset,
    simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
