"""Bipartite quantum-correlation measures, monogamy scores, genuine
multipartite entanglement and Mermin-Klyshko Bell values for tripartite
quantum states, with an experiment driver and CLI."""

__version__ = "0.1.0"

from .qcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    binary_entropy,
    load_state,
    partial_trace,
    save_state,
    schmidt_sq_max,
    tensor,
    vn_entropy,
)
from .measures import (
    DiscordResult,
    MeasurementBasis,
    concurrence,
    conditional_entropy_min,
    discord,
    eof_two_qubit,
    ggm,
    mutual_information,
)
from .monogamy import (
    MonogamyReport,
    cond_entropy_bounds,
    delta_c,
    delta_d,
)
from .bell import (
    MKSettings,
    mk_expectation,
    mk_operator,
    mk_optimize,
    mk_symmetric_closed_form,
)
from .states import (
    GHZClassParams,
    WClassParams,
    ghz_class,
    ghz_state,
    haar_random,
    path_ghz,
    path_w_ghz,
    symmetric_concurrence_closed_form,
    symmetric_ghz,
    w_class,
    w_state,
)
from .scan import (
    Prop4Result,
    SampleSummary,
    ScanTable,
    SurfaceTable,
    ZeroCrossing,
    find_zero_crossings,
    grid_scan,
    path_trace,
    prop4_check,
    sample_experiment,
    surface_zero,
    write_csv,
)
