"""Finite- and mixed-precision arithmetic emulation for massive MIMO transceivers."""

from .formats import (
    BFLOAT16,
    FP16,
    FP32,
    FP64,
    PRESETS,
    FloatFormat,
    RangeMode,
    RoundingMode,
    get_format,
    round_to_format,
)
from .kernels import (
    CholeskyBreakdownError,
    PolicyMode,
    PrecisionPolicy,
    cholesky_fp,
    inner_product_fp,
    matmul_fp,
    matvec_fp,
    trisolve_fp,
)
from .transceiver import (
    mrc_combine,
    mrt_precode,
    zf_detect_ne,
    zf_precode_ne,
)
from .bounds import (
    RateBoundResult,
    c1_u,
    c_d,
    c_u,
    cost_model,
    delta_miso,
    delta_simo,
    gamma_n,
    gamma_n_det,
    gamma_n_first_order,
    lb_rate_miso,
    lb_rate_simo,
    lb_sumrate_mu_miso,
    lb_sumrate_mu_simo,
    m_max_simo,
    rate_gap,
    upsilon,
    xi_bn,
    xi_bn_first_order,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    draw_channel,
    emit_csv,
    estimate_channel_mmse,
    run_sweep,
    verify_bounds,
)

__version__ = "0.1.0"
