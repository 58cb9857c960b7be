"""Superiorization and accelerated inexact forward-backward splitting
for TV-regularized tomographic reconstruction."""

from .basic import (CGState, LWParams, cg_init, cg_step, default_gamma,
                    default_mu, g_u, g_u_mu, lw_proj_step, lw_step, make_step)
from .fbs import (AFBSConfig, ProxCertificate, Splitting, afbs_run,
                  cert_constrained, cert_unconstrained, dual_gap, grad_h_u,
                  lipschitz_f, objective, pd_basic_init, pd_basic_step,
                  pd_noinv_init, pd_noinv_step, prox_ls_exact)
from .metrics import MetricsRecord, NumericalDivergenceError, RunResult
from .opslin import (DimensionMismatchError, SparseOperator,
                     SpectralNormWarning, load_matrix_market,
                     save_matrix_market, shifted_gram_solve, smw_solve,
                     spectral_norm_sq)
from .regtv import (GridShape, SmoothedTVParams, grad_adjoint, grad_apply,
                    lipschitz_bound, perturbation_norm_bound, prox_tv,
                    prox_tv_with_info, tv_smooth, tv_smooth_grad, tv_value)
from .superior import (SupConfig, VARIANTS, s_grad, s_prox, s_prox_plus,
                       superiorize_run)
from .tomo import (Geometry, NoiseModel, add_noise, build_parallel_system,
                   load_flat_binary, noise_sigma, save_flat_binary, save_pgm,
                   shepp_logan)

__version__ = "0.1.0"

# no `harness` import: `python -m supopt.harness` must find it unloaded
