"""Rescaled copies of a model and the residuals of the two rescaling
invariances of the metric, read from ``analyze``.

Scaling the decoder by ``alpha`` multiplies every Jacobian block by
``alpha``: the normalized range must not move and the unnormalized range
picks up ``|alpha|``.  Dividing the first layer that touches the inputs by
``beta`` gives a model of ``beta * x`` that computes what the original
computes of ``x``; its Jacobians shrink by ``1/|beta|`` and its normalized
range is unchanged.
"""

from temporal_range.cells import cell_impl
from temporal_range.metric import analyze


def output_scaled(model, alpha):
    """A copy of ``model`` whose outputs are ``alpha`` times the original's."""
    scaled = model.copy()
    scaled.params["dec_W"] *= alpha
    scaled.params["dec_b"] *= alpha
    return scaled


def input_scaled(model, beta):
    """A copy of ``model`` for inputs in units ``beta`` times smaller: the
    encoder weight, or the cell's input matrices without an encoder, are
    divided by ``beta``."""
    scaled = model.copy()
    names = ("enc_W",) if model.encoder_dim is not None else cell_impl(model.cell.kind).input_names
    for name in names:
        scaled.params[name] /= beta
    return scaled


def residuals(model, x, scaled, scaled_x, expected_ratio, cfg):
    """``|delta rho_hat|`` between ``model`` on ``x`` and ``scaled`` on
    ``scaled_x``, and the relative error of their ``rho`` ratio against
    ``expected_ratio``."""
    base = analyze(model, [x], cfg)
    assert not base.degenerate
    other = analyze(scaled, [scaled_x], cfg)
    ratio = other.rho / base.rho
    return abs(other.rho_hat - base.rho_hat), abs(ratio / expected_ratio - 1.0)
