"""Recurrent cell implementations with analytic Jacobians and backward rules.

Every gate pre-activation is an input part plus a recurrent part.  The
input parts do not depend on the state, so the model computes them for the
whole sequence before the recurrence (one product against the stacked
input weights ``input_names``, plus ``bias_names``, in gate order); each
step then issues one product per entry of ``recurrent_names`` against the
stacked recurrent weights (``recurrent_stacks``).  This is the cuDNN-style
layout of Appleyard, Kocisky & Blunsom (2016), arXiv:1604.01946.

Each cell kind provides:

* ``param_shapes(d_in, p)``: ordered name -> shape map for initialization.
* ``fields``: the per-step arrays its ``backward`` rule, ``step_jacobians``
  and the weight gradients read beyond the states, as name -> width in
  units of ``p``, in order (GRU ``zr``, ``n``, ``rh``; LSTM ``ifo``, ``g``,
  ``hc``; LEM ``g``, ``tz``, ``ty``; none for the linear recurrence).
* ``step(rec, state, proj, out)``: one batched transition ``(B, S) -> (B, S)``
  from the stacked recurrent weights ``rec`` and the step's input parts
  ``proj`` (B, G*p).  It writes the new state and each field into the
  targets ``out = (new, *fields)`` and returns them; without targets it
  allocates them.  A forward pass hands each step its slice of one
  time-major buffer per field and of the state trajectory, so nothing is
  copied after the step.
* ``views(prev, fields)``: the named arrays a step's cache holds (``h``,
  ``z``, ``r``, ... as views of the previous state and the fields), for
  any leading axes: one step, or all steps of a trace at once.
* ``operands(states, fields)``: the left operands of the recurrent
  products over all steps, as views of the state trajectory
  ``(T+1, B, S)`` and the fields, one per entry of ``recurrent_names``.
* ``step_jacobians(params, cache)``: exact Jacobians of every sequence's
  new state with respect to its previous state ``(B, S, S)`` and its cell
  input ``(B, S, d_in)``, evaluated from a batched cache.  Only forward-mode
  sensitivities (multi-output Jacobians) use these factors.
* ``backward(rec, cache, d_new, d_pre, d_prev)``: the recurrent part of the
  reverse-mode rule; writes the gradient of every gate pre-activation into
  ``d_pre`` (B, G*p) and the gradient with respect to the previous state
  into ``d_prev`` (B, S).  It serves training (BPTT), where weight
  gradients are products of ``d_pre`` with the cell inputs and the
  operands, taken over all steps at once by the caller, and final-output
  Jacobians, where ``d_pre`` times the stacked input weights is a row
  block of ``d y_T / d u_t``.

States are flat vectors: plain hidden ``h`` for the linear recurrence and
the GRU, ``[h, c]`` for the LSTM, and ``[y, z]`` for the LEM cell.  The
first ``hidden_dim`` entries are always the decoder-visible part.

The LEM (long expressive memory) transition, with elementwise gates and a
fixed base step ``dt``, is:

    g1 = sigmoid(W1 y + V1 u + b1)         # time-scale gate for z
    g2 = sigmoid(W2 y + V2 u + b2)         # time-scale gate for y
    z' = (1 - dt*g1) * z + dt*g1 * tanh(Wz y + Vz u + bz)
    y' = (1 - dt*g2) * y + dt*g2 * tanh(Wy z' + Vy u + by)
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["CellKind", "cell_impl", "recurrent_stacks", "stacked"]


class CellKind(enum.Enum):
    LINEAR_REC = "linear_rec"
    GRU = "gru"
    LSTM = "lstm"
    LEM = "lem"


def _sigmoid(a, out=None):
    # The tanh form has no exp to overflow in either tail.
    s = np.multiply(a, 0.5, out=out)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def _diagonal(a):
    """Writable view ``(..., p)`` of the diagonals of a stack ``(..., p, p)``."""
    return np.einsum("...ii->...i", a)


def _targets(impl, state) -> tuple:
    """Fresh targets of one step of ``impl``: the new state, then each field."""
    B, S = state.shape
    p = S // impl.state_mult
    return (np.empty((B, S)), *[np.empty((B, w * p)) for w in impl.fields.values()])


def stacked(params, names) -> np.ndarray:
    """The weights ``names`` stacked along their output axis, in order."""
    return np.concatenate([params[name] for name in names])


def recurrent_stacks(impl, params) -> tuple:
    """Right operands of a cell's recurrent products, one per entry of
    ``impl.recurrent_names``: the group's weights stacked, transposed."""
    return tuple(stacked(params, group).T for group in impl.recurrent_names)


class _LinearRec:
    """h' = A h + C u (no bias, so the unrolled form is an exact sum)."""

    state_mult = 1
    input_names = ("C",)
    bias_names = ()
    recurrent_names = (("A",),)
    fields = {}

    @staticmethod
    def param_shapes(d_in, p):
        return {"A": (p, p), "C": (p, d_in)}

    @staticmethod
    def step(rec, state, proj, out=None):
        new, = out or _targets(_LinearRec, state)
        np.matmul(state, rec[0], out=new)
        new += proj
        return (new,)

    @staticmethod
    def views(prev, fields):
        return {"h": prev}

    @staticmethod
    def operands(states, fields):
        return (states[:-1],)

    @staticmethod
    def step_jacobians(params, cache):
        B = cache["h"].shape[0]
        return (np.broadcast_to(params["A"], (B,) + params["A"].shape),
                np.broadcast_to(params["C"], (B,) + params["C"].shape))

    @staticmethod
    def backward(rec, cache, d_new, d_pre, d_prev):
        d_pre[...] = d_new
        np.matmul(d_new, rec[0].T, out=d_prev)


class _GRU:
    """Gated recurrent unit, h' = (1 - z) * n + z * h convention."""

    state_mult = 1
    input_names = ("Wz", "Wr", "Wn")
    bias_names = ("bz", "br", "bn")
    recurrent_names = (("Uz", "Ur"), ("Un",))
    fields = {"zr": 2, "n": 1, "rh": 1}

    @staticmethod
    def param_shapes(d_in, p):
        return {
            "Wz": (p, d_in), "Uz": (p, p), "bz": (p,),
            "Wr": (p, d_in), "Ur": (p, p), "br": (p,),
            "Wn": (p, d_in), "Un": (p, p), "bn": (p,),
        }

    @staticmethod
    def step(rec, state, proj, out=None):
        new, zr, n, rh = out or _targets(_GRU, state)
        h = state
        p = h.shape[-1]
        np.matmul(h, rec[0], out=zr)
        zr += proj[:, :2 * p]
        _sigmoid(zr, out=zr)
        np.multiply(zr[:, p:], h, out=rh)
        np.matmul(rh, rec[1], out=n)
        n += proj[:, 2 * p:]
        np.tanh(n, out=n)
        # n + z * (h - n)
        np.subtract(h, n, out=new)
        new *= zr[:, :p]
        new += n
        return new, zr, n, rh

    @staticmethod
    def views(prev, fields):
        p = prev.shape[-1]
        zr = fields["zr"]
        return {"h": prev, "zr": zr, "z": zr[..., :p], "r": zr[..., p:],
                "n": fields["n"]}

    @staticmethod
    def operands(states, fields):
        return states[:-1], fields["rh"]

    @staticmethod
    def step_jacobians(params, cache):
        # Per-sequence row scalings carry a trailing axis: (B, p, 1).
        h, z, r, n = (cache[k][..., None] for k in ("h", "z", "r", "n"))
        Uz, Ur, Un = params["Uz"], params["Ur"], params["Un"]
        Wz, Wr, Wn = params["Wz"], params["Wr"], params["Wn"]
        dz = z * (1.0 - z)
        dr = r * (1.0 - r)
        dn = 1.0 - n * n
        B, p = h.shape[:2]
        # d(r * h)/dh and /du.  Each diagonal is written before the sums, so
        # they round exactly as ``diag(v) + ...`` does.
        m_rh_h = np.zeros((B, p, p))
        _diagonal(m_rh_h)[...] = r[..., 0]
        m_rh_h += (h * dr) * Ur
        m_rh_u = (h * dr) * Wr
        dn_dh = dn * (Un @ m_rh_h)
        dn_du = dn * (Wn + Un @ m_rh_u)
        j_state = np.zeros((B, p, p))
        _diagonal(j_state)[...] = z[..., 0]
        j_state += ((h - n) * dz) * Uz
        j_state += (1.0 - z) * dn_dh
        j_input = ((h - n) * dz) * Wz + (1.0 - z) * dn_du
        return j_state, j_input

    @staticmethod
    def backward(rec, cache, d_new, d_pre, d_prev):
        h, zr, z, r, n = (cache[k] for k in ("h", "zr", "z", "r", "n"))
        p = h.shape[-1]
        dh = d_new * z
        dan = d_pre[:, 2 * p:]
        np.multiply(d_new - dh, 1.0 - n * n, out=dan)
        drh = dan @ rec[1].T
        dzr = d_pre[:, :2 * p]
        np.multiply(d_new, h - n, out=dzr[:, :p])
        np.multiply(drh, h, out=dzr[:, p:])
        dzr *= zr * (1.0 - zr)
        # dh + drh * r + dzr @ Uzr
        np.multiply(drh, r, out=d_prev)
        d_prev += dh
        d_prev += dzr @ rec[0].T


class _LSTM:
    """Standard LSTM with input/forget/output/cell gates; state is [h, c]."""

    state_mult = 2
    input_names = ("Wi", "Wf", "Wo", "Wg")
    bias_names = ("bi", "bf", "bo", "bg")
    recurrent_names = (("Ui", "Uf", "Uo", "Ug"),)
    fields = {"ifo": 3, "g": 1, "hc": 1}

    @staticmethod
    def param_shapes(d_in, p):
        return {
            "Wi": (p, d_in), "Ui": (p, p), "bi": (p,),
            "Wf": (p, d_in), "Uf": (p, p), "bf": (p,),
            "Wo": (p, d_in), "Uo": (p, p), "bo": (p,),
            "Wg": (p, d_in), "Ug": (p, p), "bg": (p,),
        }

    @staticmethod
    def step(rec, state, proj, out=None):
        new, ifo, g, hc = out or _targets(_LSTM, state)
        p = state.shape[-1] // 2
        h, c = state[:, :p], state[:, p:]
        a = h @ rec[0]
        a += proj
        _sigmoid(a[:, :3 * p], out=ifo)
        np.tanh(a[:, 3 * p:], out=g)
        # c' = f * c + i * g, h' = o * tanh(c')
        c_new = new[:, p:]
        np.multiply(ifo[:, p:2 * p], c, out=c_new)
        c_new += ifo[:, :p] * g
        np.tanh(c_new, out=hc)
        np.multiply(ifo[:, 2 * p:], hc, out=new[:, :p])
        return new, ifo, g, hc

    @staticmethod
    def views(prev, fields):
        p = prev.shape[-1] // 2
        ifo = fields["ifo"]
        return {"h": prev[..., :p], "c": prev[..., p:], "ifo": ifo,
                "i": ifo[..., :p], "f": ifo[..., p:2 * p], "o": ifo[..., 2 * p:],
                "g": fields["g"], "hc": fields["hc"]}

    @staticmethod
    def operands(states, fields):
        return (states[:-1, :, :states.shape[-1] // 2],)

    @staticmethod
    def step_jacobians(params, cache):
        h, c, i, f, o, g, hc = (
            cache[k][..., None] for k in ("h", "c", "i", "f", "o", "g", "hc"))
        di, df, do = i * (1 - i), f * (1 - f), o * (1 - o)
        dg = 1.0 - g * g
        k = o * (1.0 - hc * hc)
        B, p = h.shape[:2]
        # Each factor is filled in place: rows [dh; dc], columns [h, c] or u.
        j_state = np.zeros((B, 2 * p, 2 * p))
        j_input = np.empty((B, 2 * p, params["Wi"].shape[1]))
        for j, w in ((j_state[..., :p], "U"), (j_input, "W")):
            dh, dc = j[:, :p], j[:, p:]
            np.multiply(c * df, params[w + "f"], out=dc)
            dc += (g * di) * params[w + "i"]
            dc += (i * dg) * params[w + "g"]
            np.multiply(hc * do, params[w + "o"], out=dh)
            dh += k * dc
        _diagonal(j_state[:, :p, p:])[...] = (k * f)[..., 0]
        _diagonal(j_state[:, p:, p:])[...] = f[..., 0]
        return j_state, j_input

    @staticmethod
    def backward(rec, cache, d_new, d_pre, d_prev):
        c, ifo, i, f, o, g, hc = (
            cache[k] for k in ("c", "ifo", "i", "f", "o", "g", "hc"))
        p = c.shape[-1]
        dh_new, dc_ext = d_new[:, :p], d_new[:, p:]
        dcn = dc_ext + dh_new * o * (1.0 - hc * hc)
        difo = d_pre[:, :3 * p]
        np.multiply(dcn, g, out=difo[:, :p])
        np.multiply(dcn, c, out=difo[:, p:2 * p])
        np.multiply(dh_new, hc, out=difo[:, 2 * p:])
        difo *= ifo * (1.0 - ifo)
        np.multiply(dcn * i, 1.0 - g * g, out=d_pre[:, 3 * p:])
        np.matmul(d_pre, rec[0].T, out=d_prev[:, :p])
        np.multiply(dcn, f, out=d_prev[:, p:])


class _LEM:
    """Long expressive memory cell; state is [y, z], base step ``dt``."""

    state_mult = 2
    input_names = ("V1", "V2", "Vz", "Vy")
    bias_names = ("b1", "b2", "bz", "by")
    recurrent_names = (("W1", "W2", "Wz"), ("Wy",))
    fields = {"g": 2, "tz": 1, "ty": 1}

    @staticmethod
    def param_shapes(d_in, p):
        return {
            "W1": (p, p), "V1": (p, d_in), "b1": (p,),
            "W2": (p, p), "V2": (p, d_in), "b2": (p,),
            "Wz": (p, p), "Vz": (p, d_in), "bz": (p,),
            "Wy": (p, p), "Vy": (p, d_in), "by": (p,),
        }

    @staticmethod
    def step(rec, state, proj, out=None, dt=0.5):
        new, g, tz, ty = out or _targets(_LEM, state)
        p = state.shape[-1] // 2
        y, z = state[:, :p], state[:, p:]
        a = y @ rec[0]
        a += proj[:, :3 * p]
        _sigmoid(a[:, :2 * p], out=g)
        np.tanh(a[:, 2 * p:], out=tz)
        dt1 = dt * g[:, :p]
        z_new = new[:, p:]
        np.multiply(1.0 - dt1, z, out=z_new)
        z_new += dt1 * tz
        np.matmul(z_new, rec[1], out=ty)
        ty += proj[:, 3 * p:]
        np.tanh(ty, out=ty)
        dt2 = dt * g[:, p:]
        y_new = new[:, :p]
        np.multiply(1.0 - dt2, y, out=y_new)
        y_new += dt2 * ty
        return new, g, tz, ty

    @staticmethod
    def views(prev, fields):
        p = prev.shape[-1] // 2
        g = fields["g"]
        return {"y": prev[..., :p], "z": prev[..., p:], "g": g,
                "g1": g[..., :p], "g2": g[..., p:], "tz": fields["tz"],
                "ty": fields["ty"]}

    @staticmethod
    def operands(states, fields):
        p = states.shape[-1] // 2
        return states[:-1, :, :p], states[1:, :, p:]

    @staticmethod
    def step_jacobians(params, cache):
        y, z, g1, g2, tz, ty = (
            cache[k][..., None] for k in ("y", "z", "g1", "g2", "tz", "ty"))
        dt = cache["dt"]
        dt1, dt2 = dt * g1, dt * g2
        dg1 = dt * g1 * (1.0 - g1)
        dg2 = dt * g2 * (1.0 - g2)
        ktz = dt1 * (1.0 - tz * tz)
        kty = dt2 * (1.0 - ty * ty)
        wy = params["Wy"]
        B, p = y.shape[:2]
        # Each factor is filled in place: rows [dy; dz], columns [y, z] or u.
        j_state = np.zeros((B, 2 * p, 2 * p))
        j_input = np.empty((B, 2 * p, params["V1"].shape[1]))
        for dz, w in ((j_state[:, p:, :p], "W"), (j_input[:, p:], "V")):
            np.multiply((tz - z) * dg1, params[w + "1"], out=dz)
            dz += ktz * params[w + "z"]
        _diagonal(j_state[:, p:, p:])[...] = (1.0 - dt1)[..., 0]
        dy_dy = j_state[:, :p, :p]
        _diagonal(dy_dy)[...] = (1.0 - dt2)[..., 0]
        dy_dy += ((ty - y) * dg2) * params["W2"]
        dy_dy += kty * (wy @ j_state[:, p:, :p])
        np.multiply(kty, wy * np.swapaxes(1.0 - dt1, -1, -2), out=j_state[:, :p, p:])
        np.multiply((ty - y) * dg2, params["V2"], out=j_input[:, :p])
        j_input[:, :p] += kty * (params["Vy"] + wy @ j_input[:, p:])
        return j_state, j_input

    @staticmethod
    def backward(rec, cache, d_new, d_pre, d_prev):
        y, z, g, g1, g2, tz, ty = (
            cache[k] for k in ("y", "z", "g", "g1", "g2", "tz", "ty"))
        dt = cache["dt"]
        p = y.shape[-1]
        dy_new, dz_ext = d_new[:, :p], d_new[:, p:]
        dt1, dt2 = dt * g1, dt * g2
        day = d_pre[:, 3 * p:]
        np.multiply(dy_new * dt2, 1.0 - ty * ty, out=day)
        dz_new = dz_ext + day @ rec[1].T
        np.multiply(dz_new * dt1, 1.0 - tz * tz, out=d_pre[:, 2 * p:3 * p])
        dg = d_pre[:, :2 * p]
        np.multiply(dz_new, tz - z, out=dg[:, :p])
        np.multiply(dy_new, ty - y, out=dg[:, p:])
        dg *= dt * g * (1.0 - g)
        np.matmul(d_pre[:, :3 * p], rec[0].T, out=d_prev[:, :p])
        d_prev[:, :p] += dy_new * (1.0 - dt2)
        np.multiply(dz_new, 1.0 - dt1, out=d_prev[:, p:])


_IMPLS = {
    CellKind.LINEAR_REC: _LinearRec,
    CellKind.GRU: _GRU,
    CellKind.LSTM: _LSTM,
    CellKind.LEM: _LEM,
}


def cell_impl(kind: CellKind):
    """Return the implementation namespace for a cell kind."""
    return _IMPLS[kind]
