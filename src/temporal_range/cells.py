"""Recurrent cell implementations with analytic Jacobians and backward rules.

Each cell kind provides four entry points used by the model and gradient
layers:

* ``param_shapes(d_in, p)``: ordered name -> shape map for initialization.
* ``step(params, state, u)``: one batched transition ``(B, S) -> (B, S)``
  returning the new state and a cache of intermediates.
* ``step_jacobians(params, cache)``: exact Jacobians of every sequence's
  new state with respect to its previous state ``(B, S, S)`` and its cell
  input ``(B, S, d_in)``, evaluated from a batched cache.
* ``backward(params, cache, d_state_new, grads)``: reverse-mode rule that
  accumulates parameter gradients into ``grads`` and returns the gradients
  with respect to the previous state and the cell input.

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

__all__ = ["CellKind", "cell_impl"]


class CellKind(enum.Enum):
    LINEAR_REC = "linear_rec"
    GRU = "gru"
    LSTM = "lstm"
    LEM = "lem"


def _sigmoid(a):
    # Stable in both tails; avoids overflow warnings from exp on large |a|.
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def _diag(v):
    """Stack of diagonal matrices ``(B, p, p)`` from columns ``v`` (B, p, 1)."""
    return v * np.eye(v.shape[-2])


class _LinearRec:
    """h' = A h + C u (no bias, so the unrolled form is an exact sum)."""

    state_mult = 1

    @staticmethod
    def param_shapes(d_in, p):
        return {"A": (p, p), "C": (p, d_in)}

    @staticmethod
    def step(params, state, u):
        new = state @ params["A"].T + u @ params["C"].T
        return new, {"state": state, "u": u}

    @staticmethod
    def step_jacobians(params, cache):
        B = cache["u"].shape[0]
        return (np.broadcast_to(params["A"], (B,) + params["A"].shape),
                np.broadcast_to(params["C"], (B,) + params["C"].shape))

    @staticmethod
    def backward(params, cache, d_new, grads):
        grads["A"] += d_new.T @ cache["state"]
        grads["C"] += d_new.T @ cache["u"]
        return d_new @ params["A"], d_new @ params["C"]


class _GRU:
    """Gated recurrent unit, h' = (1 - z) * n + z * h convention."""

    state_mult = 1

    @staticmethod
    def param_shapes(d_in, p):
        return {
            "Wz": (p, d_in), "Uz": (p, p), "bz": (p,),
            "Wr": (p, d_in), "Ur": (p, p), "br": (p,),
            "Wn": (p, d_in), "Un": (p, p), "bn": (p,),
        }

    @staticmethod
    def step(params, state, u):
        h = state
        z = _sigmoid(u @ params["Wz"].T + h @ params["Uz"].T + params["bz"])
        r = _sigmoid(u @ params["Wr"].T + h @ params["Ur"].T + params["br"])
        rh = r * h
        n = np.tanh(u @ params["Wn"].T + rh @ params["Un"].T + params["bn"])
        new = (1.0 - z) * n + z * h
        return new, {"h": h, "u": u, "z": z, "r": r, "n": n, "rh": rh}

    @staticmethod
    def step_jacobians(params, cache):
        # Per-sequence row scalings carry a trailing axis: (B, p, 1).
        h, z, r, n = (cache[k][..., None] for k in ("h", "z", "r", "n"))
        Uz, Ur, Un = params["Uz"], params["Ur"], params["Un"]
        Wz, Wr, Wn = params["Wz"], params["Wr"], params["Wn"]
        dz = z * (1.0 - z)
        dr = r * (1.0 - r)
        dn = 1.0 - n * n
        # d(r * h)/dh and /du
        m_rh_h = _diag(r) + (h * dr) * Ur
        m_rh_u = (h * dr) * Wr
        dn_dh = dn * (Un @ m_rh_h)
        dn_du = dn * (Wn + Un @ m_rh_u)
        j_state = _diag(z) + ((h - n) * dz) * Uz + (1.0 - z) * dn_dh
        j_input = ((h - n) * dz) * Wz + (1.0 - z) * dn_du
        return j_state, j_input

    @staticmethod
    def backward(params, cache, d_new, grads):
        h, u, z, r, n, rh = (cache[k] for k in ("h", "u", "z", "r", "n", "rh"))
        dz = d_new * (h - n)
        dn = d_new * (1.0 - z)
        dh = d_new * z
        dan = dn * (1.0 - n * n)
        grads["Wn"] += dan.T @ u
        grads["Un"] += dan.T @ rh
        grads["bn"] += dan.sum(axis=0)
        drh = dan @ params["Un"]
        dr = drh * h
        dh = dh + drh * r
        daz = dz * z * (1.0 - z)
        grads["Wz"] += daz.T @ u
        grads["Uz"] += daz.T @ h
        grads["bz"] += daz.sum(axis=0)
        dh = dh + daz @ params["Uz"]
        dar = dr * r * (1.0 - r)
        grads["Wr"] += dar.T @ u
        grads["Ur"] += dar.T @ h
        grads["br"] += dar.sum(axis=0)
        dh = dh + dar @ params["Ur"]
        du = daz @ params["Wz"] + dar @ params["Wr"] + dan @ params["Wn"]
        return dh, du


class _LSTM:
    """Standard LSTM with input/forget/output/cell gates; state is [h, c]."""

    state_mult = 2

    @staticmethod
    def param_shapes(d_in, p):
        return {
            "Wi": (p, d_in), "Ui": (p, p), "bi": (p,),
            "Wf": (p, d_in), "Uf": (p, p), "bf": (p,),
            "Wo": (p, d_in), "Uo": (p, p), "bo": (p,),
            "Wg": (p, d_in), "Ug": (p, p), "bg": (p,),
        }

    @staticmethod
    def step(params, state, u):
        p = state.shape[-1] // 2
        h, c = state[..., :p], state[..., p:]
        i = _sigmoid(u @ params["Wi"].T + h @ params["Ui"].T + params["bi"])
        f = _sigmoid(u @ params["Wf"].T + h @ params["Uf"].T + params["bf"])
        o = _sigmoid(u @ params["Wo"].T + h @ params["Uo"].T + params["bo"])
        g = np.tanh(u @ params["Wg"].T + h @ params["Ug"].T + params["bg"])
        c_new = f * c + i * g
        hc = np.tanh(c_new)
        h_new = o * hc
        new = np.concatenate([h_new, c_new], axis=-1)
        cache = {"h": h, "c": c, "u": u, "i": i, "f": f, "o": o, "g": g, "hc": hc}
        return new, cache

    @staticmethod
    def step_jacobians(params, cache):
        h, c, i, f, o, g, hc = (
            cache[k][..., None] for k in ("h", "c", "i", "f", "o", "g", "hc"))
        di, df, do = i * (1 - i), f * (1 - f), o * (1 - o)
        dg = 1.0 - g * g
        dc_dh = (c * df) * params["Uf"] + (g * di) * params["Ui"] + (i * dg) * params["Ug"]
        dc_du = (c * df) * params["Wf"] + (g * di) * params["Wi"] + (i * dg) * params["Wg"]
        k = o * (1.0 - hc * hc)
        dh_dh = (hc * do) * params["Uo"] + k * dc_dh
        dh_du = (hc * do) * params["Wo"] + k * dc_du
        # np.block joins the last two axes, so it assembles the whole batch.
        j_state = np.block([[dh_dh, _diag(k * f)], [dc_dh, _diag(f)]])
        j_input = np.concatenate([dh_du, dc_du], axis=-2)
        return j_state, j_input

    @staticmethod
    def backward(params, cache, d_new, grads):
        p = d_new.shape[-1] // 2
        dh_new, dc_ext = d_new[..., :p], d_new[..., p:]
        h, c, u, i, f, o, g, hc = (cache[k] for k in ("h", "c", "u", "i", "f", "o", "g", "hc"))
        do = dh_new * hc
        dcn = dc_ext + dh_new * o * (1.0 - hc * hc)
        df = dcn * c
        di = dcn * g
        dg = dcn * i
        dc_prev = dcn * f
        dai = di * i * (1 - i)
        daf = df * f * (1 - f)
        dao = do * o * (1 - o)
        dag = dg * (1.0 - g * g)
        dh_prev = np.zeros_like(dh_new)
        du = np.zeros_like(u)
        for da, w, uu, b in (
            (dai, "Wi", "Ui", "bi"),
            (daf, "Wf", "Uf", "bf"),
            (dao, "Wo", "Uo", "bo"),
            (dag, "Wg", "Ug", "bg"),
        ):
            grads[w] += da.T @ u
            grads[uu] += da.T @ h
            grads[b] += da.sum(axis=0)
            dh_prev = dh_prev + da @ params[uu]
            du = du + da @ params[w]
        return np.concatenate([dh_prev, dc_prev], axis=-1), du


class _LEM:
    """Long expressive memory cell; state is [y, z], base step ``dt``."""

    state_mult = 2

    @staticmethod
    def param_shapes(d_in, p):
        return {
            "W1": (p, p), "V1": (p, d_in), "b1": (p,),
            "W2": (p, p), "V2": (p, d_in), "b2": (p,),
            "Wz": (p, p), "Vz": (p, d_in), "bz": (p,),
            "Wy": (p, p), "Vy": (p, d_in), "by": (p,),
        }

    @staticmethod
    def step(params, state, u, dt=0.5):
        p = state.shape[-1] // 2
        y, z = state[..., :p], state[..., p:]
        g1 = _sigmoid(u @ params["V1"].T + y @ params["W1"].T + params["b1"])
        g2 = _sigmoid(u @ params["V2"].T + y @ params["W2"].T + params["b2"])
        tz = np.tanh(u @ params["Vz"].T + y @ params["Wz"].T + params["bz"])
        dt1 = dt * g1
        z_new = (1.0 - dt1) * z + dt1 * tz
        ty = np.tanh(u @ params["Vy"].T + z_new @ params["Wy"].T + params["by"])
        dt2 = dt * g2
        y_new = (1.0 - dt2) * y + dt2 * ty
        new = np.concatenate([y_new, z_new], axis=-1)
        cache = {"y": y, "z": z, "u": u, "g1": g1, "g2": g2, "tz": tz, "ty": ty,
                 "z_new": z_new, "dt": dt}
        return new, cache

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
        dz_dy = ((tz - z) * dg1) * params["W1"] + ktz * params["Wz"]
        dz_dz = _diag(1.0 - dt1)
        dz_du = ((tz - z) * dg1) * params["V1"] + ktz * params["Vz"]
        wy = params["Wy"]
        dy_dy = _diag(1.0 - dt2) + ((ty - y) * dg2) * params["W2"] + kty * (wy @ dz_dy)
        dy_dz = kty * (wy * np.swapaxes(1.0 - dt1, -1, -2))
        dy_du = ((ty - y) * dg2) * params["V2"] + kty * (params["Vy"] + wy @ dz_du)
        j_state = np.block([[dy_dy, dy_dz], [dz_dy, dz_dz]])
        j_input = np.concatenate([dy_du, dz_du], axis=-2)
        return j_state, j_input

    @staticmethod
    def backward(params, cache, d_new, grads):
        p = d_new.shape[-1] // 2
        dy_new, dz_ext = d_new[..., :p], d_new[..., p:]
        y, z, u, g1, g2, tz, ty, z_new = (
            cache[k] for k in ("y", "z", "u", "g1", "g2", "tz", "ty", "z_new"))
        dt = cache["dt"]
        dt1, dt2 = dt * g1, dt * g2
        ddt2 = dy_new * (ty - y)
        day = dy_new * dt2 * (1.0 - ty * ty)
        dy_prev = dy_new * (1.0 - dt2)
        grads["Wy"] += day.T @ z_new
        grads["Vy"] += day.T @ u
        grads["by"] += day.sum(axis=0)
        dz_new = dz_ext + day @ params["Wy"]
        du = day @ params["Vy"]
        da2 = ddt2 * dt * g2 * (1.0 - g2)
        grads["W2"] += da2.T @ y
        grads["V2"] += da2.T @ u
        grads["b2"] += da2.sum(axis=0)
        dy_prev = dy_prev + da2 @ params["W2"]
        du = du + da2 @ params["V2"]
        ddt1 = dz_new * (tz - z)
        daz = dz_new * dt1 * (1.0 - tz * tz)
        dz_prev = dz_new * (1.0 - dt1)
        grads["Wz"] += daz.T @ y
        grads["Vz"] += daz.T @ u
        grads["bz"] += daz.sum(axis=0)
        dy_prev = dy_prev + daz @ params["Wz"]
        du = du + daz @ params["Vz"]
        da1 = ddt1 * dt * g1 * (1.0 - g1)
        grads["W1"] += da1.T @ y
        grads["V1"] += da1.T @ u
        grads["b1"] += da1.sum(axis=0)
        dy_prev = dy_prev + da1 @ params["W1"]
        du = du + da1 @ params["V1"]
        return np.concatenate([dy_prev, dz_prev], axis=-1), du


_IMPLS = {
    CellKind.LINEAR_REC: _LinearRec,
    CellKind.GRU: _GRU,
    CellKind.LSTM: _LSTM,
    CellKind.LEM: _LEM,
}


def cell_impl(kind: CellKind):
    """Return the implementation namespace for a cell kind."""
    return _IMPLS[kind]
