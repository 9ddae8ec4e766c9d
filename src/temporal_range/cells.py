"""Recurrent cell implementations with analytic Jacobians and backward rules.

Every gate pre-activation is an input part plus a recurrent part.  The
input parts do not depend on the state, so the model computes them for the
whole sequence before the recurrence (one product against the stacked
input weights ``input_names``, plus ``bias_names``, in gate order); each
step then issues one product per entry of ``recurrent_names`` against the
stacked recurrent weights (``recurrent_stacks``).  This is the cuDNN-style
layout of Appleyard, Kocisky & Blunsom (2016), arXiv:1604.01946.

The products keep that flat layout, ``(B, G*p)``, so each one is the same
BLAS call, and rounds the same way, whatever the batch; everything
elementwise runs gate-major.  A state is ``K = state_mult`` blocks ``(K, B,
p)``: ``[h]`` for the linear recurrence and the GRU, ``[h, c]`` for the
LSTM and ``[y, z]`` for the LEM cell; block 0 is the decoder-visible part.
A field of ``k`` gates is ``(k, B, p)``.  So every gate and every state half
is one contiguous ``(B, p)`` block, not a strided column slice, which NumPy
would walk one row at a time.  A step's recurrent product moves to the gate
blocks in one copy (``_activate``); a backward rule writes its gate
gradients gate-major and moves them to the flat ``d_pre`` in one copy.

Each cell kind provides:

* ``param_shapes(d_in, p)``: ordered name -> shape map for initialization.
* ``fields``: the per-step arrays its ``backward`` rule, ``step_jacobians``
  and the weight gradients read beyond the states, as name -> number of
  gates, in order (GRU ``zr``, ``n``, ``rh``; LSTM ``act``: i, f, o, g and
  tanh(c'); LEM ``gz``: g1, g2 and tanh of z's candidate, and ``ty``; none
  for the linear recurrence).
* ``step(rec, state, proj, out)``: one batched transition ``(K, B, p) ->
  (K, B, p)`` from the stacked recurrent weights ``rec`` and the step's
  input parts ``proj`` (B, G*p).  It writes the new state and each field
  into the targets ``out = (new, *fields)``, none of which may overlap
  ``state``, and returns them.  The LEM step also takes its base step
  ``dt`` by keyword, from ``CellSpec.lem_dt``.  The forward pass supplies
  the targets (``SequenceModel._unroll``), so nothing is copied after a
  step.
* ``views(prev, fields)``: the named ``(B, p)`` blocks a step's cache holds
  (``h``, ``z``, ``r``, ... of the previous state ``(K, B, p)`` and the
  fields ``(k, B, p)``), for at most one leading axis: one step, or all
  steps of a trace at once.
* ``operands(states, fields)``: the left operands of the recurrent
  products over all steps, as ``(T, B, p)`` views of a trace's states
  ``(K, T+1, B, p)`` and fields ``(T, k, B, p)``, one per entry of
  ``recurrent_names``.
* ``step_jacobians(params, cache, w_x, out)``: exact Jacobians of every
  sequence's new state with respect to its previous state ``(B, S, S)`` and
  an input ``x`` of width ``d`` ``(B, S, d)``, with ``S = K*p`` in block
  order, evaluated from a batched cache.  ``w_x`` is ``d (stacked input
  parts) / d x``: the stacked input
  weights ``(G*p, d_in)`` for the cell input itself, or, for the model's
  observation behind an encoder, those weights times the encoder's
  derivative, ``(B, G*p, d)``.  Each gate's input block is a slice of it, so
  the input factor is built in the observation's width.  The factors are
  written into ``out = (j_state, j_input)``, which the caller allocates
  once per pass, ``j_state`` zero-filled: every step rewrites all entries
  but the LSTM's and LEM's structural zeros, so a step's factors stay
  valid until the next step.  A row block that sums row-scaled gate
  weights (LSTM ``dc``: gates f, i, g; LEM ``dz/dy``: gates 1, z) is one
  contraction over a stacked gate axis (``_gate_sum``).  The linear
  recurrence returns broadcast views of its weights and leaves ``out``
  alone.  Only forward-mode sensitivities (multi-output Jacobians) use
  these factors.
* ``backward(rec, cache, d_new, d_pre, d_prev)``: the recurrent part of the
  reverse-mode rule; writes the gradient of every gate pre-activation into
  ``d_pre`` (..., B, G*p) and the gradient with respect to the previous
  state into ``d_prev`` (..., K, B, p).  An adjoint ``d_new`` (..., K, B,
  p) with one leading axis broadcasts against a step cache.  It serves
  training (BPTT), with no leading axis,
  where weight gradients are products of ``d_pre`` with the cell inputs
  and the operands, taken over all steps at once by the caller, and
  final-output Jacobians, one leading row per output, where ``d_pre``
  times the stacked input weights is a row block of ``d y_T / d u_t``.

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


def _diagonal(a):
    """Writable view ``(..., p)`` of the diagonals of a stack ``(..., p, p)``."""
    return np.einsum("...ii->...i", a)


def _gate_sum(coefs, weights, out) -> None:
    """``sum_g coefs[g][..., None] * weights[g]`` into ``out``, for the
    stacked coefficient columns ``coefs`` (G, B, p) and G weight blocks, as
    one contraction over a stacked gate axis.  Each product is rounded and
    the sum is taken in gate order, so it equals the chained sum bit for bit
    (but for the sign of a sum of zeros: the contraction starts from +0).
    The contraction writes a fresh contiguous array, which is faster than
    writing a strided ``out`` directly."""
    out[...] = np.einsum("g...i,g...ij->...ij", coefs, np.array(weights))


def _blocks(a) -> np.ndarray:
    """The blocks of ``a`` (..., K, B, p) along its block axis, as views
    (K, ..., B, p): a state's halves, or a field's gates.  With at most one
    leading axis (all that callers pass), the others keep their order."""
    return a.swapaxes(0, -3)


def _gates(flat, G) -> np.ndarray:
    """Gate-major view (..., G, B, p) of a flat ``(..., B, G*p)`` array."""
    return flat.reshape(flat.shape[:-1] + (G, -1)).swapaxes(-3, -2)


def _activate(a, out, n_sigmoid):
    """Write into ``out`` (G, B, p) the activations of the stacked
    pre-activations ``a`` (B, G*p): the sigmoid of the first ``n_sigmoid``
    gates and the tanh of the others.  One copy lays ``a`` out gate-major,
    so every op after it runs on contiguous blocks, and one tanh pass serves
    all gates: the sigmoid takes the form ``tanh(x/2)/2 + 1/2``, which has no
    exp to overflow in either tail."""
    out[...] = _gates(a, len(out))
    s = out[:n_sigmoid]
    s *= 0.5
    np.tanh(out, out=out)
    s *= 0.5
    s += 0.5
    return out


def stacked(params, names) -> np.ndarray:
    """The weights ``names`` stacked along their output axis (0), in order."""
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
    def step(rec, state, proj, out):
        h_new = out[0][0]
        np.matmul(state[0], rec[0], out=h_new)
        h_new += proj
        return out

    @staticmethod
    def views(prev, fields):
        return {"h": prev[..., 0, :, :]}

    @staticmethod
    def operands(states, fields):
        return (states[0, :-1],)

    @staticmethod
    def step_jacobians(params, cache, w_x, out):
        B = cache["h"].shape[0]
        return (np.broadcast_to(params["A"], (B,) + params["A"].shape),
                np.broadcast_to(w_x, (B,) + w_x.shape[-2:]))

    @staticmethod
    def backward(rec, cache, d_new, d_pre, d_prev):
        d_h = d_new[..., 0, :, :]
        d_pre[...] = d_h
        np.matmul(d_h, rec[0].T, out=d_prev[..., 0, :, :])


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
    def step(rec, state, proj, out):
        zr = out[1]
        h, h_new, n, rh = state[0], out[0][0], out[2][0], out[3][0]
        p = h.shape[-1]
        a = h @ rec[0]
        a += proj[..., :2 * p]
        _activate(a, zr, 2)
        z, r = zr[0], zr[1]
        np.multiply(r, h, out=rh)
        np.matmul(rh, rec[1], out=n)
        n += proj[..., 2 * p:]
        np.tanh(n, out=n)
        # n + z * (h - n)
        np.subtract(h, n, out=h_new)
        h_new *= z
        h_new += n
        return out

    @staticmethod
    def views(prev, fields):
        zr = fields["zr"]
        z, r = _blocks(zr)
        return {"h": prev[..., 0, :, :], "zr": zr, "z": z, "r": r,
                "n": fields["n"][..., 0, :, :]}

    @staticmethod
    def operands(states, fields):
        return states[0, :-1], fields["rh"][:, 0]

    @staticmethod
    def step_jacobians(params, cache, w_x, out):
        j_state, j_input = out
        h, z, r, n = (cache[k] for k in ("h", "z", "r", "n"))
        p = h.shape[-1]
        Uz, Ur, Un = params["Uz"], params["Ur"], params["Un"]
        Wz, Wr, Wn = (w_x[..., k * p:(k + 1) * p, :] for k in range(3))
        # Per-sequence row scalings (B, p) carry a trailing axis: (B, p, 1).
        hdr = (h * (r * (1.0 - r)))[..., None]
        # d(r * h)/dh and /dx, held in the factors until the gate-z terms.
        # The diagonal is added before any further sum, so it rounds exactly
        # as ``diag(r) + ...`` does.
        np.multiply(hdr, Ur, out=j_state)
        _diagonal(j_state)[...] += r
        np.multiply(hdr, Wr, out=j_input)
        # (1 - z) * dn/dh and (1 - z) * dn/dx.
        dn_dh = Un @ j_state
        dn_du = Un @ j_input
        dn_du += Wn
        dn, zc = (1.0 - n * n)[..., None], (1.0 - z)[..., None]
        for term in (dn_dh, dn_du):
            term *= dn
            term *= zc
        a = ((h - n) * (z * (1.0 - z)))[..., None]
        np.multiply(a, Uz, out=j_state)
        _diagonal(j_state)[...] += z
        j_state += dn_dh
        np.multiply(a, Wz, out=j_input)
        j_input += dn_du
        return j_state, j_input

    @staticmethod
    def backward(rec, cache, d_new, d_pre, d_prev):
        h, zr, z, r, n = cache["h"], cache["zr"], cache["z"], cache["r"], cache["n"]
        p = h.shape[-1]
        d_h, d_prev = d_new[..., 0, :, :], d_prev[..., 0, :, :]
        dh = d_h * z
        gates = _gates(d_pre, 3)
        d_gates = np.empty(gates.shape)
        daz, dar, dan = d_gates[..., 0, :, :], d_gates[..., 1, :, :], d_gates[..., 2, :, :]
        np.multiply(d_h - dh, 1.0 - n * n, out=dan)
        drh = dan @ rec[1].T
        np.multiply(d_h, h - n, out=daz)
        np.multiply(drh, h, out=dar)
        d_gates[..., :2, :, :] *= zr * (1.0 - zr)
        gates[...] = d_gates
        # dh + drh * r + dzr @ Uzr
        np.multiply(drh, r, out=d_prev)
        d_prev += dh
        d_prev += d_pre[..., :2 * p] @ rec[0].T


class _LSTM:
    """Standard LSTM with input/forget/output/cell gates; state is [h, c]."""

    state_mult = 2
    input_names = ("Wi", "Wf", "Wo", "Wg")
    bias_names = ("bi", "bf", "bo", "bg")
    recurrent_names = (("Ui", "Uf", "Uo", "Ug"),)
    fields = {"act": 5}

    @staticmethod
    def param_shapes(d_in, p):
        return {
            "Wi": (p, d_in), "Ui": (p, p), "bi": (p,),
            "Wf": (p, d_in), "Uf": (p, p), "bf": (p,),
            "Wo": (p, d_in), "Uo": (p, p), "bo": (p,),
            "Wg": (p, d_in), "Ug": (p, p), "bg": (p,),
        }

    @staticmethod
    def step(rec, state, proj, out):
        new, act = out
        h, c, h_new, c_new = state[0], state[1], new[0], new[1]
        a = h @ rec[0]
        a += proj
        _activate(a, act[:4], 3)
        i, f, o, g, hc = act[0], act[1], act[2], act[3], act[4]
        # c' = f * c + i * g, h' = o * tanh(c')
        np.multiply(f, c, out=c_new)
        c_new += i * g
        np.tanh(c_new, out=hc)
        np.multiply(o, hc, out=h_new)
        return out

    @staticmethod
    def views(prev, fields):
        act = fields["act"]
        (h, c), (i, f, o, g, hc) = _blocks(prev), _blocks(act)
        return {"h": h, "c": c, "ifo": act[..., :3, :, :], "i": i, "f": f, "o": o,
                "g": g, "hc": hc, "ghc": act[..., 3:, :, :]}

    @staticmethod
    def operands(states, fields):
        return (states[0, :-1],)

    @staticmethod
    def step_jacobians(params, cache, w_x, out):
        j_state, j_input = out
        c, i, f, o, g, hc = (cache[k] for k in ("c", "i", "f", "o", "g", "hc"))
        p = c.shape[-1]
        # Rows [dh; dc], columns [h, c] or x.  dc sums the gates f, i, g.
        dc_coefs = np.array((c * (f * (1 - f)), g * (i * (1 - i)), i * (1.0 - g * g)))
        do = (hc * (o * (1 - o)))[..., None]
        k = (o * (1.0 - hc * hc))[..., None]
        wi, wf, wo, wg = (w_x[..., n * p:(n + 1) * p, :] for n in range(4))
        for j, gates, w_o in (
                (j_state[..., :p], [params[u] for u in ("Uf", "Ui", "Ug")], params["Uo"]),
                (j_input, (wf, wi, wg), wo)):
            dh, dc = j[:, :p], j[:, p:]
            _gate_sum(dc_coefs, gates, dc)
            np.multiply(do, w_o, out=dh)
            dh += k * dc
        # The other entries of the [h, c] columns are zero from the start.
        _diagonal(j_state[:, :p, p:])[...] = k[..., 0] * f
        _diagonal(j_state[:, p:, p:])[...] = f
        return j_state, j_input

    @staticmethod
    def backward(rec, cache, d_new, d_pre, d_prev):
        c, ifo, i, f, o, g, hc, ghc = (cache["c"], cache["ifo"], cache["i"], cache["f"],
                                       cache["o"], cache["g"], cache["hc"], cache["ghc"])
        # The tanh derivatives 1 - g^2 and 1 - tanh(c')^2 in one pass.
        d_tanh = 1.0 - ghc * ghc
        dh_new, dc_ext = d_new[..., 0, :, :], d_new[..., 1, :, :]
        dcn = dc_ext + dh_new * o * d_tanh[1]
        gates = _gates(d_pre, 4)
        d_gates = np.empty(gates.shape)
        dai, daf, dao, dag = (d_gates[..., 0, :, :], d_gates[..., 1, :, :],
                              d_gates[..., 2, :, :], d_gates[..., 3, :, :])
        np.multiply(dcn, g, out=dai)
        np.multiply(dcn, c, out=daf)
        np.multiply(dh_new, hc, out=dao)
        d_gates[..., :3, :, :] *= ifo * (1.0 - ifo)
        np.multiply(dcn * i, d_tanh[0], out=dag)
        gates[...] = d_gates
        dh_prev, dc_prev = d_prev[..., 0, :, :], d_prev[..., 1, :, :]
        np.matmul(d_pre, rec[0].T, out=dh_prev)
        np.multiply(dcn, f, out=dc_prev)


class _LEM:
    """Long expressive memory cell; state is [y, z], base step ``dt``."""

    state_mult = 2
    input_names = ("V1", "V2", "Vz", "Vy")
    bias_names = ("b1", "b2", "bz", "by")
    recurrent_names = (("W1", "W2", "Wz"), ("Wy",))
    fields = {"gz": 3, "ty": 1}

    @staticmethod
    def param_shapes(d_in, p):
        return {
            "W1": (p, p), "V1": (p, d_in), "b1": (p,),
            "W2": (p, p), "V2": (p, d_in), "b2": (p,),
            "Wz": (p, p), "Vz": (p, d_in), "bz": (p,),
            "Wy": (p, p), "Vy": (p, d_in), "by": (p,),
        }

    @staticmethod
    def step(rec, state, proj, out, *, dt):
        new, gz, ty = out
        y, z, y_new, z_new, ty = state[0], state[1], new[0], new[1], ty[0]
        p = y.shape[-1]
        a = y @ rec[0]
        a += proj[..., :3 * p]
        _activate(a, gz, 2)
        g1, g2, tz = gz[0], gz[1], gz[2]
        dt1 = dt * g1
        np.multiply(1.0 - dt1, z, out=z_new)
        z_new += dt1 * tz
        np.matmul(z_new, rec[1], out=ty)
        ty += proj[..., 3 * p:]
        np.tanh(ty, out=ty)
        dt2 = dt * g2
        np.multiply(1.0 - dt2, y, out=y_new)
        y_new += dt2 * ty
        return out

    @staticmethod
    def views(prev, fields):
        gz = fields["gz"]
        (y, z), (g1, g2, tz) = _blocks(prev), _blocks(gz)
        return {"y": y, "z": z, "g": gz[..., :2, :, :], "g1": g1, "g2": g2, "tz": tz,
                "ty": fields["ty"][..., 0, :, :]}

    @staticmethod
    def operands(states, fields):
        return states[0, :-1], states[1, 1:]

    @staticmethod
    def step_jacobians(params, cache, w_x, out):
        j_state, j_input = out
        y, z, g1, g2, tz, ty = (cache[k] for k in ("y", "z", "g1", "g2", "tz", "ty"))
        dt = cache["dt"]
        p = y.shape[-1]
        dt1, dt2 = dt * g1, dt * g2
        # Rows [dy; dz], columns [y, z] or x.  dz sums the gates 1 and z.
        dz_coefs = np.array(((tz - z) * (dt1 * (1.0 - g1)), dt1 * (1.0 - tz * tz)))
        a = ((ty - y) * (dt2 * (1.0 - g2)))[..., None]
        kty = (dt2 * (1.0 - ty * ty))[..., None]
        wy = params["Wy"]
        v1, v2, vz, vy = (w_x[..., n * p:(n + 1) * p, :] for n in range(4))
        _gate_sum(dz_coefs, (params["W1"], params["Wz"]), j_state[:, p:, :p])
        _gate_sum(dz_coefs, (v1, vz), j_input[:, p:])
        # The other entries of dz/dz are zero from the start.
        _diagonal(j_state[:, p:, p:])[...] = 1.0 - dt1
        dy_dy = j_state[:, :p, :p]
        np.multiply(a, params["W2"], out=dy_dy)
        _diagonal(dy_dy)[...] += 1.0 - dt2
        dy_dy += kty * (wy @ j_state[:, p:, :p])
        np.multiply(kty, wy * (1.0 - dt1)[..., None, :], out=j_state[:, :p, p:])
        np.multiply(a, v2, out=j_input[:, :p])
        j_input[:, :p] += kty * (vy + wy @ j_input[:, p:])
        return j_state, j_input

    @staticmethod
    def backward(rec, cache, d_new, d_pre, d_prev):
        y, z, g, g1, g2, tz, ty = (
            cache["y"], cache["z"], cache["g"], cache["g1"], cache["g2"], cache["tz"],
            cache["ty"])
        dt = cache["dt"]
        p = y.shape[-1]
        dy_new, dz_ext = d_new[..., 0, :, :], d_new[..., 1, :, :]
        dt1, dt2 = dt * g1, dt * g2
        gates = _gates(d_pre, 4)
        d_gates = np.empty(gates.shape)
        da1, da2, daz, day = (d_gates[..., 0, :, :], d_gates[..., 1, :, :],
                              d_gates[..., 2, :, :], d_gates[..., 3, :, :])
        np.multiply(dy_new * dt2, 1.0 - ty * ty, out=day)
        dz_new = dz_ext + day @ rec[1].T
        np.multiply(dz_new * dt1, 1.0 - tz * tz, out=daz)
        np.multiply(dz_new, tz - z, out=da1)
        np.multiply(dy_new, ty - y, out=da2)
        d_gates[..., :2, :, :] *= dt * g * (1.0 - g)
        gates[...] = d_gates
        dy_prev, dz_prev = d_prev[..., 0, :, :], d_prev[..., 1, :, :]
        np.matmul(d_pre[..., :3 * p], rec[0].T, out=dy_prev)
        dy_prev += dy_new * (1.0 - dt2)
        np.multiply(dz_new, 1.0 - dt1, out=dz_prev)


_IMPLS = {
    CellKind.LINEAR_REC: _LinearRec,
    CellKind.GRU: _GRU,
    CellKind.LSTM: _LSTM,
    CellKind.LEM: _LEM,
}


def cell_impl(kind: CellKind):
    """Return the implementation namespace for a cell kind."""
    return _IMPLS[kind]
