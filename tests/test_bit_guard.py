"""Bit-for-bit guard on the recurrence: SHA-256 hashes of every array the
forward pass, the backward pass and the Jacobian engine return, pinned
for each cell kind with and without an encoder, at batch sizes 1, 5 and 32
and hidden widths 2 and 16.  A change to the layout or the order of
arithmetic that moves a single bit fails here, naming the case and the
quantity.  The hashes were computed before the trace became gate-major
and must not change with it.  Products go through BLAS, so they hold for
the BLAS build they were computed with (OpenBLAS 0.3.31, AVX-512 kernels);
on another build, compute them again at a known-good commit.
"""

import hashlib

import numpy as np
import pytest

from temporal_range.gradients import batch_param_gradients, final_output_blocks
from temporal_range.linalg import Rng
from temporal_range.metric import TRConfig, analyze
from temporal_range.models import CellKind, CellSpec, init_model
from chunking import project_steps

D, C, ENCODER = 3, 2, 4
# Every pass projects CHUNK steps at a time: two full chunks and a short one.
CHUNK = 8
T = 2 * CHUNK + 3

CASES = [(kind, encoder_dim, B, p) for kind in CellKind for encoder_dim in (None, ENCODER)
         for B in (1, 5, 32) for p in (2, 16)]
IDS = [f"{k.value}-enc{e}-B{b}-p{p}" for k, e, b, p in CASES]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _hashes(monkeypatch, kind, encoder_dim, B, p) -> dict:
    seed = CASES.index((kind, encoder_dim, B, p))
    model = init_model(CellSpec(kind=kind, input_dim=D, hidden_dim=p), C,
                       Rng(100 + seed), encoder_dim=encoder_dim)
    project_steps(monkeypatch, model, B, CHUNK)
    X = 2.0 * np.asarray(Rng(200 + seed).gaussian(size=(B, T, D)))
    step_grads = np.asarray(Rng(300 + seed).gaussian(size=(B, T, C)))
    forward = model.forward_batch(X)
    grads = batch_param_gradients(model, X, step_grads, forward)
    report = analyze(model, list(X), TRConfig(T=T))
    return {
        "forward": _digest(forward[0], forward[1]),
        "outputs": _digest(model.outputs(X)),
        "grads": _digest(*(grads[name] for name in model.params)),
        "final": _digest(final_output_blocks(model, X)),
        "weights": _digest(report.weights_mean, report.weights_std),
    }


QUANTITIES = ("forward", "outputs", "grads", "final", "weights")


# The hashes of each case, in the order of QUANTITIES.
PINNED = {
    "linear_rec-encNone-B1-p2": "14044ef7203f3799 175b45f4ce429293 06697bb337e77b5d "
                                "01b6f101b2507e08 032cbbcd8cdddf7f",
    "linear_rec-encNone-B1-p16": "4497185f23988a96 af7a5bdcc20e48a8 63bd79a3b5e1db94 "
                                 "e59bf60bd752cf9a b66803e10aa0b762",
    "linear_rec-encNone-B5-p2": "12d0676c46261597 b536331ac6a73076 4f9a0226e6ec6e0b "
                                "eaa9e72825f992eb 4997ea042c4ae1cd",
    "linear_rec-encNone-B5-p16": "0f716658cb3cbcd8 9ec7b50671c1810b cbfc27712772bf76 "
                                 "39c5400ac257a260 80c778367d324eda",
    "linear_rec-encNone-B32-p2": "18f4aa32f9c7ec7a 62e5b5389254413d 4306ddd51f4945a3 "
                                 "2c5b04b70c70c0e4 60b642fd40098c73",
    "linear_rec-encNone-B32-p16": "b702529169d79a7e fa3d84a85fa67005 09c9498de92d4193 "
                                  "ce9f97105d8e0e68 340b170367114cd0",
    "linear_rec-enc4-B1-p2": "cc5d39f35d5e8fea 1420fcc70c544985 5621733e8b3a2ffb "
                             "cf116aef29cb264f 2d270bc3f9998f21",
    "linear_rec-enc4-B1-p16": "24e518b71bd433f8 e0d3ad1204747c85 07d4a4f944f0b588 "
                              "f031fc07c085ae97 688affb12b34114f",
    "linear_rec-enc4-B5-p2": "5203020fadca1b18 6049f8c6428927e0 b08db63196b8c02c "
                             "40674bd9cfe84eb5 93b31782a07377d2",
    "linear_rec-enc4-B5-p16": "6c77b68156562d52 2d40a75b25b45949 a3c9728c77f5e79e "
                              "bc6225f024387673 c63d6e24177a0764",
    "linear_rec-enc4-B32-p2": "9da27610be9dec2d 8b7fd3a288130b66 492cf8d24682f250 "
                              "f96749e7ff4a08fb 5b2648f179dd8315",
    "linear_rec-enc4-B32-p16": "8d77c55a7afea6a9 e3702d226eb03353 f53847935bc699db "
                               "da9222fed9d0970a 76d5f05772068038",
    "gru-encNone-B1-p2": "7d5f55cc40b545cd e7b0f07285c1175b 48076e77c161a4d2 "
                         "2b00785422d23d27 6da466a215fe6c36",
    "gru-encNone-B1-p16": "84fefbfb8a023838 519c1425a7896d55 6bd4c7cce6ffc284 "
                          "6840aca3044d470f 429f97d4e55c555e",
    "gru-encNone-B5-p2": "08676a4f5934abdd 4cb746aefd7055ea a579634a08b0af7b "
                         "7dc0df1d360fac7a 01ef2fc5de5e52ee",
    "gru-encNone-B5-p16": "a9565efbbc3669a1 ce22bf90d6511077 459a541d02643a0f "
                          "642c9356d1cbfe8d 7093b2a02d1e5c05",
    "gru-encNone-B32-p2": "fecf0037bac5bc5f 23cfa077bd34375a e14b341841808ebd "
                          "adb910545bf469bc 4ca014b3b81b12b9",
    "gru-encNone-B32-p16": "b7004ea9f8e3035b 3ceada62f741ecca d5d61d46373bd823 "
                           "92be5db907f2f370 1e8a1a50ad63e083",
    "gru-enc4-B1-p2": "dad1554591f5e746 0c520ec5850ea971 41aadea20dbd5204 "
                      "f15e047c6abebe12 5c0b19e85c1d2356",
    "gru-enc4-B1-p16": "0c58f258b64084c5 752100dc2c3253e9 6a22f157334a2666 "
                       "dd3e200a4dfe5616 d88d087f3449987b",
    "gru-enc4-B5-p2": "62e01d73f43e67f6 4f68594109ef5dac 6500b795e44e75c5 "
                      "5586ea819ce2ef75 154619d011787dff",
    "gru-enc4-B5-p16": "973b31fde365ae60 dfb7e6e369e8f223 6f6257427dda9a7b "
                       "a7d3cc19331d5320 fb3262235069f190",
    "gru-enc4-B32-p2": "dade7547ee90ad76 808aa216e81c987f c9762cd06ab2bed3 "
                       "18dbccd1c214c2e4 4895cf30da256282",
    "gru-enc4-B32-p16": "9d6bf3c9c2c43206 485c70b229ca5446 51db1b88858d6a6e "
                        "6342c385ff2de2c8 d4b8baee44148b2f",
    "lstm-encNone-B1-p2": "8e12f7c435849b4b 79f5dc611619133d 4e3202c1fa53256d "
                          "e668d2cf9bc419a7 2a2ad23b12fccca7",
    "lstm-encNone-B1-p16": "2fdee2392cd122ad 61848efb03088224 dcf65f0ecba03058 "
                           "b7804a5a73bc6bab 28c556ada26461d8",
    "lstm-encNone-B5-p2": "3580aa31a6739f93 ce0c886a725742a0 78074de0efd6840e "
                          "3ec4c1ffc054c019 398b32100b0a1828",
    "lstm-encNone-B5-p16": "f67b89acdc5953f3 1ace2cddc1360a24 3e20a50b04d145f7 "
                           "0602ede63296df41 1fcc63e743f8e655",
    "lstm-encNone-B32-p2": "700ee084e7ab80b3 62d851d6405989c7 4f870c77d0286f5d "
                           "b9e8f702c99cbf12 184d23397603527c",
    "lstm-encNone-B32-p16": "f28afd85f0af53b9 5d77d2eeeb11f3cb e9b4fadc8359242b "
                            "30223de9fc6a5b68 6373abb2dc9de0e5",
    "lstm-enc4-B1-p2": "ad4441901f46270a 04748562aefc774d 89d5787b6dd6cf26 "
                       "9208eab7fa9fde81 1a39ed6c4066690a",
    "lstm-enc4-B1-p16": "f9237eaad632d789 df7c4e5b068a2ac8 6f98e56f19417647 "
                        "b1c13540b2b501d6 571f1af2eefcc8ee",
    "lstm-enc4-B5-p2": "3912b5e4159c344a f6cb098360bbae0d 92c999becf996f63 "
                       "251eea19b5e3980d 059d93ee803a507c",
    "lstm-enc4-B5-p16": "a6008bf911b5a6b7 10ddde0fb1c34a21 da2cabf41a0f4d8a "
                        "6bd0e7a45c3a57a1 e4957cdfeb0b08a8",
    "lstm-enc4-B32-p2": "cbbf1dc953e009c2 2570b03ca11e17b4 3d72b52098ac744c "
                        "033b8a3983398d51 e0ad8661c24f1f74",
    "lstm-enc4-B32-p16": "f2e76d8c0194202f 907a33b0d0edb6c3 c422e7a280d12c5c "
                         "02f8581f4a2446b2 d09efce713713ef1",
    "lem-encNone-B1-p2": "03e4d5b3c1a7c47d 4f46554b608a45c5 b133d51e677975d0 "
                         "07666f031c3b2e47 a1efcf12bfa94cd8",
    "lem-encNone-B1-p16": "2000c3a0a57a2f9e 91217ea4632b5f0a b3ead40d09812436 "
                          "722cf67214fdd68e 1f68f944cd69d28b",
    "lem-encNone-B5-p2": "3839f10d85f39374 454dd913de7380b2 ba1ffb6c817df417 "
                         "8629477cbfeb717f 632f03026a2483c2",
    "lem-encNone-B5-p16": "04837874253d903f 4c07063f1a46dd0a 82444461391e8b46 "
                          "52ec37bed2f213bc 321a8f5515b75bda",
    "lem-encNone-B32-p2": "4705683cb8fdd3a0 910f24b50d813d7d e6a84a1c3d8ae359 "
                          "603ee8036fb71d60 ace83382840ab0b4",
    "lem-encNone-B32-p16": "ea5164189c25c014 a4e4c18df195af19 a33f0aa94c82692f "
                           "bc8c4bb030ab652f d9dd5ed63fc7af43",
    "lem-enc4-B1-p2": "2d4597ed07c7f2fa a00e8503a314d048 fec740f3d8cba0ce "
                      "bd8c10e71ebf25b4 ecaa7a3c79d9a300",
    "lem-enc4-B1-p16": "8a1e95f5220792c1 246914fecc33f0c3 dba726ea0340d88a "
                       "ec4246ba5937083b fcbcdf3e29036f9e",
    "lem-enc4-B5-p2": "c9b1304addcfb5a5 8c317f2245e7d59c 5cbafc3fb08f714b "
                      "5e1231e6e8c049a6 1e0a4db0cd90a354",
    "lem-enc4-B5-p16": "8573b771ef2ee71e b6ffd86bbad7a8c7 fff139ed19416026 "
                       "9bd1fd7363d8dae9 f1437b5ee255d67c",
    "lem-enc4-B32-p2": "969d7a29ac28b091 7b9169b8e95ec8f1 68761cd6b43b6aed "
                       "92967178a57d53d4 c83faa7e025fc937",
    "lem-enc4-B32-p16": "9a1aa54e543b92b3 22b0202a03e4976e deec8c65d375cef0 "
                        "0f9cc4e3f75ef250 7461d803aa115014",
}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_recurrence_bits_are_pinned(case, monkeypatch):
    pinned = dict(zip(QUANTITIES, PINNED[IDS[CASES.index(case)]].split()))
    assert _hashes(monkeypatch, *case) == pinned
