import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from temporal_range.errors import FormatError, SpecError, VersionError
from temporal_range import tasks
from temporal_range.linalg import Rng
from temporal_range.tasks import (EXPERT_GAINS, CopyTaskSpec, Dataset, ObsKind,
                                  ObsVariant, _euler_step, _expert_actions,
                                  _expert_rollouts, _random_starts, _terminal,
                                  gen_copyk, gen_imitation, gen_repeatfirst,
                                  load_dataset, save_dataset)
from v1_dataset import v1_document, v1_text


def test_copy_targets_are_shifted_symbols():
    spec = CopyTaskSpec(k=1, T=3, V=4)
    seq = gen_copyk(spec, 1, Rng(0))[0]
    symbols = seq.x.argmax(axis=1)
    assert not seq.mask[0]
    assert seq.mask[1] and seq.mask[2]
    assert seq.targets[1] == symbols[0]
    assert seq.targets[2] == symbols[1]


def test_copy_mask_matches_offset():
    spec = CopyTaskSpec(k=5, T=12, V=3)
    seq = gen_copyk(spec, 1, Rng(1))[0]
    assert list(seq.mask) == [False] * 5 + [True] * 7
    symbols = seq.x.argmax(axis=1)
    assert np.array_equal(seq.targets[5:], symbols[:7])


def test_copy_symbol_marginal_is_uniform():
    spec = CopyTaskSpec(k=1, T=32, V=4)
    data = gen_copyk(spec, 3125, Rng(2))  # 3125 * 32 = 1e5 draws
    symbols = np.concatenate([s.x.argmax(axis=1) for s in data])
    n = symbols.size
    expected = n / spec.V
    sigma = math.sqrt(n * (1 / spec.V) * (1 - 1 / spec.V))
    for v in range(spec.V):
        count = int(np.sum(symbols == v))
        assert abs(count - expected) <= 3 * sigma


def test_copy_fixed_seed_reproduces_dataset():
    spec = CopyTaskSpec(k=2, T=8, V=4)
    a = gen_copyk(spec, 5, Rng(3))
    b = gen_copyk(spec, 5, Rng(3))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.targets, sb.targets)


def test_copy_spec_validation():
    with pytest.raises(SpecError):
        CopyTaskSpec(k=0, T=8)
    with pytest.raises(SpecError):
        CopyTaskSpec(k=8, T=8)
    with pytest.raises(SpecError):
        CopyTaskSpec(k=1, T=8, V=1)


def test_repeatfirst_targets_are_the_first_symbol():
    seq = gen_repeatfirst(3, 4, 1, Rng(4))[0]
    symbols = seq.x.argmax(axis=1)
    assert not seq.mask[0]
    assert seq.targets[1] == symbols[0]
    assert seq.targets[2] == symbols[0]


def test_repeatfirst_equals_copy_with_growing_offset():
    seq = gen_repeatfirst(6, 4, 1, Rng(5))[0]
    symbols = seq.x.argmax(axis=1)
    for s in range(1, 6):
        # Target at step s is the symbol s-1 steps back, i.e. step 1.
        assert seq.targets[s] == symbols[s - (s - 1) - 1]


def _one_at_a_time(rng, V, n, T, targets_of, first):
    """``x``, targets and masks ``(n, T, .)`` of ``n`` sequences drawn one at
    a time: the reference for the generators' single draw."""
    xs, targets, masks = [], [], []
    for _ in range(n):
        symbols = np.asarray(rng.integers(0, V, size=T))
        xs.append(np.eye(V)[symbols])
        targets.append(targets_of(symbols))
        masks.append(np.arange(T) >= first)
    return [np.array(a) for a in (xs, targets, masks)]


def _copy_targets(k, T):
    def targets_of(symbols):
        targets = np.zeros(T, dtype=np.int64)
        targets[k:] = symbols[:T - k]
        return targets
    return targets_of


def _repeatfirst_targets(symbols):
    targets = np.full(len(symbols), symbols[0], dtype=np.int64)
    targets[0] = 0
    return targets


def _symbol_cases():
    """``(T, V, n, k)`` of every case; ``k`` is None for repeat-first."""
    for T in (2, 6, 32):
        for V in (2, 3, 4, 7):
            for n in (0, 1, 40) + ((2000,) if T == 32 else ()):
                # Every offset, except on the largest sets, which take the
                # extreme ones.
                offsets = range(1, T) if n < 2000 else (1, T - 1)
                yield from ((T, V, n, k) for k in offsets)
                yield T, V, n, None


def test_symbol_generators_equal_one_draw_per_sequence():
    for seed, (T, V, n, k) in enumerate(_symbol_cases()):
        name = f"T={T} V={V} n={n} k={k}"
        if k is None:
            got = gen_repeatfirst(T, V, n, rng := Rng(seed))
            want = _one_at_a_time(ref_rng := Rng(seed), V, n, T, _repeatfirst_targets, 1)
        else:
            got = gen_copyk(CopyTaskSpec(k=k, T=T, V=V), n, rng := Rng(seed))
            want = _one_at_a_time(ref_rng := Rng(seed), V, n, T, _copy_targets(k, T), k)
        assert len(got) == n, name
        # Both leave the stream at the same place.
        assert rng.integers(0, 2 ** 62) == ref_rng.integers(0, 2 ** 62), name
        if n == 0:
            continue
        fields = [[seq.x for seq in got], [seq.targets for seq in got],
                  [seq.mask for seq in got]]
        for arrays, ref in zip(fields, want):
            assert {(a.dtype, a.shape) for a in arrays} == {(ref.dtype, ref.shape[1:])}, name
            assert b"".join(a.tobytes() for a in arrays) == ref.tobytes(), name
        # No two sequences share an element.
        seq = got[0]
        seq.x[:] = -1.0
        seq.targets[:] = V
        seq.mask[:] = ~seq.mask
        for arrays, ref in zip(fields, want):
            assert b"".join(a.tobytes() for a in arrays[1:]) == ref[1:].tobytes(), name


@pytest.mark.parametrize("generate", [
    lambda n, rng: gen_copyk(CopyTaskSpec(k=1, T=4), n, rng),
    lambda n, rng: gen_repeatfirst(4, 3, n, rng),
    lambda n, rng: gen_imitation(ObsVariant(), n, 8, rng)],
    ids=["copy", "repeatfirst", "imitation"])
def test_symbol_generators_reject_a_negative_count(generate):
    # One batched draw of a negative count would be a bare ValueError.
    rng, ref = Rng(2), Rng(2)
    with pytest.raises(SpecError, match="need n >= 0 sequences, got -1"):
        generate(-1, rng)
    assert len(generate(0, rng)) == 0
    assert rng.uniform() == ref.uniform()


def test_cartpole_step_against_hand_evaluated_dynamics():
    # One Euler step from the origin with a rightward push, evaluated
    # independently from the standard constants.
    force, g = 10.0, 9.8
    mass_cart, mass_pole, half_len, tau = 1.0, 0.1, 0.5, 0.02
    total = mass_cart + mass_pole
    temp = force / total
    theta_acc = (g * 0.0 - 1.0 * temp) / (half_len * (4.0 / 3.0 - mass_pole / total))
    x_acc = temp - mass_pole * half_len * theta_acc / total
    x, x_dot, theta, theta_dot = _euler_step(0.0, 0.0, 0.0, 0.0, 1)
    assert not _terminal(x, theta)
    assert theta_dot == pytest.approx(tau * theta_acc, abs=1e-15)
    assert x_dot == pytest.approx(tau * x_acc, abs=1e-15)
    assert theta_dot == pytest.approx(-0.2927, abs=5e-5)
    assert x_dot == pytest.approx(0.1951, abs=5e-5)
    assert x == 0.0 and theta == 0.0


def test_cartpole_mirror_symmetry():
    a = _euler_step(0.31, -0.2, 0.05, 0.4, 1)
    b = _euler_step(-0.31, 0.2, -0.05, -0.4, 0)
    for field, (va, vb) in zip(("x", "x_dot", "theta", "theta_dot"), zip(a, b)):
        assert vb == pytest.approx(-va, abs=1e-15), field


def test_cartpole_angle_threshold_terminates():
    x, _, theta, _ = _euler_step(0.0, 0.0, 0.205, 3.0, 1)
    assert _terminal(x, theta)
    assert abs(theta) > 12.0 * math.pi / 180.0


def test_observation_variants_dimensions():
    full = gen_imitation(ObsVariant(kind=ObsKind.FULL), 2, 8, Rng(6))
    stateless = gen_imitation(ObsVariant(kind=ObsKind.STATELESS), 2, 8, Rng(6))
    assert full.x.shape == (2, 8, 4)
    assert stateless.x.shape == (2, 8, 2)
    # The stateless variant sees (x, theta).
    assert np.array_equal(stateless.x, full.x[..., [0, 2]])


def test_noisy_observation_std_matches_sigma():
    variant = ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.1)
    data = gen_imitation(variant, 125, 200, Rng(6))
    episodes, _ = _scalar_episodes(variant, 125, 200, Rng(6))
    noise = data.x - np.array([states[:, [0, 2]] for states, _, _ in episodes])
    assert noise.size == 50_000
    assert 0.095 <= float(noise.std()) <= 0.105


def test_noise_never_touches_the_state_trajectory():
    # Actions come from true states, so the noisy dataset's targets are the
    # expert's actions in the states of the clean trajectory.
    variant = ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.1)
    data = gen_imitation(variant, 4, 50, Rng(7))
    episodes, _ = _scalar_episodes(variant, 4, 50, Rng(7))
    states = np.array([states for states, _, _ in episodes])
    assert np.array_equal(data.targets, _expert_actions(*np.moveaxis(states, -1, 0)))
    assert not np.array_equal(data.x, states[..., [0, 2]])


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan, 0.0, -0.1])
def test_noisy_variant_rejects_a_non_finite_or_non_positive_sigma(sigma):
    with pytest.raises(SpecError, match="noise sigma must be finite and > 0"):
        ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=sigma)
    # The other variants ignore sigma but a dataset header still records it.
    for kind in (ObsKind.FULL, ObsKind.STATELESS):
        if math.isfinite(sigma):
            ObsVariant(kind=kind, sigma=sigma)
        else:
            with pytest.raises(SpecError, match="noise sigma must be finite"):
                ObsVariant(kind=kind, sigma=sigma)


def _scalar_episodes(variant, n, T, rng):
    """States, observations and actions of ``n`` full-length expert
    episodes stepped one at a time over floats, and the count of episodes
    that ended early: the reference for the batched rollout.  Each round
    draws the starts of the ``k`` episodes still needed, then (noisy
    variant) their noise ``(k, T, 2)``, and keeps those that run ``T``
    steps."""
    episodes, ended = [], 0
    noisy = variant.kind is ObsKind.NOISY_STATELESS
    while len(episodes) < n:
        k = n - len(episodes)
        starts = rng.uniform(size=(k, 4), low=-0.05, high=0.05).tolist()
        noise = rng.gaussian(size=(k, T, 2), std=variant.sigma) if noisy else [None] * k
        for state, episode_noise in zip(map(tuple, starts), noise):
            states, actions = [], []
            for _ in range(T):
                states.append(state)
                actions.append(int(_expert_actions(*state)))
                state = _euler_step(*state, actions[-1])
                if _terminal(state[0], state[2]):
                    break
            if len(states) < T:
                ended += 1
                continue
            states = np.array(states)
            obs = states if variant.kind is ObsKind.FULL else states[:, [0, 2]]
            if noisy:
                obs = obs + episode_noise
            episodes.append((states, obs, np.array(actions, dtype=np.int64)))
    return episodes, ended


@pytest.mark.parametrize("kind", list(ObsKind))
@pytest.mark.parametrize("seed", [0, 3, 4])
@pytest.mark.parametrize("theta_limit", [None, 0.05])
def test_batched_imitation_equals_the_scalar_episode_loop(monkeypatch, kind, seed,
                                                          theta_limit):
    # A pole limit of 0.05 rad ends a few episodes early from starts within
    # it, so the generator must resample them in a later round.
    if theta_limit is not None:
        monkeypatch.setattr(tasks, "THETA_LIMIT", theta_limit)
    variant = ObsVariant(kind=kind, sigma=0.3)
    n, T = 300, 20
    want, ended = _scalar_episodes(variant, n, T, ref_rng := Rng(seed))
    assert (ended > 0) == (theta_limit is not None)
    got = gen_imitation(variant, n, T, rng := Rng(seed))
    assert len(got) == n
    for seq, (_, x, actions) in zip(got, want):
        assert seq.x.tobytes() == x.tobytes()
        assert seq.targets.tobytes() == actions.tobytes()
        assert seq.mask.all()
    # Both left the stream at the same place.
    assert rng.uniform() == ref_rng.uniform()


def test_expert_survives_full_episodes_from_random_starts():
    _, actions, ended = _expert_rollouts(_random_starts(Rng(9), 100), 500)
    assert actions.shape == (500, 100)
    assert not ended.any()


def test_expert_tie_break_pushes_right():
    assert _expert_actions(0.0, 0.0, 0.0, 0.0) == 1


def test_expert_is_odd_in_the_state():
    assert _expert_actions(0.3, -0.1, 0.04, 0.2) + _expert_actions(-0.3, 0.1, -0.04, -0.2) == 1


def test_imitation_full_variant_targets_follow_from_current_observation():
    data = gen_imitation(ObsVariant(kind=ObsKind.FULL), 4, 16, Rng(10))
    w = EXPERT_GAINS
    for seq in data:
        for x_row, target in zip(seq.x, seq.targets):
            score = float(np.dot(w, x_row))
            assert target == (1 if score >= 0 else 0)


def test_imitation_stateless_observation_is_ambiguous():
    # Two near-identical partial observations must exist whose expert
    # actions differ, because the hidden velocities drive the decision.
    data = gen_imitation(ObsVariant(kind=ObsKind.STATELESS), 200, 16, Rng(11))
    buckets = {}
    found = False
    for seq in data:
        for x_row, target in zip(seq.x, seq.targets):
            key = (round(float(x_row[0]), 2), round(float(x_row[1]), 2))
            if key in buckets and buckets[key] != target:
                found = True
                break
            buckets.setdefault(key, int(target))
        if found:
            break
    assert found


def test_imitation_fixed_seed_reproducible():
    a = gen_imitation(ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.1), 3, 8, Rng(12))
    b = gen_imitation(ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.1), 3, 8, Rng(12))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.targets, sb.targets)


def test_dataset_round_trip_is_bitwise(tmp_path):
    data = gen_imitation(ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.1), 3, 8, Rng(13))
    path = tmp_path / "dataset.json"
    save_dataset(data, path, task="cartpole", spec={"variant": "noisy"}, seed=13)
    loaded, header = load_dataset(path)
    assert header["task"] == "cartpole"
    assert header["n"] == 3
    for sa, sb in zip(data, loaded):
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.targets, sb.targets)
        assert np.array_equal(sa.mask, sb.mask)


def test_dataset_corrupt_and_version_errors(tmp_path):
    data = gen_copyk(CopyTaskSpec(k=1, T=4, V=2), 2, Rng(14))
    path = tmp_path / "dataset.json"
    save_dataset(data, path, task="copy", spec={"k": 1}, seed=14)
    text = path.read_text()
    path.write_text(text[:len(text) // 3])
    with pytest.raises(FormatError):
        load_dataset(path)
    doc = json.loads(text)
    doc["version"] = 42
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionError):
        load_dataset(path)


def _json_encoder_text(data, task, spec, seed):
    """The container as ``json.dumps`` renders the whole document, each
    array one hex string of its little-endian bytes: the reference the
    writer must match byte for byte."""
    n, T, d = data.x.shape
    doc = {"format": "temporal-range/dataset", "version": 2, "task": task,
           "spec": spec, "seed": seed, "n": n, "T": T, "d": d,
           "x": data.x.astype("<f8").tobytes().hex(),
           "targets": data.targets.astype("<i8").tobytes().hex(),
           "mask": data.mask.astype("u1").tobytes().hex()}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


WRITER_CASES = {
    "copy": lambda: gen_copyk(CopyTaskSpec(k=3, T=16, V=4), 5, Rng(40)),
    "repeat-first": lambda: gen_repeatfirst(12, 3, 4, Rng(41)),
    "cartpole-full": lambda: gen_imitation(ObsVariant(), 3, 10, Rng(42)),
    "cartpole-stateless": lambda: gen_imitation(
        ObsVariant(kind=ObsKind.STATELESS), 3, 10, Rng(43)),
    "cartpole-noisy": lambda: gen_imitation(
        ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.1), 3, 10, Rng(44)),
    "one-sequence": lambda: gen_copyk(CopyTaskSpec(k=1, T=6, V=3), 1, Rng(45)),
    "d=1": lambda: Dataset(x=np.stack([Rng(46 + i).gaussian(size=(5, 1)) for i in range(3)]),
                           targets=np.tile(np.arange(5) % 2, (3, 1)),
                           mask=np.tile(np.arange(5) > 0, (3, 1))),
    "T=2": lambda: gen_copyk(CopyTaskSpec(k=1, T=2, V=2), 4, Rng(47)),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_save_dataset_writes_the_json_encoders_bytes(tmp_path, case):
    sequences = WRITER_CASES[case]()
    spec = {"case": case, "k": 1, "sigma": 0.1, "variant": None}
    path = tmp_path / "dataset.json"
    save_dataset(sequences, path, task="t", spec=spec, seed=48)
    assert path.read_text(encoding="utf-8") == _json_encoder_text(sequences, "t", spec, 48)
    loaded, _ = load_dataset(path)
    for field, dtype in (("x", np.float64), ("targets", np.int64), ("mask", bool)):
        array = getattr(loaded, field)
        assert array.dtype == dtype and array.flags.writeable and array.dtype.isnative
        assert array.tobytes() == getattr(sequences, field).tobytes()


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_v1_container_loads_to_the_arrays_it_holds(tmp_path, case):
    data = WRITER_CASES[case]()
    path = tmp_path / "dataset.json"
    path.write_text(v1_text(v1_document(data, "t", {"case": case}, 48)))
    loaded, header = load_dataset(path)
    assert header == {"task": "t", "spec": {"case": case}, "seed": 48,
                      "n": len(data), "T": data.x.shape[1], "d": data.x.shape[2]}
    for field in ("x", "targets", "mask"):
        assert getattr(loaded, field).tobytes() == getattr(data, field).tobytes()


# Two v1 containers written by `gen-data` before `Dataset` existed, with the
# sha256 of the arrays they load to (and reload to from version 2): (3, 8, 2) noisy cart-pole observations
# and (4, 6, 4) one-hot copy-2 symbols.
GOLDEN_DATASETS = {
    "cartpole_noisy_T8_n3.json": (
        (3, 8, 2),
        {"x": "0d2ba79d0769aac857a1037a74d8476020b95f9b19dde615bb290f676c2ee65a",
         "targets": "d80d98c905d657ac3d62b55f3a7930ec5ecda826afb10bb960d607bf00390be0",
         "mask": "5b8b4d29020ea5b1bc427c40a0cab2bf944be057ec482110f1d12b68008cd286"}),
    "copy2_T6_n4.json": (
        (4, 6, 4),
        {"x": "da037cd95d88c746fb19270f2e12802cad82bc265c6740467dcae1b8cb615f26",
         "targets": "df4e4ac69faef3d6fe109b61606502254f6823d2dd2c0cf5ba68d0189b86ea50",
         "mask": "710a67232d5393cfd2473c829dd6d2001d103898daad747aaad9c95b8dcd25a2"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DATASETS))
def test_golden_v1_dataset_loads_to_pinned_arrays_and_reloads_from_version_2(tmp_path, name):
    golden = Path(__file__).parent / "data" / name
    shape, digests = GOLDEN_DATASETS[name]
    data, header = load_dataset(golden)
    # The version 1 helper of the tests writes these files' bytes.
    assert v1_text(v1_document(data, header["task"], header["spec"], header["seed"])) \
        == golden.read_text(encoding="utf-8")
    path = tmp_path / name
    save_dataset(data, path, task=header["task"], spec=header["spec"], seed=header["seed"])
    assert json.loads(path.read_text(encoding="utf-8"))["version"] == 2
    reloaded, reheader = load_dataset(path)
    assert reheader == header
    for loaded in (data, reloaded):
        assert loaded.x.shape == shape
        assert (loaded.x.dtype, loaded.targets.dtype, loaded.mask.dtype) \
            == (np.float64, np.int64, bool)
        assert {field: hashlib.sha256(getattr(loaded, field).tobytes()).hexdigest()
                for field in digests} == digests


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("key, value, least", [
    ("n", -1, 0), ("n", 2.5, 0), ("n", True, 0), ("n", "4", 0), ("T", 0, 1),
    ("T", 6.0, 1), ("d", None, 1), ("d", False, 1)])
def test_dataset_header_counts_must_be_json_integers_in_range(tmp_path, version, key,
                                                              value, least):
    data = gen_copyk(CopyTaskSpec(k=2, T=6), 4, Rng(15))
    path = tmp_path / "dataset.json"
    save_dataset(data, path, task="copy", spec={}, seed=15)
    doc = json.loads(path.read_text()) if version == 2 else v1_document(data)
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=rf"^malformed dataset {path}: {key} must be an "
                                          rf"integer >= {least}, got {re.escape(json.dumps(value))}$"):
        load_dataset(path)


def test_dataset_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "dataset.json"
    path.write_bytes(b'{"format": "temporal-range/dataset", "task": "\xff"}')
    with pytest.raises(FormatError, match="not UTF-8 text, invalid start byte at byte offset 46"):
        load_dataset(path)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_dataset_rejects_a_non_finite_observation(value):
    x = np.zeros((1, 5, 2))
    x[0, 3, 1] = value
    with pytest.raises(SpecError, match=rf"sequence 0: observation \[0.0, {value!r}\] "
                                        rf"at step 3 is not finite"):
        Dataset(x=x, targets=np.zeros((1, 5), dtype=int), mask=np.ones((1, 5), dtype=bool))


def test_dataset_names_the_first_bad_sequence_whichever_check_it_fails():
    x = np.zeros((3, 5, 2))
    x[2, 4, 1] = math.inf
    mask = np.ones((3, 5), dtype=int)
    mask[0, 1] = 7
    targets = np.zeros((3, 5), dtype=int)
    with pytest.raises(SpecError, match=r"^sequence 0: mask entry 7 at step 1 is not 0 or 1$"):
        Dataset(x=x, targets=targets, mask=mask)
    # Within one sequence, observations come before targets and the mask.
    x[0, 3, 0] = math.nan
    targets[0, 2] = -1
    with pytest.raises(SpecError, match=r"^sequence 0: observation \[nan, 0.0\] at step 3"):
        Dataset(x=x, targets=targets, mask=mask)


def test_dataset_shape_validation():
    with pytest.raises(SpecError):
        Dataset(x=np.zeros((1, 4, 2)), targets=np.zeros((1, 3), dtype=int),
                mask=np.ones((1, 4), dtype=bool))


@pytest.mark.parametrize("targets, mask, message", [
    ([[0, 1, 2.7, 1]], [[1, 1, 1, 1]], "sequence 0: target 2.7 at step 2 is not a class index"),
    (np.array([[0.0, 1.0, 2.0, 1.0]]), [[1, 1, 1, 1]], "sequence 0: target 0.0 at step 0 is not"),
    ([[0, 1, -1, 1]], [[1, 1, 1, 1]], "sequence 0: target -1 at step 2 is not"),
    (np.array([[0, 2 ** 63, 1, 1]], dtype=np.uint64), [[1, 1, 1, 1]],
     "sequence 0: target 9223372036854775808 at step 1 is not"),
    ([[0, 1, 2, 1]], [[0, 5, 1, 1]], "sequence 0: mask entry 5 at step 1 is not 0 or 1"),
    ([[0, 1, 2, 1]], [[0, 1, 0.5, 1]], "sequence 0: mask entry 0.5 at step 2 is not 0 or 1"),
    ([[0, 1, 2, 1], [1, 1, 1, 1], [0, 1, 3, -2]], [[1, 1, 1, 1]] * 3,
     "sequence 2: target -2 at step 3 is not"),
])
def test_dataset_takes_class_indices_and_a_zero_one_mask(targets, mask, message):
    with pytest.raises(SpecError, match=message):
        Dataset(x=np.zeros((len(targets), 4, 2)), targets=targets, mask=mask)
    data = Dataset(x=np.zeros((1, 4, 2)), targets=[[0, 1, 2, 1]], mask=[[0, 1, 1, 1]])
    assert data.targets.dtype == np.int64 and data.mask.dtype == bool
    assert data.mask.tolist() == [[False, True, True, True]]
