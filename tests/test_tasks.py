import json
import math

import numpy as np
import pytest

from temporal_range.errors import (EpisodeFinished, FormatError, SpecError,
                                   VersionError)
from temporal_range import tasks
from temporal_range.linalg import Rng
from temporal_range.tasks import (EXPERT_GAINS, CartPoleState, CopyTaskSpec,
                                  LabeledSequence, ObsKind, ObsVariant,
                                  cartpole_step, expert_action, gen_copyk,
                                  gen_imitation, gen_repeatfirst,
                                  load_dataset, observe, run_expert_episode,
                                  save_dataset)


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
    assert generate(0, rng) == []
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
    state, done = cartpole_step(CartPoleState(0.0, 0.0, 0.0, 0.0), 1)
    assert not done
    assert state.theta_dot == pytest.approx(tau * theta_acc, abs=1e-15)
    assert state.x_dot == pytest.approx(tau * x_acc, abs=1e-15)
    assert state.theta_dot == pytest.approx(-0.2927, abs=5e-5)
    assert state.x_dot == pytest.approx(0.1951, abs=5e-5)
    assert state.x == 0.0 and state.theta == 0.0


def test_cartpole_mirror_symmetry():
    s = CartPoleState(0.31, -0.2, 0.05, 0.4)
    mirrored = CartPoleState(-0.31, 0.2, -0.05, -0.4)
    a, _ = cartpole_step(s, 1)
    b, _ = cartpole_step(mirrored, 0)
    assert b.x == pytest.approx(-a.x, abs=1e-15)
    assert b.x_dot == pytest.approx(-a.x_dot, abs=1e-15)
    assert b.theta == pytest.approx(-a.theta, abs=1e-15)
    assert b.theta_dot == pytest.approx(-a.theta_dot, abs=1e-15)


def test_cartpole_angle_threshold_terminates():
    s = CartPoleState(0.0, 0.0, 0.205, 3.0)
    s2, done = cartpole_step(s, 1)
    assert done
    assert abs(s2.theta) > 12.0 * math.pi / 180.0
    with pytest.raises(EpisodeFinished):
        cartpole_step(s2, 1)


def test_observation_variants_dimensions():
    s = CartPoleState(0.1, -0.2, 0.03, 0.4)
    assert observe(s, ObsVariant(kind=ObsKind.FULL)).shape == (4,)
    obs = observe(s, ObsVariant(kind=ObsKind.STATELESS))
    assert obs.shape == (2,)
    assert obs == pytest.approx([0.1, 0.03])


def test_noisy_observation_std_matches_sigma():
    s = CartPoleState(0.0, 0.0, 0.0, 0.0)
    rng = Rng(6)
    variant = ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.1)
    noise = np.stack([observe(s, variant, rng) for _ in range(50_000)])
    assert 0.095 <= float(noise.std()) <= 0.105


def test_noise_never_touches_the_state_trajectory():
    # Actions come from true states, so the state path with noisy
    # observations equals the path with clean ones.
    rng = Rng(7)
    states, actions = run_expert_episode(rng, max_steps=50)
    clean = [observe(s, ObsVariant(kind=ObsKind.STATELESS)) for s in states]
    noisy_rng = Rng(8)
    noisy = [observe(s, ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.1), noisy_rng)
             for s in states]
    assert [expert_action(s) for s in states] == actions
    assert not np.array_equal(np.stack(clean), np.stack(noisy))


def test_noisy_variant_requires_positive_sigma_and_rng():
    with pytest.raises(SpecError):
        ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.0)
    with pytest.raises(SpecError):
        observe(CartPoleState(0, 0, 0, 0),
                ObsVariant(kind=ObsKind.NOISY_STATELESS, sigma=0.1))


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


def _scalar_imitation(variant, n, T, rng):
    """Observations, actions and early-ended episode count of one expert
    episode at a time: the reference for the batched rollout."""
    sequences, ended = [], 0
    while len(sequences) < n:
        states, actions = run_expert_episode(rng, max_steps=T)
        if len(states) < T:
            ended += 1
            continue
        obs = np.stack([observe(s, variant, rng) for s in states])
        sequences.append((obs, np.asarray(actions, dtype=np.int64)))
    return sequences, ended


@pytest.mark.parametrize("kind", list(ObsKind))
@pytest.mark.parametrize("seed", [0, 3, 4])
@pytest.mark.parametrize("theta_limit", [None, 0.05])
def test_batched_imitation_equals_the_scalar_episode_loop(monkeypatch, kind, seed,
                                                          theta_limit):
    # A pole limit of 0.05 rad ends a few episodes early from starts within
    # it, so the noisy variant must rewind its stream.
    if theta_limit is not None:
        monkeypatch.setattr(tasks, "THETA_LIMIT", theta_limit)
    variant = ObsVariant(kind=kind, sigma=0.3)
    n, T = 300, 20
    want, ended = _scalar_imitation(variant, n, T, ref_rng := Rng(seed))
    assert (ended > 0) == (theta_limit is not None)
    got = gen_imitation(variant, n, T, rng := Rng(seed))
    assert len(got) == n
    for seq, (x, actions) in zip(got, want):
        assert seq.x.tobytes() == x.tobytes()
        assert seq.targets.tobytes() == actions.tobytes()
        assert seq.mask.all()
    # Both left the stream at the same place.
    assert rng.uniform() == ref_rng.uniform()


def test_expert_survives_full_episodes_from_random_starts():
    rng = Rng(9)
    for _ in range(100):
        states, actions = run_expert_episode(rng, max_steps=500)
        assert len(actions) == 500


def test_expert_tie_break_pushes_right():
    assert expert_action(CartPoleState(0.0, 0.0, 0.0, 0.0)) == 1


def test_expert_is_odd_in_the_state():
    s = CartPoleState(0.3, -0.1, 0.04, 0.2)
    m = CartPoleState(-0.3, 0.1, -0.04, -0.2)
    assert expert_action(s) + expert_action(m) == 1


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


def _json_encoder_text(sequences, task, spec, seed):
    """The container as ``json.dumps`` renders the whole document: the
    reference the bulk writer must match byte for byte."""
    T, d = sequences[0].x.shape
    doc = {"format": "temporal-range/dataset", "version": 1, "task": task,
           "spec": spec, "seed": seed, "n": len(sequences), "T": T, "d": d,
           "sequences": [{"x": [[v.hex() for v in row] for row in seq.x.tolist()],
                          "targets": seq.targets.tolist(),
                          "mask": seq.mask.astype(int).tolist()}
                         for seq in sequences]}
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
    "d=1": lambda: [LabeledSequence(x=np.asarray(Rng(46 + i).gaussian(size=(5, 1))),
                                    targets=np.arange(5) % 2, mask=np.arange(5) > 0)
                    for i in range(3)],
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
    for sa, sb in zip(sequences, loaded):
        assert sa.x.tobytes() == sb.x.tobytes()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_labeled_sequence_rejects_a_non_finite_observation(value):
    x = np.zeros((5, 2))
    x[3, 1] = value
    with pytest.raises(SpecError, match=rf"observation \[0.0, {value!r}\] at step 3 is not finite"):
        LabeledSequence(x=x, targets=np.zeros(5, dtype=int), mask=np.ones(5, dtype=bool))


def test_labeled_sequence_shape_validation():
    with pytest.raises(SpecError):
        LabeledSequence(x=np.zeros((4, 2)), targets=np.zeros(3, dtype=int),
                        mask=np.ones(4, dtype=bool))


@pytest.mark.parametrize("targets, mask, message", [
    ([0, 1, 2.7, 1], [1, 1, 1, 1], "target 2.7 at step 2 is not a class index"),
    (np.array([0.0, 1.0, 2.0, 1.0]), [1, 1, 1, 1], "target 0.0 at step 0 is not"),
    ([0, 1, -1, 1], [1, 1, 1, 1], "target -1 at step 2 is not"),
    (np.array([0, 2 ** 63, 1, 1], dtype=np.uint64), [1, 1, 1, 1],
     "target 9223372036854775808 at step 1 is not"),
    ([0, 1, 2, 1], [0, 5, 1, 1], "mask entry 5 at step 1 is not 0 or 1"),
    ([0, 1, 2, 1], [0, 1, 0.5, 1], "mask entry 0.5 at step 2 is not 0 or 1"),
])
def test_labeled_sequence_takes_class_indices_and_a_zero_one_mask(targets, mask, message):
    with pytest.raises(SpecError, match=message):
        LabeledSequence(x=np.zeros((4, 2)), targets=targets, mask=mask)
    seq = LabeledSequence(x=np.zeros((4, 2)), targets=[0, 1, 2, 1], mask=[0, 1, 1, 1])
    assert seq.targets.dtype == np.int64 and seq.mask.dtype == bool
    assert seq.mask.tolist() == [False, True, True, True]
