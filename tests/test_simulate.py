import json
import math
import re
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from b92sec.attacks import (
    AttackBranch,
    AttackChannel,
    critical_weakness,
    depolarize,
    identity_attack,
    loss,
    parse_attack,
    rotation_attack,
)
from b92sec.errors import (
    DegenerateAngleError,
    DomainError,
    EstimationInfeasibleError,
    UnreachableChannelError,
)
from b92sec.evebound import FREE
from b92sec.estimation import ChannelTriple, ObservedCounts, estimate_channel
from b92sec.keyrate import key_gains
from b92sec.simulate import (
    SimConfig,
    closed_loop_report,
    outcome_distribution,
    require_estimate,
    run_simulation,
)
from b92sec.states import OUTCOMES

from conftest import (
    DEG,
    attack_noise_rate,
    count,
    counts_csv,
    estimator_sigmas,
    explicit_povm_effects,
    ket,
    noiseless_gain,
    projector,
    rotation_triple,
    symmetrized_outcomes,
)

ALPHA = 10 * DEG


def config(attack, n=100000, seed=1, alpha=ALPHA):
    return SimConfig(n_total=n, alpha_prime=alpha, alpha=alpha, attack=attack,
                     seed=seed)


# bit 0 never takes the first branch and bit 1 never the second; the
# unrotated T = 1 rows put all weight on four outcomes, so their V class has
# probability 0; the third branch is all vacuum
EDGE_CHANNEL = AttackChannel((
    AttackBranch((0.0, 0.6), (0.3, -0.2), guess=1),
    AttackBranch((0.7, 0.0), (0.1, 0.0), guess=0),
    AttackBranch((0.3, 0.4), to_vacuum=True),
))


# the channels the draw is checked on: one per parse_attack stage, a
# composed one, and the edge channel
PARITY_ATTACKS = {
    "identity": "identity",
    "rotation": "rotation",
    "weak-meas": "weak-meas(q={q0!r})",
    "mixed": "mixed(q={q0!r}, lambda=0.3)",
    "depolarize|loss": "depolarize(epsilon=0.05)|loss(T=0.9)",
    "loss": "loss(T=0.6)",
}
PARITY_CHANNELS = (*PARITY_ATTACKS, "edges")


def parity_channel(name: str) -> AttackChannel:
    return EDGE_CHANNEL if name == "edges" else parse_attack(
        PARITY_ATTACKS[name].format(q0=critical_weakness(ALPHA)), ALPHA)


class TestReproducibility:
    @pytest.mark.parametrize("name", PARITY_CHANNELS)
    def test_same_seed_same_result(self, name):
        cfg = config(parity_channel(name), n=10 ** 6, seed=77)
        assert run_simulation(cfg) == run_simulation(cfg)

    def test_concurrent_runs_match_serial_runs(self):
        # runs share one re-keyed generator; 4 threads of 25 runs each, with
        # a short switch interval so that they interleave, must give what
        # the same runs give one after another; 640 classes make each draw
        # long enough for another thread to reach the generator meanwhile
        channel = parse_attack("|".join(["depolarize(epsilon=0.1)"] * 6), ALPHA)
        cfgs = [config(channel, n=10 ** 6, seed=seed)
                for seed in range((1 << 64) - 50, (1 << 64) + 50)]
        serial = [run_simulation(cfg) for cfg in cfgs]
        threaded = [None] * len(cfgs)

        def work(part):
            for k in range(part, len(cfgs), 4):
                threaded[k] = run_simulation(cfgs[k])

        workers = [threading.Thread(target=work, args=(part,)) for part in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert threaded == serial

    def test_different_seeds_differ(self):
        a = run_simulation(config(depolarize(0.1), n=20000, seed=1))
        b = run_simulation(config(depolarize(0.1), n=20000, seed=2))
        assert a.counts != b.counts


class TestCounting:
    def test_count_conservation(self):
        cfg = config(loss(0.6), n=50000, seed=9)
        result = run_simulation(cfg)
        assert result.counts.detected() <= cfg.n_total
        table = outcome_distribution(cfg)
        assert table.shape == (2, len(cfg.attack.branches), len(OUTCOMES))
        # without loss there are no V events, so the counters are exhaustive
        full = run_simulation(config(depolarize(0.3), n=50000, seed=9))
        assert full.counts.detected() == 50000

    def test_identity_attack_converges(self):
        result = run_simulation(config(identity_attack(), n=200000, seed=5))
        assert result.estimated.epsilon < 0.01
        assert abs(result.estimated.theta) < 0.05
        assert result.estimated.transmission == 1.0
        assert result.conclusive_error_rate == 0.0
        assert result.eve_accuracy_correct is None

    def test_frequency_convergence_across_seeds(self):
        # per-cell relative frequencies stay within four binomial standard
        # errors of Tr[F rho] in at least 99% of seeded runs
        cfg0 = config(depolarize(0.2), n=100000, seed=0)
        table = symmetrized_outcomes(ChannelTriple(0.0, 0.2, 1.0), cfg0.alpha)
        expected = {(bit, label): table[bit, OUTCOMES.index(label)]
                    for bit in (0, 1) for label in ("0", "1", "0b", "1b")}
        passed = 0
        for seed in range(100):
            counts = run_simulation(config(depolarize(0.2), n=100000,
                                           seed=seed)).counts
            ok = True
            for (bit, label), p in expected.items():
                freq = count(counts, bit, label) / (counts.n_total / 2)
                bound = 4.0 * math.sqrt(p * (1 - p) / (counts.n_total / 2))
                ok &= abs(freq - p) <= bound
            passed += ok
        assert passed >= 99

    def test_depolarize_estimate_within_three_sigma(self):
        eps = 0.15
        result = run_simulation(config(depolarize(eps), n=10 ** 6, seed=21))
        sigma = estimator_sigmas(ChannelTriple(0.0, eps, 1.0), ALPHA, 10 ** 6)
        assert abs(result.estimated.epsilon - eps) <= 3 * sigma[1]
        assert abs(result.estimated.theta) <= 3 * sigma[0]

    def test_conclusive_error_rate_counts_the_flipped_bits(self):
        # bit 0 read as "0b" and bit 1 read as "1b" are the errors among the
        # conclusive events; the rate lies within four binomial standard
        # errors of the key-gain layer's e
        result = run_simulation(config(depolarize(0.1), n=200000))
        c = result.counts
        conclusive = c.n0b0 + c.n0b1 + c.n1b0 + c.n1b1
        assert result.conclusive_error_rate == (c.n0b0 + c.n1b1) / conclusive
        e = float(key_gains(ALPHA, 0.0, 0.1, 1.0).error_rate)
        assert abs(result.conclusive_error_rate - e) <= 4.0 * math.sqrt(e * (1 - e) / conclusive)


class TestRotationAttack:
    def test_eve_accuracy_is_exact(self):
        channel, predicted = rotation_attack(ALPHA), rotation_triple(ALPHA)
        result = run_simulation(config(channel, n=200000, seed=13))
        assert result.eve_accuracy_correct == 1.0
        sigma = estimator_sigmas(predicted, ALPHA, 200000)
        assert abs(result.estimated.epsilon - predicted.epsilon) <= 3 * sigma[1]
        assert abs(result.estimated.theta) <= 3 * sigma[0]


class TestWeakMeasurementAttack:
    def test_critical_attack_delivers_the_boundary_channel(self):
        # the measured-then-rotated attack at the critical weakness produces
        # the lower-boundary channel (0, eps(q0), 1) and full knowledge of
        # the surviving correct bits
        from b92sec.attacks import critical_weakness, weak_measurement_attack

        alpha = 20 * DEG
        q0 = critical_weakness(alpha)
        eps = attack_noise_rate(q0, alpha)
        channel = weak_measurement_attack(q0, alpha)
        result = run_simulation(config(channel, n=10 ** 6, seed=6, alpha=alpha))
        assert result.eve_accuracy_correct == 1.0
        sigma = estimator_sigmas(ChannelTriple(0.0, eps, 1.0), alpha, 10 ** 6)
        assert abs(result.estimated.epsilon - eps) <= 3 * sigma[1]
        assert abs(result.estimated.theta) <= 3 * sigma[0]

    def test_mixture_interpolates_the_noise_rate(self):
        # mixing the critical and rotation strategies averages the Bloch
        # shrink factors, so eps interpolates linearly in the weight
        from b92sec.attacks import critical_weakness, mix, weak_measurement_attack

        alpha = 20 * DEG
        q0 = critical_weakness(alpha)
        lam = 0.5
        channel = mix(weak_measurement_attack(q0, alpha),
                      rotation_attack(alpha), lam)
        expected = (lam * attack_noise_rate(q0, alpha)
                    + (1 - lam) * attack_noise_rate(0.5, alpha))
        result = run_simulation(config(channel, n=10 ** 6, seed=15, alpha=alpha))
        sigma = estimator_sigmas(ChannelTriple(0.0, expected, 1.0), alpha, 10 ** 6)
        assert abs(result.estimated.epsilon - expected) <= 3 * sigma[1]
        assert result.eve_accuracy_correct == 1.0


class TestClosedLoop:
    @pytest.mark.parametrize("channel, transmission", ((identity_attack(), 1.0),
                                                       (loss(0.5), 0.5)),
                             ids=("identity", "loss"))
    def test_noiseless_channel_matches_analytic_gain(self, channel, transmission):
        # 1e9 pulses cost one draw; runs whose sampled theta makes the
        # estimate unreachable raise instead (see the next test)
        alpha = 40 * DEG
        gains = 0
        for seed in range(40):
            cfg = config(channel, n=10 ** 9, seed=seed, alpha=alpha)
            try:
                _, report = closed_loop_report(cfg)
            except UnreachableChannelError:
                continue
            assert report.gain == pytest.approx(noiseless_gain(alpha, transmission),
                                                abs=5e-3), seed
            gains += 1
        assert gains >= 1

    def test_identity_boundary_noise_is_flagged(self):
        # a noiseless channel estimate sits on the reachability boundary, so
        # sampling noise in theta can make the estimate unphysical; such runs
        # must raise rather than return a number
        alpha = 40 * DEG
        raised = 0
        for seed in range(40):
            cfg = config(identity_attack(), n=400000, seed=seed, alpha=alpha)
            try:
                _, report = closed_loop_report(cfg)
            except UnreachableChannelError:
                raised += 1
                continue
            assert math.isfinite(report.gain), seed
        assert 1 <= raised <= 39

    def test_rotation_attack_kills_correct_bits(self):
        # wherever the estimate lets Eve's correct-bit overlap reach zero,
        # she knows every surviving correct bit
        free = 0
        for seed in range(40):
            _, report = closed_loop_report(config(rotation_attack(ALPHA), n=10 ** 6, seed=seed))
            assert report.gain < 0.0, seed
            if report.bounds.regime[0] == FREE:
                assert report.info_correct == pytest.approx(1.0, abs=1e-9), seed
                assert report.gain_correct == pytest.approx(0.0, abs=1e-12), seed
                free += 1
        assert free >= 1

    def test_counts_record_reads_back_to_the_run_estimate(self):
        # sampled counts of a noiseless channel put the Bloch norm past 1 in
        # about half the runs; read back from the exported record, they give
        # the estimate the run reported, clamp included
        alpha = 40 * DEG
        clamped = 0
        for seed in range(40):
            result = run_simulation(config(identity_attack(), n=400000, seed=seed, alpha=alpha))
            counts = ObservedCounts.from_csv(counts_csv(result.counts))
            assert estimate_channel(counts, alpha) == result.estimated, seed
            clamped += result.estimated.clamped
        assert clamped >= 1

    def test_mismatched_angles_rejected(self):
        cfg = SimConfig(n_total=1000, alpha_prime=0.3, alpha=0.4,
                        attack=identity_attack(), seed=0)
        with pytest.raises(DomainError):
            closed_loop_report(cfg)


class TestRejectedCounts:
    """Counts the estimator rejects are still the run's result."""

    # every pulse lost: no conclusive event, so theta and epsilon are undefined
    DARK = config(loss(0.0), n=1000, seed=1)
    REASON = "all pulses inconclusive (T = 0); theta and epsilon are undefined"

    def test_run_returns_its_counts_without_an_estimate(self):
        result = run_simulation(self.DARK)
        assert result.estimated is None
        assert result.counts == ObservedCounts(n00=0, n01=0, n0b0=0, n0b1=0, n10=0, n11=0,
                                               n1b0=0, n1b1=0, n_total=1000)
        assert np.array(result.joint).sum() == 1000

    def test_closed_loop_report_raises_the_estimators_error(self):
        with pytest.raises(EstimationInfeasibleError) as direct:
            estimate_channel(run_simulation(self.DARK).counts, self.DARK.alpha)
        with pytest.raises(EstimationInfeasibleError) as report:
            closed_loop_report(self.DARK)
        assert str(report.value) == str(direct.value) == self.REASON


class TestDegenerateAnalyzerAngle:
    """At 0 and 90 degrees the count inversion degenerates; the run still returns its counts."""

    @pytest.mark.parametrize("degrees, sin2a", ((0, "0.00e+00"), (90, "1.22e-16")))
    def test_run_returns_its_counts_without_an_estimate(self, degrees, sin2a):
        cfg = config(parse_attack("depolarize(epsilon=0.05)|loss(T=0.9)", degrees * DEG),
                     n=100000, seed=42, alpha=degrees * DEG)
        result = run_simulation(cfg)
        assert result.estimated is None
        assert np.array(result.joint).sum() == 100000
        assert ObservedCounts.from_table(100000, np.array(result.joint).sum(axis=1)) \
            == result.counts
        message = "^" + re.escape(f"count inversion degenerates at sin(2 alpha) = {sin2a}") + "$"
        with pytest.raises(DegenerateAngleError, match=message):
            require_estimate(cfg, result)
        with pytest.raises(DegenerateAngleError, match=message):
            closed_loop_report(cfg)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# demo run\n"
            "n_total = 5000\n"
            "alpha_deg = 12\n"
            "attack = depolarize(epsilon=0.1) | loss(T=0.9)\n"
            "seed = 4\n")
        cfg = SimConfig.from_file(path)
        assert cfg.n_total == 5000
        assert cfg.alpha == pytest.approx(12 * DEG)
        assert cfg.alpha_prime == pytest.approx(12 * DEG)
        assert cfg.seed == 4
        assert len(cfg.attack.branches) == 4
        result = run_simulation(cfg)
        assert result.counts.n_total == 5000

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha_deg = 10\n")
        with pytest.raises(DomainError):
            SimConfig.from_file(path)

    def test_json_emission_parses(self):
        result = run_simulation(config(depolarize(0.05), n=10000, seed=2))
        import json
        record = json.loads(json.dumps(asdict(result)))
        assert record["counts"]["n_total"] == 10000
        assert 0.0 <= record["estimated"]["epsilon"] <= 1.0


def class_probabilities(cfg: SimConfig) -> np.ndarray:
    """p[bit, branch, outcome]: Alice's bit, the branch weight and Bob's outcome."""
    weights = np.array([br.weights for br in cfg.attack.branches]).T
    return 0.5 * weights[:, :, np.newaxis] * outcome_distribution(cfg)


class TestMultinomialDraw:
    # one pulse leaves counts the estimator rejects; the run still returns them
    @pytest.mark.parametrize("n", (123457, 10 ** 6, 1))
    @pytest.mark.parametrize("name", (*PARITY_CHANNELS, "4096 branches"))
    def test_joint_sums_to_the_pulse_count(self, name, n):
        # twelve depolarizing stages make 4,096 branches and 40,960 classes
        channel = parse_attack("|".join(["depolarize(epsilon=0.1)"] * 12), ALPHA) \
            if name == "4096 branches" else parity_channel(name)
        joint = np.array(run_simulation(config(channel, n=n, seed=5)).joint)
        assert joint.shape == (2, len(channel.branches), len(OUTCOMES))
        assert joint.dtype == np.int64 and (joint >= 0).all() and joint.sum() == n

    @pytest.mark.parametrize("name", PARITY_CHANNELS)
    def test_impossible_classes_stay_empty(self, name):
        cfg = config(parity_channel(name), n=10 ** 6)
        impossible = class_probabilities(cfg) == 0.0
        v = OUTCOMES.index("V")
        if name == "identity":
            assert impossible[:, :, v].all()
        if name == "edges":  # the zero-weight rows, and the V or non-V classes
            assert impossible[0, 0].all() and impossible[1, 1].all()
            assert impossible[:, :2, v].all() and impossible[:, 2, :v].all()
        for seed in range(40):
            joint = np.array(run_simulation(replace(cfg, seed=seed)).joint)
            assert (joint[impossible] == 0).all(), seed

    @pytest.mark.parametrize("name", PARITY_CHANNELS)
    def test_chi_square_below_its_0999_quantile(self, name):
        # Pearson's chi-square of the counts against n p over the classes
        # that can occur; its survival function above 0.001 puts it below
        # the 0.999 quantile for its degrees of freedom, on every seed
        n = 10 ** 6
        cfg = config(parity_channel(name), n=n)
        p = class_probabilities(cfg)
        live = p > 0.0
        dof = int(live.sum()) - 1
        for seed in range(40):
            joint = np.array(run_simulation(replace(cfg, seed=seed)).joint)
            chi2 = float((((joint - n * p) ** 2)[live] / (n * p[live])).sum())
            survival = mpmath.gammainc(dof / 2, chi2 / 2, mpmath.inf, regularized=True)
            assert survival > 0.001, (seed, chi2, dof)

    def test_edge_channel_has_its_edge_rows(self):
        weights = np.array([br.weights for br in EDGE_CHANNEL.branches]).T
        assert (weights == 0.0).sum(axis=1).tolist() == [1, 1]
        cdf = np.cumsum(outcome_distribution(config(EDGE_CHANNEL)), axis=2)
        assert (cdf[:, :2, -2] == 1.0).all()
        assert (cdf[:, 2, :-1] == 0.0).all()

    def test_counts_export_config_is_pinned(self):
        alpha = math.radians(12)
        cfg = SimConfig(n_total=20000, alpha_prime=alpha, alpha=alpha,
                        attack=parse_attack("depolarize(epsilon=0.05)|loss(T=0.9)", alpha),
                        seed=4)
        assert run_simulation(cfg).counts == ObservedCounts(
            n00=4334, n01=4249, n0b0=119, n0b1=303, n10=4068, n11=4509,
            n1b0=333, n1b1=107, n_total=20000)

    def test_joint_counts_in_json(self):
        result = run_simulation(config(depolarize(0.1).compose(loss(0.8)), n=5000, seed=3))
        joint = json.loads(json.dumps(asdict(result)))["joint"]
        assert np.array_equal(joint, result.joint)
        assert np.array(joint).shape == (2, 4, len(OUTCOMES))
        assert np.array(joint).sum() == 5000
        assert ObservedCounts.from_table(5000, np.array(joint).sum(axis=1)) == result.counts


def explicit_outcome_distribution(config: SimConfig) -> np.ndarray:
    """Tr[E_mu rho] per (bit, branch) from kets and explicit POVM effects.

    Alice's bit-j signal is the ket at -+alpha'; a branch rotates it by its
    rotation for that bit, and its qubit block carries weight 0 (vacuum) or 1.
    """
    effects = explicit_povm_effects(config.alpha)
    branches = config.attack.branches
    table = np.empty((2, len(branches), len(OUTCOMES)))
    for bit, signal in enumerate((-config.alpha_prime, config.alpha_prime)):
        for k, branch in enumerate(branches):
            transmission = 0.0 if branch.to_vacuum else 1.0
            rho = transmission * projector(ket(signal + branch.rotations[bit]))
            table[bit, k] = [np.trace(effects[mu] @ rho) for mu in OUTCOMES[:-1]] + [
                1.0 - transmission]
    return table


# every parse_attack stage, one composed attack, and the edge channel
TABLE_ATTACKS = (*PARITY_ATTACKS.values(), "depolarize(epsilon=0.1)",
                 "depolarize(epsilon=0.1)|rotation|loss(T=0.7)", "edges")


class TestOutcomeDistribution:
    @pytest.mark.parametrize("text", TABLE_ATTACKS)
    @pytest.mark.parametrize("alpha_prime_deg, alpha_deg", ((20, 20), (60, 60), (25, 20)))
    def test_matches_traces_of_explicit_effects(self, text, alpha_prime_deg, alpha_deg):
        # alpha on both sides of 45 degrees, and one signal angle off the analyzer's
        alpha_prime, alpha = alpha_prime_deg * DEG, alpha_deg * DEG
        channel = EDGE_CHANNEL if text == "edges" else parse_attack(
            text.format(q0=critical_weakness(alpha_prime)), alpha_prime)
        cfg = SimConfig(n_total=1, alpha_prime=alpha_prime, alpha=alpha, attack=channel, seed=0)
        np.testing.assert_allclose(outcome_distribution(cfg),
                                   explicit_outcome_distribution(cfg), rtol=0, atol=1e-12)


class TestConfigValidation:
    @pytest.mark.parametrize("seed", (-1, 1 << 128, 1.5, "4", False, True))
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError):
            config(identity_attack(), n=10, seed=seed)

    @pytest.mark.parametrize("n_total", (0, 1000.5, 1000.0, math.nan, "1000", True))
    def test_bad_pulse_count_rejected(self, n_total):
        with pytest.raises(DomainError):
            config(identity_attack(), n=n_total, seed=0)

    def test_pulse_count_past_int64_rejected(self):
        with pytest.raises(DomainError, match=rf"^n_total must .*: {2 ** 63}$"):
            config(identity_attack(), n=2 ** 63, seed=0)

    def test_largest_pulse_count_runs(self):
        result = run_simulation(config(depolarize(0.05), n=2 ** 63 - 1, seed=0))
        assert result.counts.n_total == 2 ** 63 - 1
        assert sum(n for plane in result.joint for row in plane for n in row) == 2 ** 63 - 1

    def test_largest_seed_runs(self):
        result = run_simulation(config(depolarize(0.2), n=20000, seed=(1 << 128) - 1))
        assert result.counts.detected() == 20000

    @pytest.mark.parametrize("name", ("alpha", "alpha_prime"))
    @pytest.mark.parametrize("bad", (-0.1, math.pi / 2 + 0.1, math.nan))
    def test_angle_outside_quarter_turn_rejected(self, name, bad):
        angles = {"alpha": 0.3, "alpha_prime": 0.3, name: bad}
        with pytest.raises(DomainError):
            SimConfig(n_total=10, attack=identity_attack(), seed=0, **angles)

    def test_analyzer_angle_in_file_is_checked(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_total = 1000\nalpha_deg = 100\nalpha_prime_deg = 10\n")
        with pytest.raises(DomainError):
            SimConfig.from_file(path)

    @pytest.mark.parametrize("line", ("seed = -1", "seed = 1.5", "seed = x",
                                      "n_total = 1e5", "n_total = many",
                                      "alpha_deg = ten"))
    def test_bad_value_in_file_is_domain_error(self, tmp_path, line):
        entries = {"n_total": "5000", "alpha_deg": "12", "seed": "4"}
        key, value = (part.strip() for part in line.split("="))
        entries[key] = value
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        with pytest.raises(DomainError):
            SimConfig.from_file(path)


# rerun tests/data/record_simulation.py only when a config or seed changes,
# never to follow the code
SIM_RECORD = Path(__file__).parent / "data" / "simulation_record.json"
# every parse_attack stage, loss with every pulse lost, two compositions and
# the edge channel, whose vacuum branch and zero-weight rows the draw skips
RECORD_ATTACKS = (*PARITY_ATTACKS.values(), "depolarize(epsilon=0.1)", "loss(T=0)",
                  "depolarize(epsilon=0.1)|rotation|loss(T=0.7)", "edges")
# the key's low and high 64-bit words at their ends, and the same seeds as
# numpy integers where they fit
RECORD_SEEDS = (0, 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 128) - 1,
                np.int64(0), np.int64(1), np.uint64(0), np.uint64(1), np.uint64((1 << 64) - 1))


def record_configs() -> dict[str, SimConfig]:
    """40 configs by name, each at seed 0.

    Every attack of ``RECORD_ATTACKS`` at alpha' = alpha = 20 degrees and
    n = 1, 10^6 and 2^63 - 1, and at alpha' = 25, alpha = 20 degrees and
    n = 10^6.
    """
    configs = {}
    for alpha_prime_deg, alpha_deg, pulses in ((20, 20, 1), (20, 20, 10 ** 6),
                                               (20, 20, 2 ** 63 - 1), (25, 20, 10 ** 6)):
        alpha_prime, alpha = alpha_prime_deg * DEG, alpha_deg * DEG
        for text in RECORD_ATTACKS:
            channel = EDGE_CHANNEL if text == "edges" else parse_attack(
                text.format(q0=critical_weakness(alpha_prime)), alpha_prime)
            name = f"{text.format(q0='q0')} a'={alpha_prime_deg} a={alpha_deg} n={pulses}"
            configs[name] = SimConfig(pulses, alpha_prime, alpha, channel, 0)
    return configs


def record_joints() -> dict[str, list]:
    """``joint`` of every recorded config at every recorded seed, by name and seed."""
    return {f"{name} seed={type(seed).__name__}({int(seed)})":
            json.loads(json.dumps(run_simulation(replace(cfg, seed=seed)).joint))
            for name, cfg in record_configs().items() for seed in RECORD_SEEDS}


def test_draws_match_the_recorded_table():
    # the seed is the Philox key, both of its 64-bit words: a change of the
    # key's high word, or of how a numpy integer seed is read, shows here
    recorded = json.loads(SIM_RECORD.read_text())
    got = record_joints()
    assert got.keys() == recorded.keys()
    for key, joint in recorded.items():
        assert got[key] == joint, key
