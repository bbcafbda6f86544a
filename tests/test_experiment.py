"""``run_experiment``: one statistics pass gives both the bound and the
gap, from the same draws of W."""

import json
from functools import reduce

import numpy as np
import pytest

import oracles
from steinlab import cli
from steinlab import coloring as cm
from steinlab import degrees as dg
from steinlab import nonlinear as nl
from steinlab.bounds import BoundReport, bound_multivariate_size_bias
from steinlab.experiment import run_experiment
from steinlab.harness import Accumulator, StreamConfig
from steinlab.linalg import inverse_sqrt, whiten
from steinlab.sizebias import CoupledPairSampler
from steinlab.testfuncs import SmoothTestFunction, phi_h


class _GivenLaw(CoupledPairSampler):
    """W from ``draw_w(rng, size)``, coupled to itself: its bound is 0, so
    only the gap ``run_experiment`` reads from it is under test."""

    name = "given-law"
    config: dict = {}

    def __init__(self, draw_w, lam):
        self.draw_w = draw_w
        self.lam = np.asarray(lam, dtype=float)
        self.p = len(self.lam)
        self.sigma = self.isqrt = np.eye(self.p)
        self.row_values = self.p

    def draw(self, rng, rows):
        return self.draw_w(rng, rows)

    def w(self, state):
        return state

    def couple(self, state, i, rng):
        return state

    def cond_exp(self, state):
        return np.zeros((len(state), self.p, self.p))

    def bound(self, norms, samples, seed, chunk_size, score):
        stats, scores = self.coupling_stats(samples, seed, chunk_size, score)
        return (bound_multivariate_size_bias(stats, self.isqrt, norms.d2,
                                             norms.d3), stats, scores)

    def extras(self, stats):
        return {}


class TestGapCases:
    def test_degenerate_w_at_mean(self):
        """W identically lambda: gap = |h(0) - E h(Z)| = 1 - e^{-1/2}."""
        h = SmoothTestFunction("cosine", p=1, a=(1.0,))
        model = _GivenLaw(lambda rng, size: np.full((size, 1), 3.0), [3.0])
        rep = run_experiment(model, h, 5000, seed=1, chunk_size=1000)
        np.testing.assert_allclose(rep.gap, 1.0 - np.exp(-0.5), atol=1e-12)
        assert rep.gap_stderr == 0.0

    def test_constant_h_zero_gap(self):
        h = SmoothTestFunction("cosine", p=1, a=(0.0,), b=0.0)
        model = _GivenLaw(lambda rng, size: rng.standard_normal((size, 1)),
                          [0.0])
        rep = run_experiment(model, h, 4000, seed=2, chunk_size=512)
        assert rep.gap == 0.0

    def test_null_case_within_noise(self):
        """W exactly normal: the gap is pure Monte Carlo noise."""
        h = SmoothTestFunction("cosine", p=2, a=(1.0, 0.5))
        model = _GivenLaw(lambda rng, size: rng.standard_normal((size, 2)),
                          [0.0, 0.0])
        rep = run_experiment(model, h, 200_000, seed=3, chunk_size=16384)
        assert rep.gap <= 4.0 * rep.gap_stderr


def _degree_case():
    model = dg.DegreeCountCoupler(dg.ErdosRenyiConfig.from_c(20, 2.0, (1, 2)))
    return model, model.sample_w


def _gauss_case():
    model = nl.GaussianSumCoupler(
        nl.GaussianSumConfig(16, nl.parse_psi("square"), rho=0.1))
    return model, model.sample_w


def _color_case():
    g = cm.random_regular_graph(40, 3, seed=1)
    cfg = cm.ColoringConfig((0.3, 0.3, 0.4))
    model = cm.ColoringModel(g, cfg)

    def sample_w(rng, size):
        return oracles.counts_from_colors(
            g, cm.sample_colors(g, cfg, rng, size), cfg.p)
    return model, sample_w


class TestOnePass:
    @pytest.mark.parametrize("case", [_degree_case, _gauss_case,
                                      _color_case])
    def test_gap_is_scored_on_the_statistics_draws(self, case):
        """Each chunk here is one state, whose W is the first thing drawn
        from the chunk's stream; so the gap recomputed from fresh draws on
        those streams matches the report's to the last bit."""
        model, sample_w = case()
        h = SmoothTestFunction("cosine", p=model.p, a=(0.5,) * model.p)
        samples, seed, chunk_size = 2000, 7, 512
        rep = run_experiment(model, h, samples, seed=seed,
                             chunk_size=chunk_size)
        cfg = StreamConfig(seed, chunk_size)
        isqrt = inverse_sqrt(model.sigma)
        scores = reduce(Accumulator.merge, [
            Accumulator().add(h.evaluate(whiten(sample_w(cfg.stream(k), size),
                                                model.lam, isqrt)))
            for k, size in enumerate(cfg.chunks(samples))])
        assert len(cfg.chunks(samples)) > 1
        assert rep.gap == abs(float(scores.mean) - phi_h(h))
        assert rep.gap_stderr == float(scores.sem)

    def test_resolved_gap_fails_a_zero_bound(self, monkeypatch, capsys):
        """Power: an odd h, sin(1.5 W~_1), on degree counts at n = 10 reads
        a gap of 0.071, about 10 standard errors, at 10,000 draws (seed 0).
        With the bound forced to 0, the pass rule must fail the run."""
        argv = ["degree-count", "--n", "10", "--c", "2", "--degrees", "1,2",
                "--samples", "10000", "--seed", "0",
                "--h", "cosine:a=1.5,0:b=-1.5707963267948966"]
        monkeypatch.setattr(
            dg, "bound_multivariate_size_bias",
            lambda stats, *norms: BoundReport("zero", [], 0.0, 0.0))
        assert cli.main(argv) == cli.EXIT_VIOLATION
        report = json.loads(capsys.readouterr().out)
        assert report["bound"]["total"] == 0.0 and report["pass"] is False
        assert report["gap"] > 5.0 * report["gap_stderr"]
