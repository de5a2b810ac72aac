"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantities. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import os
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from artdiff.cli import main as cli_main
from artdiff.datasets import DATASETS, ring_centers
from artdiff.denoisers import (GaussianOracle, ToyDenoiser, TrainConfig,
                               _loss_and_grad, init_toy_denoiser, time_embedding, train)
from artdiff.numerics import RngStream
from artdiff.promptx import (Document, Gazetteer, TfidfModel, bm25_search,
                             build_index, cosine, score_candidate, tokenize)
from artdiff.samplers import SamplingPlan, plms_combine, sample
from artdiff.schedule import linear_schedule, subsequence

from latentae import (AeTrainConfig, MomentPair, decode, encode_moments,
                      init_toy_autoencoder, kl_loss, train_toy_ae)
from reference import ddim_sigma, posterior_mean_from_eps, q_step, sample_stats
from test_promptx import WORDS, naive_bm25_scores, random_docs, scored

DATA = Path(__file__).parent / "data"


def report(criterion, detail):
    print(f"\nACCEPTANCE PASS [{criterion}] {detail}")


def test_criterion_01_forward_marginal_equivalence():
    start = time.perf_counter()
    schedule = linear_schedule(1000)
    n, d = 10_000, 2
    x0 = np.array([1.0, -0.5])
    rng = RngStream(2718)
    x = np.tile(x0, (n, 1))
    for t in range(1, schedule.T + 1):
        x = q_step(x, t, schedule, rng)
    aT = schedule.alpha_bar(schedule.T)
    target_mean = math.sqrt(aT) * x0
    target_var = 1.0 - aT
    se_mean = math.sqrt(target_var / n)
    se_var = target_var * math.sqrt(2.0 / (n - 1))
    mean_err = np.abs(x.mean(axis=0) - target_mean)
    var_err = np.abs(x.var(axis=0, ddof=1) - target_var)
    elapsed = time.perf_counter() - start
    assert np.all(mean_err < 3 * se_mean)
    assert np.all(var_err < 3 * se_var)
    assert elapsed < 60.0
    report(1, f"chain vs closed form: mean err {mean_err.max():.2e} "
              f"(3se {3*se_mean:.2e}), var err {var_err.max():.2e} "
              f"(3se {3*se_var:.2e}), {elapsed:.1f}s")


def test_criterion_02_plms_coefficient_suite():
    e = np.array([1.0])
    z = np.zeros(1)
    assert plms_combine(np.array([2.0]), [z])[0] == 3.0
    assert plms_combine(e, [z, z, z])[0] == 55.0 / 24.0
    assert plms_combine(z, [e, z, z])[0] == -59.0 / 24.0
    assert plms_combine(z, [z, e, z])[0] == 37.0 / 24.0
    assert plms_combine(z, [z, z, e])[0] == -9.0 / 24.0
    assert plms_combine(e, [z])[0] == 3.0 / 2.0
    assert plms_combine(z, [e])[0] == -1.0 / 2.0
    assert plms_combine(e, [z, z])[0] == 23.0 / 12.0
    assert plms_combine(z, [e, z])[0] == -16.0 / 12.0
    assert plms_combine(z, [z, e])[0] == 5.0 / 12.0
    # constant sequences are fixed points at every depth (dyadic constant)
    c = np.full(3, 0.75)
    for depth in (1, 2, 3):
        assert np.array_equal(plms_combine(c, [c.copy()] * depth), c)
    # symbolic row sums
    rows = [[Fraction(3, 2), Fraction(-1, 2)],
            [Fraction(23, 12), Fraction(-16, 12), Fraction(5, 12)],
            [Fraction(55, 24), Fraction(-59, 24), Fraction(37, 24), Fraction(-9, 24)]]
    assert all(sum(r) == 1 for r in rows)
    report(2, "coefficient rows exact on basis inputs; rows sum to 1")


def test_criterion_03_ancestral_ddim_identity():
    schedule = linear_schedule(1000)
    worst_sigma = 0.0
    for t in range(2, 1001):
        ref = schedule.posterior_var(t)
        rel = abs(ddim_sigma(1.0, t, t - 1, schedule) ** 2 - ref) / ref
        worst_sigma = max(worst_sigma, rel)
    assert worst_sigma <= 1e-12

    rng = RngStream(31)
    worst_mean = 0.0
    for t in [2, 10, 123, 500, 999, 1000]:
        xt = rng.normal((16, 2))
        eps = rng.normal((16, 2))
        an = schedule.alpha_bar(t - 1)
        sigma = ddim_sigma(1.0, t, t - 1, schedule)
        x0p = (xt - math.sqrt(1 - schedule.alpha_bar(t)) * eps) \
            / math.sqrt(schedule.alpha_bar(t))
        mean_ddim = math.sqrt(an) * x0p + math.sqrt(1 - an - sigma**2) * eps
        mean_ddpm = posterior_mean_from_eps(xt, eps, t, schedule)
        scale = max(1.0, float(np.max(np.abs(mean_ddpm))))
        worst_mean = max(worst_mean, float(np.max(np.abs(mean_ddim - mean_ddpm))) / scale)
    assert worst_mean <= 1e-10
    report(3, f"sigma^2(eta=1) vs posterior var rel err {worst_sigma:.2e}; "
              f"posterior means agree to {worst_mean:.2e}")


def test_criterion_04_oracle_end_to_end_sampling():
    start = time.perf_counter()
    schedule = linear_schedule(1000)
    mu0 = np.array([3.0, -1.0])
    var0 = 0.25
    oracle = GaussianOracle(mu0=mu0, var0=var0, schedule=schedule)
    n = 20_000
    plan = SamplingPlan(timeline=subsequence(schedule, 200), kind="ddim",
                        width=2, seed=100, batch=n, eta=1.0,
                        guidance_scale=1.0)
    samples = sample(oracle, plan, schedule)
    mean, cov = sample_stats(list(samples))
    target_cov = var0 * np.eye(2)
    mean_err = np.abs(mean - mu0)
    cov_err = np.abs(cov - target_cov)
    elapsed = time.perf_counter() - start
    assert np.all(mean_err < 0.05)
    assert np.all(cov_err < 0.05)
    assert elapsed < 300.0
    report(4, f"eta=1 200-step endpoint: |mean err| {mean_err.max():.4f} < 0.05, "
              f"|cov err| {cov_err.max():.4f} < 0.05, {elapsed:.1f}s")


def test_criterion_05_convergence_order():
    # the 2000-step reference needs 2000 distinct timesteps, so the
    # comparison runs on a T=2000 linear schedule
    schedule = linear_schedule(2000)
    oracle = GaussianOracle(mu0=np.array([3.0, -1.0]), var0=0.25,
                            schedule=schedule)

    def endpoint(kind, k):
        plan = SamplingPlan(timeline=subsequence(schedule, k), kind=kind,
                            width=2, seed=123, batch=256, eta=0.0,
                            guidance_scale=1.0)
        return sample(oracle, plan, schedule)

    reference = endpoint("ddim", 2000)
    ref_norm = np.linalg.norm(reference)
    counts = [10, 20, 40, 80]
    errors = {}
    for kind in ("ddim", "plms"):
        errors[kind] = [float(np.linalg.norm(endpoint(kind, k) - reference)) / ref_norm
                        for k in counts]
    order = {kind: float(-np.polyfit(np.log(counts), np.log(errs), 1)[0])
             for kind, errs in errors.items()}
    err50 = float(np.linalg.norm(endpoint("plms", 50) - reference)) / ref_norm
    assert order["plms"] >= 1.8
    assert 0.8 <= order["ddim"] <= 1.3
    assert err50 <= 1e-2
    report(5, f"fitted orders plms {order['plms']:.2f} (>=1.8), "
              f"ddim {order['ddim']:.2f} (in [0.8,1.3]); "
              f"plms rel L2 @50 steps {err50:.2e} <= 1e-2")


def test_criterion_06_gradient_fidelity():
    schedule = linear_schedule(1000)
    rng = RngStream(42)
    params = init_toy_denoiser(rng.child("init"), 2)
    x0 = rng.child("x").normal((3, 2))
    t = np.array([5, 500, 999])
    eps = rng.child("e").normal((3, 2))
    a = schedule.alpha_bars[t - 1][:, None]
    xt = np.sqrt(a) * x0 + np.sqrt(1 - a) * eps
    memory = rng.child("m").normal((3, 2, 16))
    mask = np.array([1.0, 0.0, 1.0])

    grads = replace(params, vector=np.empty_like(params.vector))
    scratch = replace(params, vector=np.empty_like(params.vector))
    temb = time_embedding(t, params.time_dim)
    _loss_and_grad(params, grads, xt, temb, eps, memory, mask)

    def loss_at(vec):
        return _loss_and_grad(replace(params, vector=vec), scratch, xt, temb, eps, memory, mask)

    vec = params.vector
    h = 1e-4
    offset = 0
    worst_by_group = {}
    for name, arr in params.arrays().items():
        gflat = grads.vector[offset:offset + arr.size]
        worst = 0.0
        for j in range(arr.size):
            i = offset + j
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fd = (loss_at(vp) - loss_at(vm)) / (2 * h)
            rel = abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-6)
            worst = max(worst, rel)
        worst_by_group[name] = worst
        offset += arr.size
    assert all(w <= 1e-4 for w in worst_by_group.values()), worst_by_group
    worst_group = max(worst_by_group, key=worst_by_group.get)
    report(6, f"finite differences over {vec.size} parameters in "
              f"{len(worst_by_group)} groups: worst rel err "
              f"{worst_by_group[worst_group]:.2e} ({worst_group}) <= 1e-4")


def test_criterion_07_toy_generative_quality():
    start = time.perf_counter()
    schedule = linear_schedule(1000)
    dataset = DATASETS["8-gaussian-ring"]
    params = init_toy_denoiser(RngStream(0).child("init"), 2)
    config = TrainConfig(steps=20_000, batch_size=64, learning_rate=1e-3, seed=0)
    params, losses = train(params, dataset, config, schedule)
    assert losses[-1000:].mean() < 0.7 * losses[:1000].mean()

    plan = SamplingPlan(timeline=subsequence(schedule, 50), kind="plms",
                        width=2, seed=11, batch=1000, guidance_scale=1.0)
    points = sample(ToyDenoiser(params), plan, schedule)
    centers = ring_centers()
    dist = np.linalg.norm(points[:, None, :] - centers[None], axis=2)
    nearest = dist.argmin(axis=1)
    within = dist.min(axis=1) <= 0.5
    counts = np.bincount(nearest[within], minlength=8)
    fractions = counts / len(points)
    covered = int((fractions >= 0.05).sum())
    elapsed = time.perf_counter() - start
    assert covered >= 7
    assert elapsed < 600.0
    report(7, f"20k-step training, 1k plms samples: {covered}/8 modes >= 5% "
              f"(min fraction {fractions.min():.3f}), {elapsed:.0f}s")


def test_criterion_08_autoencoder_losses():
    assert abs(kl_loss(MomentPair(mu=np.zeros(3), logvar=np.zeros(3)))) <= 1e-9
    assert abs(kl_loss(MomentPair(mu=np.array([1.0]), logvar=np.array([0.0])))
               - 0.5) <= 1e-9
    assert abs(kl_loss(MomentPair(mu=np.array([0.0]), logvar=np.array([1.0])))
               - (math.e - 2.0) / 2.0) <= 1e-9

    dataset = DATASETS["line-subspace"]
    params = init_toy_autoencoder(RngStream(5).child("ae"), 2, 1)
    config = AeTrainConfig(steps=3000, batch_size=256, learning_rate=0.02,
                           seed=5, kl_weight=1e-3)
    trained, _ = train_toy_ae(params, dataset, config)
    x, _ = dataset.sample(2000, RngStream(99))
    xhat = decode(encode_moments(x, trained).mu, trained)
    mse = float(np.mean((x - xhat) ** 2))
    assert mse < 0.01
    report(8, f"kl fixed points within 1e-9; subspace recovery mse {mse:.2e} < 0.01")


def test_criterion_09_bm25_tfidf_oracle_equivalence():
    rng = RngStream(101)
    trials = 0
    for _ in range(200):
        n_docs = 1 + int(rng.integers(0, 9, (1,))[0])
        docs = random_docs(rng, n_docs)
        index = build_index(docs)
        q_len = int(rng.integers(1, 4, (1,))[0])
        query = " ".join(WORDS[int(j)]
                         for j in rng.integers(0, len(WORDS) - 1, (q_len,)))
        got = {doc.id: score for doc, score in bm25_search(index, query, n_docs)}
        want = naive_bm25_scores(docs, query)
        for doc, score in zip(docs, want):
            assert got[doc.id] == score
        trials += 1
    index = build_index([Document(id="a", title="china city train wheat")])
    ((_, single),) = bm25_search(index, "china", 1)
    assert abs(single - 0.287682) <= 1e-6
    report(9, f"{trials} random corpora match the brute-force scorer exactly; "
              f"single-doc score {single:.6f}")


def test_criterion_10_scoring_pipeline(tmp_path):
    class StubEmbedder:
        def embed(self, text):
            return np.array([5.0, 0.0]) if text == "query text" \
                else np.array([4.0, 3.0])

    stub = StubEmbedder()
    model = TfidfModel(idf={"shenzhen": 1.0, "1980": 1.0})
    cand = score_candidate("shenzhen 1980", tokenize("shenzhen 1980"),
                           cosine(stub.embed("query text"), stub.embed("shenzhen 1980")),
                           model, 0.5, 0.1, Gazetteer(["Shenzhen"]))
    assert cand.tfidf == 0.5
    assert cand.cos == 0.8
    assert (cand.spatial_entities, cand.temporal_entities) == (1, 1)
    assert cand.score == 0.5 + 0.5 * 0.8 + 0.1 * 2 == 1.1

    # monotone under component perturbations
    gaz = Gazetteer(["china"])
    lo = TfidfModel(idf={"china": 0.2})
    hi = TfidfModel(idf={"china": 0.9})
    assert scored("china", "china", hi, 1.0, 0.1, gaz).score \
        >= scored("china", "china", lo, 1.0, 0.1, gaz).score
    assert scored("china", "china in 1980", lo, 1.0, 0.1, gaz).score \
        >= scored("china", "china in town", lo, 1.0, 0.1, gaz).score

    # extend_prompt through the CLI is byte-deterministic across runs
    args = ["prompt-extend", "urbanization of China",
            "--corpus", str(DATA / "micro_corpus.jsonl"),
            "--gazetteer", str(DATA / "gazetteer.txt"),
            "--fixtures", str(DATA / "fixtures.jsonl"), "--topk", "8"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    blob_a = (out_a / "candidates.jsonl").read_bytes()
    assert blob_a == (out_b / "candidates.jsonl").read_bytes()
    rows = [json.loads(line) for line in blob_a.decode().splitlines()]
    scores = [r["score"] for r in rows]
    assert scores == sorted(scores, reverse=True)
    report(10, f"worked example scores 1.1 exactly; ranking monotone; "
               f"{len(rows)} candidates byte-identical across runs")


WIKIART_ENV = "WIKIART_METADATA"


@pytest.mark.skipif(WIKIART_ENV not in os.environ,
                    reason=f"set {WIKIART_ENV} to the metadata table to enable")
def test_criterion_11_wikiart_statistics():
    from artdiff.promptx import artist_histogram, read_artwork_table, top_share
    metas, _ = read_artwork_table(os.environ[WIKIART_ENV])
    hist = artist_histogram(metas)
    top3 = hist[:3]
    assert top3[0] == ("Vincent van Gogh", 1889)
    assert top3[1] == ("Nicholas Roerich", 1860)
    assert top3[2] == ("Pierre Auguste Renoir", 1400)
    for k, expected in [(10, 14.18), (20, 21.80), (30, 27.62)]:
        assert abs(100.0 * top_share(hist, k) - expected) <= 0.05
    report(11, "wikiart top-3 counts and top-10/20/30 shares reproduced")
