import numpy as np
import pytest

import xorcodes as xc
from xorcodes.decoding import _comb_table, _membership


def small_cfg(**kw):
    base = dict(n=10, k=4, k1=3, attempts=3, max_climb_steps=60,
                stagnation_limit=15, master_seed=7)
    base.update(kw)
    return xc.SearchConfig(**base)


class TestSearchConfig:
    def test_defaults(self):
        cfg = xc.SearchConfig(n=13, k=5)
        assert cfg.k1 == 3
        assert cfg.reference_p == 0.1
        assert cfg.samples is None

    @pytest.mark.parametrize("kw,msg", [
        (dict(n=5, k=5), "n > k"),
        (dict(n=4, k=0), "n > k"),
        (dict(n=10, k=4, k1=2), "k1 must be odd"),
        (dict(n=10, k=4, k1=5), "k1 <= k"),
        (dict(n=10, k=4, attempts=0), "attempts"),
        (dict(n=10, k=4, max_climb_steps=-1), "max_climb_steps"),
        (dict(n=10, k=4, stagnation_limit=0), "stagnation_limit"),
        (dict(n=10, k=4, reference_p=1.5), "reference_p"),
        (dict(n=10, k=4, samples=0), "samples"),
        (dict(n=10, k=4, master_seed=-1), "master_seed"),
        (dict(n=10, k=4, max_subsets=0), "max_subsets"),
    ])
    def test_validation_names_constraint(self, kw, msg, monkeypatch):
        # k1 is refused by algorithm 2's first restart, the rest by the config itself;
        # either way before any candidate is evaluated
        def no_evaluation(*args):
            raise AssertionError("a candidate was evaluated")

        monkeypatch.setattr("xorcodes.search._evaluate", no_evaluation)
        with pytest.raises(ValueError, match=msg):
            xc.search_family(xc.SearchConfig(**kw), algorithm=2)


class TestInitRandom:
    @pytest.mark.parametrize("seed", range(10))
    def test_always_full_rank(self, seed):
        cfg = small_cfg()
        c = xc.init_random(cfg, np.random.default_rng(seed))
        assert xc.rank(c.G) == cfg.k
        assert c.vd.rho[-1] == 1.0

    def test_score_is_reference_success(self):
        cfg = small_cfg()
        c = xc.init_random(cfg, np.random.default_rng(3))
        assert c.score == xc.p_success(c.vd, cfg.reference_p).p_s

    def test_deterministic(self):
        cfg = small_cfg()
        a = xc.init_random(cfg, np.random.default_rng(5))
        b = xc.init_random(cfg, np.random.default_rng(5))
        assert a.G == b.G and a.score == b.score

    def test_provenance(self):
        c = xc.init_random(small_cfg(), np.random.default_rng(0))
        assert c.provenance["algorithm"] == 1
        assert c.provenance["climb_steps"] == 0


class TestInitBalanced:
    @pytest.mark.parametrize("seed", range(8))
    def test_structure(self, seed):
        cfg = small_cfg()
        c = xc.init_balanced(cfg, np.random.default_rng(seed))
        block = c.G.array[:, : cfg.k]
        assert (block.sum(axis=0) == cfg.k1).all()
        assert (block.sum(axis=1) == cfg.k1).all()
        assert xc.is_nonsingular(xc.BinaryMatrix(block))
        assert (c.G.array[:, cfg.k] == 1).all()

    def test_provenance_reconstructs_block(self):
        cfg = small_cfg()
        c = xc.init_balanced(cfg, np.random.default_rng(4))
        rows = [[int(s) for s in row.split(",")] for row in c.provenance["latin"].split(";")]
        R = xc.LatinRectangle(np.array(rows))
        assert (xc.incidence_matrix(R).array.T == c.G.array[:, : cfg.k]).all()

    def test_rejects_even_weight(self):
        with pytest.raises(ValueError, match="k1 must be odd"):
            xc.init_balanced(small_cfg(k1=2), np.random.default_rng(0))

    def test_minimal_length(self):
        # n = k + 1 leaves no random tail at all
        cfg = xc.SearchConfig(n=5, k=4, k1=3, attempts=1, master_seed=0)
        c = xc.init_balanced(cfg, np.random.default_rng(1))
        assert (c.G.array[:, 4] == 1).all()

    def test_subcode_is_mds(self):
        cfg = small_cfg()
        c = xc.init_balanced(cfg, np.random.default_rng(2))
        sub = xc.select_columns(c.G, range(cfg.k + 1))
        assert xc.is_mds(xc.exact_vd(sub))


class TestNeighbor:
    @pytest.mark.parametrize("seed", range(6))
    def test_flips_exactly_one_bit(self, seed):
        cfg = small_cfg()
        c = xc.init_random(cfg, np.random.default_rng(seed))
        nb = xc.neighbor(c, cfg, np.random.default_rng(seed + 100))
        assert int((c.G.array != nb.G.array).sum()) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_structured_region_fixed(self, seed):
        cfg = small_cfg()
        c = xc.init_balanced(cfg, np.random.default_rng(seed))
        nb = xc.neighbor(c, cfg, np.random.default_rng(seed))
        fixed = slice(0, cfg.k + 1)
        assert (c.G.array[:, fixed] == nb.G.array[:, fixed]).all()
        assert int((c.G.array != nb.G.array).sum()) == 1

    def test_empty_region_rejected(self):
        cfg = xc.SearchConfig(n=5, k=4, k1=3, attempts=1, master_seed=0)
        c = xc.init_balanced(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no mutable positions"):
            xc.neighbor(c, cfg, np.random.default_rng(1))

    def test_deterministic(self):
        cfg = small_cfg()
        c = xc.init_random(cfg, np.random.default_rng(8))
        a = xc.neighbor(c, cfg, np.random.default_rng(9))
        b = xc.neighbor(c, cfg, np.random.default_rng(9))
        assert a.G == b.G


class TestClimb:
    def test_never_worsens(self):
        cfg = small_cfg()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            start = xc.init_random(cfg, rng)
            out = xc.climb(start, cfg, rng)
            assert out.score >= start.score

    def test_zero_budget_returns_start(self):
        cfg = small_cfg(max_climb_steps=0)
        rng = np.random.default_rng(1)
        start = xc.init_random(cfg, rng)
        assert xc.climb(start, cfg, rng) is start

    def test_deterministic(self):
        cfg = small_cfg()
        a = xc.climb(xc.init_random(cfg, np.random.default_rng(2)), cfg,
                     np.random.default_rng(3))
        b = xc.climb(xc.init_random(cfg, np.random.default_rng(2)), cfg,
                     np.random.default_rng(3))
        assert a.G == b.G and a.score == b.score

    def test_records_accepted_steps(self):
        cfg = small_cfg()
        rng = np.random.default_rng(5)
        start = xc.init_random(cfg, rng)
        out = xc.climb(start, cfg, rng)
        assert out.provenance["climb_steps"] >= 0
        if out.G != start.G:
            assert out.provenance["climb_steps"] > 0

    def test_usually_improves(self):
        # a fresh random code nearly always has slack to climb
        cfg = small_cfg(max_climb_steps=120, stagnation_limit=40)
        improved = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            start = xc.init_random(cfg, rng)
            improved += xc.climb(start, cfg, rng).score > start.score
        assert improved >= 8


class TestDominates:
    def test_reflexive(self, vd135):
        assert xc.dominates(vd135, vd135)

    def test_simple_order(self):
        a = xc.DecodingVector(6, 5, [1.0, 1.0])
        b = xc.DecodingVector(6, 5, [0.9, 1.0])
        assert xc.dominates(a, b)
        assert not xc.dominates(b, a)

    def test_incomparable_pair(self):
        a = xc.DecodingVector(7, 5, [0.2, 0.9, 1.0])
        b = xc.DecodingVector(7, 5, [0.3, 0.8, 1.0])
        assert not xc.dominates(a, b)
        assert not xc.dominates(b, a)

    def test_golden_beats_baseline(self, vd135):
        assert xc.dominates(vd135, xc.rlnc_vd(13, 5, 2))

    def test_integer_path(self, g135, vd135):
        other = xc.exact_vd(xc.select_columns(g135, range(13)))
        assert xc.dominates(vd135, other) and xc.dominates(other, vd135)

    def test_dimension_mismatch(self, vd135):
        with pytest.raises(ValueError, match="dimension mismatch"):
            xc.dominates(vd135, xc.rlnc_vd(12, 5, 2))

    def test_requires_exact(self, g135, vd135):
        sampled = xc.sampled_vd(g135, 100, 0, max_subsets=100)
        with pytest.raises(ValueError, match="exact"):
            xc.dominates(sampled, vd135)


class TestSearchFamily:
    def test_family_is_mutually_nondominated(self):
        cfg = small_cfg(attempts=12)
        fam = xc.search_family(cfg, algorithm=2)
        assert len(fam) >= 1
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                assert not xc.dominates(a.vd, b.vd)
                assert not xc.dominates(b.vd, a.vd)

    def test_sorted_by_score(self):
        fam = xc.search_family(small_cfg(attempts=12), algorithm=2)
        scores = [c.score for c in fam]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_cold_and_warm_cache(self):
        cfg = small_cfg(attempts=8)
        _comb_table.cache_clear()
        _membership.cache_clear()
        a = xc.search_family(cfg, algorithm=2)
        b = xc.search_family(cfg, algorithm=2)  # every subset table and mask now memoised
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.G == y.G and x.provenance == y.provenance

    def test_algorithm_one(self):
        # at k = 2 the default k1 = 3 exceeds k, but algorithm 1 never reads k1
        for cfg in [small_cfg(attempts=4), small_cfg(n=6, k=2, attempts=3)]:
            fam = xc.search_family(cfg, algorithm=1)
            assert fam[0].provenance["algorithm"] == 1
            assert "latin" not in fam[0].provenance
            assert all(xc.rank(c.G) == cfg.k for c in fam)

    def test_restart_provenance(self):
        fam = xc.search_family(small_cfg(attempts=5), algorithm=2)
        for c in fam:
            assert c.provenance["master_seed"] == 7
            assert 0 <= c.provenance["restart"] < 5

    def test_structured_invariants_survive(self):
        cfg = small_cfg(attempts=6)
        family = xc.search_family(cfg, algorithm=2)
        assert any(c.provenance["climb_steps"] for c in family)
        for c in family:
            block = c.G.array[:, : cfg.k]
            assert (block.sum(axis=0) == cfg.k1).all()
            assert (block.sum(axis=1) == cfg.k1).all()
            assert xc.is_nonsingular(xc.BinaryMatrix(block))
            assert (c.G.array[:, cfg.k] == 1).all()

    def test_single_attempt(self):
        fam = xc.search_family(small_cfg(attempts=1), algorithm=2)
        assert len(fam) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="algorithm"):
            xc.search_family(small_cfg(), algorithm=3)

    def test_beats_analytic_baseline(self):
        # modest budget already clears the random-code reference
        cfg = xc.SearchConfig(n=13, k=5, k1=3, attempts=10, master_seed=11)
        fam = xc.search_family(cfg, algorithm=2)
        assert xc.dominates(fam[0].vd, xc.rlnc_vd(13, 5, 2))
