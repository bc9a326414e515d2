"""Trainer parity: factorized == batched-star == naive == NumPy.

The central correctness claim (paper §5.1: models identical to the
reference library) is checked exactly on the integer-y fixture, where
every semi-ring sum is exact in float64, so all four training paths
must produce bit-identical trees.
"""
import numpy as np
import pytest

from repro.core.semiring import VarianceSemiring
from repro.core.star_trainer import StarTreeTrainer
from repro.core.trainer import FactorizedTreeTrainer, NaiveTreeTrainer, TrainParams
from repro.baselines.npgbm import NpTreeTrainer

PARAMS = TrainParams(max_leaves=5)


@pytest.fixture(scope="module")
def int_trees(star_int):
    """Train the same tree with all four engines on the integer-y star."""
    g = star_int.graph
    sr = VarianceSemiring(track_q=False)

    fact = FactorizedTreeTrainer(g, sr, PARAMS)
    fact.engine.lift_y()
    t_fact = fact.train()
    fact.engine.clear_cache()

    star = StarTreeTrainer(g, PARAMS)
    star.set_fact(sr.lift(g.relations["fact"].df, "y"))
    t_star = star.train()

    naive = NaiveTreeTrainer(g, PARAMS)
    t_naive = naive.train()
    naive.close()

    wide = star_int.wide_pandas()
    feats = [f for f, _, _ in g.all_features()]
    npt = NpTreeTrainer(wide, feats, feats, PARAMS)
    t_np = npt.train(wide["y"].to_numpy(dtype="float64"))
    return {"fact": t_fact, "star": t_star, "naive": t_naive, "np": t_np}


class TestModelParity:
    @pytest.mark.parametrize("a,b", [("fact", "naive"), ("star", "naive"), ("np", "naive")])
    def test_identical_trees(self, int_trees, a, b):
        assert int_trees[a].to_dict() == int_trees[b].to_dict()

    def test_leaf_count(self, int_trees):
        assert int_trees["fact"].n_leaves() == PARAMS.max_leaves

    def test_predictions_identical(self, int_trees, star_int):
        wide = star_int.wide_pandas()
        import numpy as np

        np.testing.assert_array_equal(
            int_trees["fact"].predict_np(wide), int_trees["np"].predict_np(wide)
        )


class TestRegLambdaParity:
    """Appendix B: every engine's leaves hold ``s / (c + λ)``."""

    def test_identical_trees(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        p = TrainParams(max_leaves=3, reg_lambda=50.0)
        fact = FactorizedTreeTrainer(g, sr, p)
        fact.engine.lift_y()
        t_fact = fact.train()
        fact.engine.clear_cache()
        star = StarTreeTrainer(g, p)
        star.set_fact(sr.lift(g.relations["fact"].df, "y"))
        t_star = star.train()
        naive = NaiveTreeTrainer(g, p)
        t_naive = naive.train()
        naive.close()
        wide = star_int.wide_pandas()
        feats = [f for f, _, _ in g.all_features()]
        t_np = NpTreeTrainer(wide, feats, feats, p).train(
            wide["y"].to_numpy(dtype="float64")
        )
        expect = t_np.to_dict()
        assert t_fact.to_dict() == expect
        assert t_star.to_dict() == expect
        assert t_naive.to_dict() == expect
        for leaf in t_np.leaves():
            m = np.ones(len(wide), dtype=bool)
            for pred in leaf.preds:
                m &= pred.mask(wide)
            y = wide["y"].to_numpy()[m]
            assert leaf.prediction == pytest.approx(y.sum() / (len(y) + 50.0))


class TestFactorizedModes:
    def test_batch_mode_same_model(self, star_int):
        """LMFAO-like batch mode (no cross-node cache) must still train
        the identical model — caching is performance-only."""
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        small = TrainParams(max_leaves=3)
        jb = FactorizedTreeTrainer(g, sr, small, mode="joinboost")
        jb.engine.lift_y()
        t1 = jb.train()
        jb.engine.clear_cache()
        ba = FactorizedTreeTrainer(g, sr, small, mode="batch")
        ba.engine.lift_y()
        t2 = ba.train()
        ba.engine.clear_cache()
        assert t1.to_dict() == t2.to_dict()

    def test_unknown_mode(self, star_int):
        with pytest.raises(ValueError, match="unknown mode"):
            FactorizedTreeTrainer(star_int.graph, mode="nope")

    def test_sql_splits_same_model(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        p = TrainParams(max_leaves=3, sql_splits=True)
        t_sql = FactorizedTreeTrainer(g, sr, p)
        t_sql.engine.lift_y()
        tree_sql = t_sql.train()
        t_sql.engine.clear_cache()
        p2 = TrainParams(max_leaves=3)
        t_np = FactorizedTreeTrainer(g, sr, p2)
        t_np.engine.lift_y()
        tree_np = t_np.train()
        t_np.engine.clear_cache()
        assert tree_sql.to_dict() == tree_np.to_dict()

    def test_parallel_same_model(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        p = TrainParams(max_leaves=4, n_jobs=4)
        tr = FactorizedTreeTrainer(g, sr, p)
        tr.engine.lift_y()
        t_par = tr.train()
        tr.engine.clear_cache()
        tr2 = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=4))
        tr2.engine.lift_y()
        t_ser = tr2.train()
        tr2.engine.clear_cache()
        assert t_par.to_dict() == t_ser.to_dict()

    def test_feature_subset_respected(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=4))
        tr.engine.lift_y()
        tree = tr.train(features=["fa", "fc"])
        tr.engine.clear_cache()
        assert set(tree.referenced_features()) <= {"fa", "fc"}

    def test_cross_node_cache_hits(self, star_int):
        """Paper §5.5.1: growing children reuses parent-node messages."""
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=4))
        tr.engine.lift_y()
        tr.engine.stats.reset()
        tr.train()
        tr.engine.clear_cache()
        assert tr.engine.stats.message_cache_hits > 0


class TestChainTraining:
    def test_chain_parity_with_naive(self, chain_graph):
        p = TrainParams(max_leaves=3)
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(chain_graph, sr, p)
        tr.engine.lift_y()
        t1 = tr.train()
        tr.engine.clear_cache()
        nv = NaiveTreeTrainer(chain_graph, p)
        t2 = nv.train()
        nv.close()
        d1, d2 = t1.to_dict(), t2.to_dict()
        # float y: allow leaf-value jitter, structures must agree

        def strip(d):
            if "leaf" in d:
                return {"leaf": round(d["leaf"], 4)}
            return {
                "feature": d["feature"],
                "value": d["value"],
                "left": strip(d["left"]),
                "right": strip(d["right"]),
            }

        assert strip(d1) == strip(d2)

    def test_star_trainer_rejects_chain(self, chain_graph):
        with pytest.raises(ValueError, match="not adjacent"):
            StarTreeTrainer(chain_graph, PARAMS)


class TestDepthAndGainLimits:
    def test_max_depth_one(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=8, max_depth=1))
        tr.engine.lift_y()
        tree = tr.train()
        tr.engine.clear_cache()
        assert tree.n_leaves() == 2

    def test_min_gain_blocks_all(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=8, min_gain=1e18))
        tr.engine.lift_y()
        tree = tr.train()
        tr.engine.clear_cache()
        assert tree.n_leaves() == 1
        assert tree.root.prediction is not None
