import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import activation_pattern, assert_close_to_scale, gradient_check
from rotenc import autodiff as ad
from rotenc.autodiff import BatchNormState, ParameterStore, Value
from rotenc.data import dataset_targets, dataset_vocab
from rotenc.encoder3d import EncoderConfig
from rotenc.errors import NotScalar, ShapeError
from rotenc.geometry import sample_rotations
from rotenc.gnn import GnnConfig, MolecularGraph
from rotenc.model import Model, ModelConfig, loss
from rotenc.packing import pack
from rotenc.synthetic import make_records


def store_with(**arrays):
    store = ParameterStore()
    for name, arr in arrays.items():
        store.add(name, arr)
    return store


class TestPrimitiveForward:
    def test_relu_backward_subgradient(self):
        x = Value(np.array([[-1.0, 2.0]]), requires_grad=True)
        out = ad.dense(x, Value(np.eye(2)), relu=True)
        ad.backward(ad.mean(ad.mean(out)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.5]])

    def test_mse_zero_on_equal(self):
        assert ad.mse(Value(np.array([1.0, 2.0])), np.array([1.0, 2.0])).data == 0.0

    def test_l1_norm_value(self):
        assert ad.l1_norm(Value(np.array([1.0, -2.0, 0.5]))).data == 3.5

    def test_mean_pool_rows(self):
        out = ad.mean_pool(Value(np.array([[1.0, 3.0], [3.0, 1.0]])), [0, 2])
        np.testing.assert_array_equal(out.data, [[2.0, 2.0]])

    def test_scatter_matches_numpy_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 4))
        idx = np.array([0, 2, 2, 1, 0, 3, 2])
        out = ad.scatter_add_rows(Value(x), idx, 5)
        expected = np.zeros((5, 4))
        np.add.at(expected, idx, x)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_gather_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        out = ad.gather_rows(Value(x), [3, 0, 0])
        np.testing.assert_array_equal(out.data, x[[3, 0, 0]])

    def test_concat_and_pick(self):
        u = ad.concat([Value(np.array([1.0, 2.0])), Value(np.array([3.0]))])
        np.testing.assert_array_equal(u.data, [1.0, 2.0, 3.0])
        assert ad.pick(u, 2).data == 3.0

    def test_shape_error_messages_carry_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            ad.add(Value(np.zeros((2, 3))), Value(np.zeros((3, 2))))
        assert "(2, 3)" in str(exc.value) and "(3, 2)" in str(exc.value)
        with pytest.raises(ShapeError):
            ad.matmul(Value(np.zeros((2, 3))), Value(np.zeros((2, 3))))
        with pytest.raises(ShapeError):
            ad.mse(Value(np.zeros(3)), np.zeros(4))
        with pytest.raises(ShapeError):
            ad.matmul(Value(np.zeros((2, 4, 3))), Value(np.zeros((3, 3, 5))))
        with pytest.raises(ShapeError):  # a stacked right operand: rotations go through segment_matmul
            ad.matmul(Value(np.zeros((4, 3))), Value(np.zeros((2, 3, 3))))


class TestPermutationExactness:
    """Segments of a packed batch reduce exactly as their lone molecules do.

    Exactness under atom permutation comes from ``Model.prepare``'s one
    canonical atom order (``test_model.TestCanonicalAtomOrder``), not from
    the reductions: ``np.add.reduceat`` adds a segment's first row last, so
    their order is not row order. What they keep is that a segment reduces
    to the same bits wherever it sits.
    """

    def test_segments_equal_their_lone_molecules(self):
        rng = np.random.default_rng(6)
        offsets = [0, 5, 7, 13]
        x = rng.normal(size=(2, 13, 3)).transpose(1, 0, 2)  # 13 rows of (2, 3)
        for start, stop in zip(offsets[:-1], offsets[1:]):
            got = ad.mean_pool(Value(x), offsets=offsets).data[offsets.index(start)]
            assert_same_bits(got, ad.mean_pool(Value(x[start:stop]), [0, stop - start]).data[0])

    @pytest.mark.parametrize("offsets", [[0, 3], [0, 2, 2, 5], [1, 5], [0, 6],
                                         [[0, 5]], [0, 5, 5], [0, 3, 4]])
    def test_bad_offsets_rejected(self, offsets):
        # the last three: a 2-d array, a repeated end boundary, a wrong end value
        with pytest.raises(ShapeError, match=r"^offsets \[.*\] do not cut 5 rows into non-empty segments$"):
            ad.mean_pool(Value(np.zeros((5, 2))), offsets=offsets)


def _per_destination_sum(x, indices, n_rows):
    """Oracle for ``scatter_add_rows``: one destination at a time, its rows summed alone."""
    out = np.zeros((n_rows, x.shape[1]))
    for i in range(n_rows):
        rows = x[indices == i]
        if len(rows):
            out[i] = np.add.reduceat(rows, [0], axis=0)[0]
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from +0.0


@st.composite
def scatter_inputs(draw):
    """Rows of mixed sign and magnitude, some exact zeros of either sign."""
    n_rows = draw(st.integers(1, 8))
    width = draw(st.sampled_from([1, 1, 2, 3]))
    n_in = draw(st.integers(0, 60))
    if draw(st.booleans()):
        indices = np.full(n_in, draw(st.integers(0, n_rows - 1)), dtype=np.int64)  # one node gets all
    else:
        indices = draw(arrays(np.int64, n_in, elements=st.integers(0, n_rows - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n_in, width)) * 10.0 ** rng.integers(-3, 4, (n_in, width))
    zeros = draw(arrays(np.int8, (n_in, width), elements=st.integers(0, 9)))
    x[zeros == 0] = 0.0
    x[zeros == 1] = -0.0
    return x, indices, n_rows


class TestScatterAddRowsKernel:
    """The one-reduceat kernel against the per-destination loop, bit for bit."""

    @given(scatter_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_destination_psum(self, case):
        x, indices, n_rows = case
        out = ad.scatter_add_rows(Value(x), indices, n_rows).data
        assert_same_bits(out, _per_destination_sum(x, indices, n_rows))

    @pytest.mark.parametrize("width", [1, 3])
    def test_empty_single_and_crowded_destinations(self, width):
        # node 0 gets 20 rows and node 3 gets 13 (both past numpy's 8-way
        # pairwise blocking), node 1 none, node 2 one, node 4 three
        rng = np.random.default_rng(4)
        for _ in range(20):
            indices = rng.permutation([0] * 20 + [2] + [3] * 13 + [4] * 3)
            x = rng.normal(size=(indices.size, width))
            x[::5] = 0.0
            x[1::7] = -0.0
            out = ad.scatter_add_rows(Value(x), indices, 5).data
            assert_same_bits(out, _per_destination_sum(x, indices, 5))
            assert_same_bits(out[1], np.zeros(width))

    def test_empty_index_array_gives_zero_rows(self):
        out = ad.scatter_add_rows(Value(np.zeros((0, 3))), np.zeros(0, dtype=np.int64), 4)
        assert_same_bits(out.data, np.zeros((4, 3)))

    def test_backward_gathers_destination_gradient(self):
        x = Value(np.ones((5, 2)), requires_grad=True)
        indices = np.array([2, 0, 2, 1, 0])
        out = ad.scatter_add_rows(x, indices, 3)
        out._backward_fn(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(3, 2)[indices])

    @pytest.mark.parametrize("bad", [[0, 3], [-1, 0]])
    def test_index_out_of_range_rejected(self, bad):
        with pytest.raises(ShapeError):
            ad.scatter_add_rows(Value(np.ones((2, 2))), bad, 3)

    def test_one_index_per_row(self):
        with pytest.raises(ShapeError, match="3 indices for 4 rows"):
            ad.scatter_add_rows(Value(np.ones((4, 2))), [0, 1, 1], 3)


class TestScatterPlan:
    @pytest.mark.parametrize("indices", [[0, 0, 1, 3, 3, 3, 4], [2, 2], []], ids=["isolated", "one-row", "empty"])
    def test_grouped_plan_sums_consecutive_rows_to_the_same_bits(self, indices):
        indices = np.array(indices, dtype=np.int64)
        grouped = ad.grouped_plan(indices, 6)
        assert grouped.order is None
        for width in (1, 4):
            x = np.random.default_rng(9).normal(size=(len(indices), width)) * 10.0 ** np.arange(width)
            assert_same_bits(ad._scatter_sum(x, grouped), ad.scatter_add_rows(Value(x), indices, 6).data)

    def test_plan_contents(self):
        plan = ad.scatter_plan([2, 0, 2, 2], 4)
        np.testing.assert_array_equal(plan.counts, [1, 0, 3, 0])
        np.testing.assert_array_equal(plan.order, [1, 0, 2, 3])
        np.testing.assert_array_equal(plan.filled, [0, 2])
        np.testing.assert_array_equal(plan.starts, [0, 1])


class TestMean:
    def test_sums_the_axis_in_index_order(self):
        # a stack of one-entry slices is the shape numpy would sum pairwise
        for shape, seeds in (((16, 5, 4), [3]), ((64, 1, 1), range(20)), ((16, 1, 1), range(20))):
            for seed in seeds:
                x = np.random.default_rng(seed).normal(size=shape) * np.logspace(-6, 6, shape[-1])
                ordered = x[0].copy()
                for view in x[1:]:
                    ordered += view
                assert_same_bits(ad.mean(Value(x)).data, ordered / shape[0])

    def test_exact_under_reordering_of_the_other_axes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 9, 3)) * 1e3
        perm = rng.permutation(9)
        assert_same_bits(ad.mean(Value(x[:, perm])).data, ad.mean(Value(x)).data[perm])

    def test_gradient_is_spread_evenly(self):
        # the outer two means' 1/3 and 1/2 arrive first, then the inner one's 1/4
        x = Value(np.ones((4, 2, 3)), requires_grad=True)
        ad.backward(ad.mean(ad.mean(ad.mean(x))))
        assert_same_bits(x.grad, np.full((4, 2, 3), 1.0 / 3 / 2 / 4))


class TestGatherBackward:
    def test_sums_every_pick_and_skips_rows_never_picked(self):
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 40, 300)
        indices[indices == 7] = 8
        g = rng.normal(size=(300, 6))
        x = Value(rng.normal(size=(40, 6)), requires_grad=True)
        ad.gather_rows(x, indices)._backward_fn(g)
        expected = np.zeros((40, 6))
        np.add.at(expected, indices, g)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-14)
        assert_same_bits(x.grad[7], np.zeros(6))
        again = Value(x.data, requires_grad=True)
        ad.gather_rows(again, indices)._backward_fn(g)
        assert_same_bits(again.grad, x.grad)

    def test_no_index_gives_zero_gradient(self):
        x = Value(np.ones((3, 2)), requires_grad=True)
        ad.gather_rows(x, np.zeros(0, dtype=np.int64))._backward_fn(np.zeros((0, 2)))
        assert_same_bits(x.grad, np.zeros((3, 2)))

    @pytest.mark.parametrize("width", [1, 5])
    def test_matches_a_stable_argsort_and_one_reduceat(self, width):
        rng = np.random.default_rng(9)
        indices = rng.integers(0, 30, 200)
        g = rng.normal(size=(200, width)) * 10.0 ** rng.integers(-3, 4, (200, width))
        order = np.argsort(indices, kind="stable")
        rows = indices[order]
        starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        reference = np.zeros((30, width))
        reference[rows[starts]] = np.add.reduceat(g[order], starts, axis=0)
        x = Value(np.zeros((30, width)), requires_grad=True)
        ad.gather_rows(x, indices)._backward_fn(g)
        assert_same_bits(x.grad, reference)

    def test_training_step_argsorts_once_per_edge_end_and_lookup(self, monkeypatch):
        # a graph's edges are grouped by destination when it is made, so the
        # forward sorts nothing; the backward plans the edge sources once for
        # all 3 GNN layers, and the encoder's embedding lookup once
        from helpers import bonded_record, tiny_model_config
        from rotenc.gnn import GnnConfig
        from rotenc.model import Model, loss
        from rotenc.packing import pack

        cfg = tiny_model_config(gnn=GnnConfig(layers=3, hidden=8, message_width=8))
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("y",), seed=0, bonded=True)
        batch = pack([model.prepare(bonded_record(seed=s), training=True) for s in range(4)])
        calls = {"forward": 0, "backward": 0}
        phase = "forward"
        argsort = np.argsort

        def counting(*args, **kwargs):
            calls[phase] += 1
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        y_hat, u = model.forward(batch, training=True)
        phase = "backward"
        ad.backward(loss(y_hat, np.ones((4, 1)), u, 1e-3))
        assert calls == {"forward": 0, "backward": 2}


class TestBackward:
    def test_mean_of_parameter_gives_one_over_n(self):
        store = store_with(w=np.arange(5.0))
        ad.backward(ad.mean(store["w"]))
        np.testing.assert_array_equal(store["w"].grad, np.full(5, 1.0 / 5))

    def test_square_gradient(self):
        # y = x * x as a 1-element graph
        x1 = Value(np.array([3.0]), requires_grad=True)
        ad.backward(ad.mse(x1, np.zeros(1)))
        np.testing.assert_allclose(x1.grad, [6.0])

    def test_non_scalar_root_rejected(self):
        with pytest.raises(NotScalar):
            ad.backward(Value(np.zeros(3)))

    def test_backward_deterministic(self):
        def run():
            store = store_with(w=np.linspace(-1, 1, 12).reshape(3, 4))
            h = ad.dense(Value(np.arange(6.0).reshape(2, 3)), store["w"], relu=True)
            ad.backward(ad.mse(ad.mean_pool(h, [0, 2]), np.zeros((1, 4))))
            return store["w"].grad

        assert np.array_equal(run(), run())

    def test_grad_accumulates_over_reuse(self):
        store = store_with(w=np.array([1.0, 2.0]))
        w = store["w"]
        y = ad.pick(ad.add(w, w), 0)  # dy/dw0 = 2
        ad.backward(y)
        np.testing.assert_array_equal(w.grad, [2.0, 0.0])

    def test_a_second_sweep_adds_to_the_leaves_once_more(self):
        # the first sweep released the interior gradients, so the second pushes only its own
        x = Value(np.array(1.0), requires_grad=True)
        root = ad.scale(ad.scale(x, 2.0), 3.0)
        ad.backward(root)
        assert x.grad == 6.0
        ad.backward(root)
        assert x.grad == 12.0

    def test_a_training_step_keeps_only_leaf_gradients(self):
        records = make_records(3, seed=2, n_atoms_range=(8, 12))
        model = Model(ModelConfig(encoder=EncoderConfig(), gnn=GnnConfig()), dataset_vocab(records),
                      dataset_targets(records)[0], seed=0)
        batch = pack(model.prepare(record, training=True) for record in records)
        y_hat, u = model.forward(batch, training=True, rotations=sample_rotations(model.cfg.encoder.k, [0, 1, 2]))
        root = loss(y_hat, np.zeros((3, 1)), u, 1e-4)
        ad.backward(root)
        interior = [node for node in ad._topo_order(root) if node._backward_fn is not None]
        assert len(interior) > 10 and all(node._grad is None for node in interior)
        for name, p in model.store.items():
            assert p._grad is not None and p._grad.shape == p.data.shape, name

    def test_pick_by_tuple_index(self):
        w = Value(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = ad.pick(ad.scale(w, 2.0), (1, 2))
        assert y.data == 10.0
        ad.backward(y)
        np.testing.assert_array_equal(w.grad, [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])

    @pytest.mark.parametrize("index", [0, (slice(None), 1), (0, slice(0, 1))])
    def test_pick_of_more_than_one_entry_rejected(self, index):
        with pytest.raises(ShapeError):
            ad.pick(Value(np.zeros((2, 3)), requires_grad=True), index)


def _chain_relu(a):
    """The stand-alone relu node the matmul -> add -> relu chain ended in, kept as the oracle of ``dense``."""
    mask = a.data > 0.0
    return ad._node(np.maximum(a.data, 0.0), "relu", (a,), lambda g: a._accumulate(g * mask, owned=True))


def _broadcast(a, shape):
    """``a`` repeated along new leading axes as one tape node; the backward sums those axes away."""
    return ad._node(np.broadcast_to(a.data, shape), "broadcast", (a,),
                    lambda g: a._accumulate(ad._sum_to(g, a.data.shape)))


class TestDense:
    """One fused node, byte-equal to the matmul -> add -> relu chain."""

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("x_shape", [(6, 5), (3, 6, 5)], ids=["2d", "stacked"])
    def test_byte_equal_to_chain(self, x_shape, bias, relu):
        rng = np.random.default_rng(len(x_shape) + 2 * bias + 4 * relu)
        x0, W0, b0 = rng.normal(size=x_shape), rng.normal(size=(5, 4)), rng.normal(size=4)
        x0[0] = 0.0  # a zero row puts pre-activations exactly on the kink
        target = rng.normal(size=x_shape[:-1] + (4,))
        results = []
        for fused in (True, False):
            x, W, b = (Value(a.copy(), requires_grad=True) for a in (x0, W0, b0))
            if fused:
                out = ad.dense(x, W, b if bias else None, relu=relu)
            else:
                out = ad.matmul(x, W)
                if bias:
                    out = ad.add(out, _broadcast(b, out.shape))
                if relu:
                    out = _chain_relu(out)
            ad.backward(ad.mse(out, target))
            results.append((out.data, x.grad, W.grad, b.grad))
        (out, gx, gW, gb), chain = results
        # gradients are stored C-ordered, so the chain's broadcast node sums
        # a stacked bias gradient in the same order as the fused node
        for fused, want in zip((out, gx, gW, gb), chain):
            assert_same_bits(fused, want)

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    def test_one_row_byte_equal_to_chain(self, relu):
        # one molecule's head input is a (1, m) row
        rng = np.random.default_rng(11)
        v0, W0, b0 = rng.normal(size=(1, 6)), rng.normal(size=(6, 5)), rng.normal(size=5)
        target = rng.normal(size=(1, 5))
        results = []
        for fused in (True, False):
            v, W, b = (Value(a.copy(), requires_grad=True) for a in (v0, W0, b0))
            if fused:
                out = ad.dense(v, W, b, relu=relu)
            else:
                out = ad.add(ad.matmul(v, W), _broadcast(b, (1, 5)))
                if relu:
                    out = _chain_relu(out)
            ad.backward(ad.mse(out, target))
            results.append((out.data, v.grad, W.grad, b.grad))
        for got, want in zip(*results):
            assert_same_bits(got, want)

    def test_relu_pattern_is_the_pre_activation_sign(self):
        x = Value(np.array([[1.0, -1.0, 0.0]]), requires_grad=True)
        out = ad.dense(x, Value(np.eye(3)), relu=True)
        np.testing.assert_array_equal(out.data, [[1.0, 0.0, 0.0]])
        assert [m.tolist() for m in activation_pattern(ad.mean(ad.mean(out)))] == [
            [[True, False, False]]]

    def test_shapes_rejected(self):
        with pytest.raises(ShapeError):
            ad.dense(Value(np.zeros((2, 3))), Value(np.zeros((4, 2))))
        with pytest.raises(ShapeError):
            ad.dense(Value(np.zeros((2, 3))), Value(np.zeros((3, 2))), Value(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.dense(Value(np.zeros(3)), Value(np.zeros((2, 3, 2))))
        with pytest.raises(ShapeError):  # one row is a (1, m) matrix
            ad.dense(Value(np.zeros(3)), Value(np.zeros((3, 2))))


def _joined_reference(parts, W, b, relu):
    """``dense`` of the concatenated input the parts stand for, built from broadcast nodes and concat."""
    lead = max((part.shape[:-1] for part in parts), key=len)
    joined = ad.concat([part if part.shape[:-1] == lead else _broadcast(part, lead + part.shape[-1:])
                        for part in parts])
    return ad.dense(joined, W, b, relu=relu)


class TestDenseParts:
    """A tuple of parts equals ``dense`` of their concatenation, forward and every gradient."""

    @staticmethod
    def compare(make_parts, W0, b0, relu, head=lambda out: out):
        """Forward and gradients of mse(head(out), target) both ways; ``head`` maps an empty result to rows."""
        results = []
        for split in (True, False):
            leaves = make_parts()
            W, b = Value(W0.copy(), requires_grad=True), None if b0 is None else Value(b0.copy(), requires_grad=True)
            if split:
                out = ad.dense(tuple(leaves["parts"]), W, b, relu=relu)
            else:
                out = _joined_reference(leaves["parts"], W, b, relu)
            scored = head(out)
            ad.backward(ad.mse(scored, np.random.default_rng(0).normal(size=scored.shape)))
            grads = [leaf.grad for leaf in leaves["leaves"]] + [W.grad] + ([] if b is None else [b.grad])
            results.append((out.data, grads))
        (out, grads), (want_out, want_grads) = results
        np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-13)
        for got, want in zip(grads, want_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
        return out

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    def test_plain_parts(self, bias, relu):
        rng = np.random.default_rng(1)
        a0, c0 = rng.normal(size=(7, 3)), rng.normal(size=(7, 4))
        a0[0], c0[0] = 0.0, 0.0  # a zero row puts pre-activations on the kink

        def make():
            a, c = Value(a0.copy(), requires_grad=True), Value(c0.copy(), requires_grad=True)
            return {"parts": [a, c], "leaves": [a, c]}

        self.compare(make, rng.normal(size=(7, 5)), rng.normal(size=5) if bias else None, relu)

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    def test_broadcast_part(self, bias, relu):
        # k views of rotated coordinates share one embedding row per atom
        rng = np.random.default_rng(2)
        coords0, emb0 = rng.normal(size=(4, 6, 3)), rng.normal(size=(6, 5))

        def make():
            coords, emb = Value(coords0.copy(), requires_grad=True), Value(emb0.copy(), requires_grad=True)
            return {"parts": [coords, emb], "leaves": [coords, emb]}

        out = self.compare(make, rng.normal(size=(8, 7)), rng.normal(size=7) if bias else None, relu)
        assert out.shape == (4, 6, 7)

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    def test_gathered_parts(self, relu):
        # repeated destinations, and node 4 is never an edge end (in-degree 0)
        rng = np.random.default_rng(3)
        n, dst, src = 6, np.array([0, 0, 0, 1, 2, 2, 5, 3]), np.array([1, 2, 5, 0, 0, 3, 0, 2])
        h0, e0 = rng.normal(size=(n, 4)), rng.normal(size=(len(dst), 2))

        def make():
            h, e = Value(h0.copy(), requires_grad=True), Value(e0.copy(), requires_grad=True)
            gathered = [ad.gather_rows(h, dst), ad.gather_rows(h, src)]
            return {"parts": gathered + [e], "leaves": [h, e]}

        self.compare(make, rng.normal(size=(10, 3)), rng.normal(size=3), relu)
        h = Value(h0, requires_grad=True)
        parts = (ad.gather_rows(h, dst), ad.gather_rows(h, src), Value(e0))
        ad.backward(ad.mean(ad.mean(ad.dense(parts, Value(rng.normal(size=(10, 3)))))))
        assert_same_bits(h.grad[4], np.zeros(4))

    @pytest.mark.parametrize("n", [1, 5], ids=["one-atom", "edgeless"])
    def test_no_edges(self, n):
        rng = np.random.default_rng(4)
        none = np.zeros(0, dtype=np.int64)
        h0 = rng.normal(size=(n, 4))

        def make():
            h, e = Value(h0.copy(), requires_grad=True), Value(np.zeros((0, 2)), requires_grad=True)
            gathered = [ad.gather_rows(h, none), ad.gather_rows(h, none)]
            return {"parts": gathered + [e], "leaves": [h, e]}

        W0 = rng.normal(size=(10, 3))
        out = self.compare(make, W0, rng.normal(size=3), True, head=lambda out: ad.scatter_add_rows(out, none, n))
        assert out.shape == (0, 3)
        h, W = Value(h0, requires_grad=True), Value(W0, requires_grad=True)
        hidden = ad.dense((ad.gather_rows(h, none), ad.gather_rows(h, none), Value(np.zeros((0, 2)))), W, relu=True)
        ad.backward(ad.mse(ad.scatter_add_rows(hidden, none, n), np.ones((n, 3))))
        assert_same_bits(W.grad, np.zeros((10, 3)))
        assert_same_bits(h.grad, np.zeros((n, 4)))

    @pytest.mark.parametrize("counts", [[2, 0, 3, 1], [0, 0, 0, 0]], ids=["in-degrees", "edgeless"])
    def test_bias_counts_equal_the_sum_of_affine_rows(self, counts):
        # message_layer adds b2 once per node with an incoming edge; the composed layer adds b2 to every
        # edge row, then averages each node's rows
        rng = np.random.default_rng(5)
        counts = np.array(counts)
        dst = np.repeat(np.arange(4), counts)
        src = rng.integers(0, 4, size=dst.size)
        g_b2 = TestMessageLayer.compare(src, dst, rng.normal(size=(dst.size, 2)), 4, seed=5)[5]
        if counts.any():
            assert np.all(g_b2 != 0.0)
        else:  # no edge row, so no bias reaches a message
            assert_same_bits(g_b2, np.zeros_like(g_b2))

    def test_single_part_tuple_is_plain_dense(self):
        rng = np.random.default_rng(6)
        x, W, b = Value(rng.normal(size=(5, 3))), Value(rng.normal(size=(3, 4))), Value(rng.normal(size=4))
        assert_same_bits(ad.dense((x,), W, b, relu=True).data, ad.dense(x, W, b, relu=True).data)

    def test_parts_rejected(self):
        W = Value(np.zeros((5, 2)))
        with pytest.raises(ShapeError):  # widths 3 + 3 != 5 rows
            ad.dense((Value(np.zeros((4, 3))), Value(np.zeros((4, 3)))), W)
        with pytest.raises(ShapeError):  # leading axes that do not broadcast
            ad.dense((Value(np.zeros((4, 3))), Value(np.zeros((5, 2)))), W)


def _composed_layer(h, src, dst, e, weights):
    """``message_layer`` composed from gather_rows, concat, dense, scatter_add_rows and matmul: the per-edge perceptron.

    Node v's message is the mean of its incoming edge rows: their sum times
    1/in-degree, as the product with a diagonal matrix. A node without
    incoming edges sums no row, so its message is zero.
    """
    W1, b1, W2, b2, W_upd, b_upd = weights
    n = h.shape[0]
    pair = ad.concat([ad.gather_rows(h, dst), ad.gather_rows(h, src), Value(e)])
    messages = ad.dense(ad.dense(pair, W1, b1, relu=True), W2, b2)
    inv_degree = np.diag(1.0 / np.maximum(np.bincount(dst, minlength=n), 1))
    joint = ad.concat([h, ad.matmul(Value(inv_degree), ad.scatter_add_rows(messages, dst, n))])
    return ad.dense(joint, W_upd, b_upd, relu=True)


def _graph(src, dst, e, n, dtype=np.float64):
    """The edges src -> dst over n nodes as a graph holds them, stably grouped by destination, features along.

    Node and edge features are ``dtype``; the nodes have one zero feature each.
    """
    order = np.argsort(dst, kind="stable")
    edges = np.stack([src, dst], axis=1)[order].astype(np.int64)
    return MolecularGraph.trusted(np.zeros((n, 1), dtype), edges, e[order].astype(dtype))


class TestMessageLayer:
    """The fused layer equals the per-edge perceptron composed op by op, forward and every gradient."""

    @staticmethod
    def compare(src, dst, e0, n, seed=0, kink=()):
        """Output, h gradient and the six weight gradients of the fused node; the edges come in ungrouped."""
        rng = np.random.default_rng(seed)
        width, hid, msg = 4, 3, 5
        h0 = rng.normal(size=(n, width))
        h0[list(kink)] = 0.0
        w0 = [rng.normal(size=shape) for shape in [(2 * width + e0.shape[1], hid), (hid,), (hid, msg), (msg,),
                                                   (width + msg, width), (width,)]]
        if kink:
            w0[1][:] = 0.0  # an edge between two zero states with zero features sits on the hidden kink
        target = rng.normal(size=(n, width))
        results = []
        for fused in (True, False):
            h = Value(h0.copy(), requires_grad=True)
            weights = [Value(w.copy(), requires_grad=True) for w in w0]
            if fused:
                out = ad.message_layer(h, _graph(src, dst, e0, n), weights)
            else:
                out = _composed_layer(h, src, dst, e0, weights)
            ad.backward(ad.mse(out, target))
            results.append([out.data, h.grad] + [w.grad for w in weights])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
        return results[0]

    def test_repeated_destinations_and_an_isolated_node(self):
        # node 4 is never an edge end; node 0 gets three messages, in the shuffled order they came in
        dst, src = np.array([2, 0, 5, 0, 1, 3, 2, 0]), np.array([0, 1, 0, 2, 0, 2, 3, 5])
        e0 = np.random.default_rng(3).normal(size=(len(dst), 2))
        out, g_h = self.compare(src, dst, e0, 6)[:2]
        assert np.all(out[4] >= 0.0) and np.any(g_h[4] != 0.0)  # its update still sees its own state

    def test_repeated_edges_leave_the_messages_unchanged(self):
        # a mean: every edge into a node twice over averages to the same message, bias included
        dst, src = np.array([2, 0, 0, 1, 3]), np.array([0, 1, 2, 0, 2])
        e0 = np.random.default_rng(8).normal(size=(len(dst), 2))
        once = self.compare(src, dst, e0, 5, seed=9)[0]
        twice = self.compare(np.tile(src, 2), np.tile(dst, 2), np.tile(e0, (2, 1)), 5, seed=9)[0]
        np.testing.assert_allclose(twice, once, rtol=1e-12, atol=1e-13)

    def test_relu_kinks(self):
        dst, src = np.array([1, 0, 2, 2]), np.array([0, 1, 0, 1])
        e0 = np.zeros((4, 2))
        self.compare(src, dst, e0, 3, seed=1, kink=(0, 1))

    @pytest.mark.parametrize("n", [1, 5], ids=["one-atom", "edgeless"])
    def test_no_edges(self, n):
        none = np.zeros(0, dtype=np.int64)
        _, _, g_w1, g_b1, g_w2, g_b2, _, _ = self.compare(none, none, np.zeros((0, 2)), n, seed=4)
        for grad in (g_w1, g_b1, g_w2, g_b2):  # a zero gradient, so an optimizer step sees no stale weight
            assert_same_bits(grad, np.zeros_like(grad))

    @pytest.mark.parametrize("edge_features", ["auto", "constant"])
    def test_bonded_edge_features(self, edge_features):
        from helpers import bonded_record
        from rotenc.data import build_graph

        record = bonded_record(seed=5)
        edges, e0 = [], []
        for u, v, order in record.bonds:  # both directions per bond, in bond order, ungrouped
            row = np.ones(1) if edge_features == "constant" else np.eye(4)[order - 1 if order <= 3 else 3]
            edges += [(u, v), (v, u)]
            e0 += [row, row]
        edges, e0 = np.array(edges), np.array(e0)
        graph = build_graph(record, vocab=(1, 6, 7, 8), edge_features=edge_features)
        assert_same_bits(graph.edge_feats, _graph(edges[:, 0], edges[:, 1], e0, record.n_atoms).edge_feats)
        self.compare(edges[:, 0], edges[:, 1], e0, record.n_atoms, seed=6)

    def test_gradient_check_sees_both_relus(self):
        graph = _graph(np.array([1, 0, 2]), np.array([0, 1, 1]), np.ones((3, 1)), 3)
        weights = [Value(np.ones(shape), requires_grad=True) for shape in [(5, 2), (2,), (2, 2), (2,), (4, 2), (2,)]]
        out = ad.message_layer(Value(np.ones((3, 2))), graph, weights)
        assert [p.shape for p in activation_pattern(out)] == [(3, 2), (3, 2)]

    def test_shapes_rejected(self):
        rng = np.random.default_rng(7)
        weights = [Value(rng.normal(size=shape)) for shape in [(10, 3), (3,), (3, 5), (5,), (9, 4), (4,)]]
        h = Value(rng.normal(size=(3, 4)))
        src, dst = np.array([1, 0]), np.array([0, 2])
        with pytest.raises(ShapeError):  # W1 rows != 2 * 4 + 3
            ad.message_layer(h, _graph(src, dst, np.ones((2, 3)), 3), weights)
        ad.message_layer(h, _graph(src, dst, np.ones((2, 2)), 3), weights)  # the shapes that fit


class TestNoGrad:
    def test_ops_record_no_tape(self):
        w = Value(np.array([[1.0, -2.0], [0.0, 3.0]]), requires_grad=True)

        def build():
            h = ad.dense(ad.dense(w, w, Value(np.zeros(2)), relu=True), w, relu=True)
            return h, ad.mse(ad.mean_pool(h, [0, 2]), np.zeros((1, 2)))

        with ad.no_grad():
            h, root = build()
        for node in (h, root):
            assert node._parents == () and node._backward_fn is None
        assert build()[1].data.tobytes() == root.data.tobytes()

    def test_nests_and_restores_after_an_exception(self):
        assert ad._grad_enabled
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                with ad.no_grad():
                    assert not ad._grad_enabled
                assert not ad._grad_enabled  # the inner block restores the outer setting
                raise RuntimeError("boom")
        assert ad._grad_enabled
        x = Value(np.ones(2), requires_grad=True)
        assert ad.scale(x, 2.0)._parents == (x,)


class TestRequiresGrad:
    def test_constant_inputs_give_a_constant(self):
        a, b = Value(np.ones((2, 3))), Value(np.ones((3, 2)))
        out = ad.dense(a, b, relu=True)
        assert not out.requires_grad and out._parents == () and out._backward_fn is None

    def test_gradient_reaches_only_inputs_that_need_it(self):
        w = Value(np.arange(6.0).reshape(3, 2), requires_grad=True)
        x = Value(np.ones((4, 3)))
        out = ad.matmul(x, w)
        assert out.requires_grad and out._parents == (x, w)
        ad.backward(ad.mse(out, np.zeros((4, 2))))
        assert x._grad is None
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)) @ (2.0 * out.data / 8))

    def test_first_gradient_is_stored_c_ordered(self):
        b = Value(np.arange(4.0), requires_grad=True)
        view = _broadcast(b, (3, 6, 4))
        push_to_b, checked = view._backward_fn, []

        def check_then_push(g):  # the sweep releases view's gradient once this has run
            assert view._grad.flags.c_contiguous
            checked.append(g)
            push_to_b(g)

        view._backward_fn = check_then_push
        # add hands the same upstream array to both inputs, so each stores a copy
        ad.backward(ad.mean(ad.mean(ad.mean(ad.add(view, Value(np.ones((3, 6, 4))))))))
        assert len(checked) == 1
        np.testing.assert_array_equal(b.grad, np.full((3, 6, 4), 1.0 / 4 / 6 / 3).sum(axis=(0, 1)))


class TestBatchNorm:
    def test_train_updates_running_stats_with_momentum(self):
        state = BatchNormState.for_width(2)
        x = np.array([[1.0, 10.0], [3.0, 30.0]])
        ad.batchnorm(Value(x), Value(np.ones(2)), Value(np.zeros(2)), state)
        np.testing.assert_allclose(state.mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 20.0]))
        np.testing.assert_allclose(state.var, 0.9 * 1.0 + 0.1 * np.array([1.0, 100.0]))

    def test_stacked_input_normalizes_as_one_matrix_of_all_its_rows(self):
        x = np.random.default_rng(4).normal(size=(3, 5, 2)) * [1.0, 20.0]
        gamma, beta = Value(np.array([1.5, 0.5])), Value(np.array([0.0, 1.0]))
        stacked_state, joined_state = BatchNormState.for_width(2), BatchNormState.for_width(2)
        stacked = ad.batchnorm(Value(x), gamma, beta, stacked_state).data
        joined = ad.batchnorm(Value(x.reshape(15, 2)), gamma, beta, joined_state).data
        assert_same_bits(stacked.reshape(15, 2), joined)
        assert_same_bits(stacked_state.mean, joined_state.mean)
        assert_same_bits(stacked_state.var, joined_state.var)


def _batchnorm_oracle(x, gamma, beta, g):
    """Training batchnorm and its relu with the arithmetic of the kernel that stored the normalized x̂.

    One mean and variance per channel over every row of ``x``, whatever its
    leading axes. Returns the output, the x, γ and β gradients for the
    upstream gradient ``g`` and the running (mean, var) folded from a fresh
    state.
    """
    width = x.shape[-1]
    rows = x.size // width
    mu = x.reshape(-1, width).sum(axis=0) / rows
    var = ((x - mu) ** 2).reshape(-1, width).sum(axis=0) / rows
    inv_std = 1.0 / np.sqrt(var + ad.BN_EPS)
    xhat = (x - mu) * inv_std
    out = np.maximum(gamma * xhat + beta, 0.0)
    gp = g * (out > 0.0)
    g_sum = gp.reshape(-1, width).sum(axis=0)
    gx_sum = (gp * xhat).reshape(-1, width).sum(axis=0)
    gx = gamma * inv_std / rows * (rows * gp - g_sum - xhat * gx_sum)
    m = ad.BN_MOMENTUM
    return out, gx, gx_sum, g_sum, (1 - m) * 0.0 + m * mu, (1 - m) * 1.0 + m * var


def _batchnorm_kernel(x, gamma, beta, g, x_grad=True):
    """``ad.batchnorm``'s output, gradients for the upstream ``g`` (None for an x without one) and running stats.

    The backward gets a copy of ``g``: it masks its upstream gradient with the relu in place.
    """
    xv, gv, bv = Value(x, requires_grad=x_grad), Value(gamma, requires_grad=True), Value(beta, requires_grad=True)
    state = BatchNormState.for_width(x.shape[-1])
    y = ad.batchnorm(xv, gv, bv, state)
    y._backward_fn(g.copy())
    return y.data, xv._grad, gv.grad, bv.grad, state.mean, state.var


# one_row_views: the k views of a one-atom molecule, one row each, normalized together.
# segmented: a packed batch whose molecules (the row segments between the offsets) sit at their own
# means and spreads; training statistics are still one per channel over every row of every segment
BN_KERNEL_CASES = {"matrix": ((11, 6), None), "stacked": ((3, 11, 6), None), "one_row_views": ((5, 1, 6), None),
                   "segmented": ((3, 11, 6), [0, 4, 5, 11]), "segmented_matrix": ((11, 6), [0, 2, 11])}


class TestBatchNormKernel:
    """``ad.batchnorm`` against the formula that kept x̂ (``_batchnorm_oracle``)."""

    @staticmethod
    def _inputs(case, seed):
        shape, offsets = BN_KERNEL_CASES[case]
        rng = np.random.default_rng(seed)
        width = shape[-1]
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3, width) + rng.normal(size=width)  # mixed spreads
        for start, stop in zip(offsets or [], (offsets or [])[1:]):
            x[..., start:stop, :] = x[..., start:stop, :] * rng.uniform(0.2, 5.0) + rng.normal(size=width) * 3.0
        return x, rng.normal(size=width) * 2.0, rng.normal(size=width), rng.normal(size=shape)

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
    @pytest.mark.parametrize("case", BN_KERNEL_CASES)
    def test_matches_the_stored_xhat_formula(self, case, x_grad):
        x, gamma, beta, g = self._inputs(case, 21)
        got = _batchnorm_kernel(x, gamma, beta, g, x_grad)
        want = _batchnorm_oracle(x, gamma, beta, g)
        for name, a, b in zip(("out", "gx", "d_gamma", "d_beta", "mean", "var"), got, want):
            if a is None:
                assert name == "gx" and not x_grad
                continue
            assert_close_to_scale(a, b, 1e-12)

    def test_mean_a_million_spreads_off_zero(self):
        # |μ| = 1e6·σ in every channel: subtracting μ first keeps the digits, x·a + (β − μ·a) would not
        shape = BN_KERNEL_CASES["stacked"][0]
        rng = np.random.default_rng(22)
        x = rng.normal(size=shape) + 1e6 * np.sign(rng.normal(size=shape[-1]))
        gamma, beta, g = rng.normal(size=6) * 2.0, rng.normal(size=6), rng.normal(size=shape)
        got = _batchnorm_kernel(x, gamma, beta, g)
        want = _batchnorm_oracle(x, gamma, beta, g)
        for a, b in zip(got, want):
            assert_close_to_scale(a, b, 1e-12)

    def test_one_row_segments_and_a_constant_channel_give_beta(self):
        # a one-row input, and a channel constant over every row, normalize to 0 and give β (positive
        # here, so the fused relu passes it)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 7, 3)) * 5.0
        x[..., 1] = 0.1  # not exact in binary: μ can miss it by an ulp
        gamma, beta = rng.normal(size=3) * 3.0, np.abs(rng.normal(size=3))
        out, gx, d_gamma, d_beta, mean, var = _batchnorm_kernel(x, gamma, beta, rng.normal(size=x.shape))
        for array in (out, gx, d_gamma, d_beta, mean, var):
            assert np.isfinite(array).all()
        np.testing.assert_allclose(out[..., 1], np.full((2, 7), beta[1]), rtol=0, atol=1e-12)
        one_row = _batchnorm_kernel(x[0, :1], gamma, beta, rng.normal(size=(1, 3)))
        for array in one_row:
            assert np.isfinite(array).all()
        np.testing.assert_allclose(one_row[0], beta[None], rtol=0, atol=1e-12)

    def test_backward_holds_no_stack_shaped_array_but_input_and_output(self):
        # the node keeps its output and one statistic row per channel: a stored x̂ would show here
        x = Value(np.random.default_rng(24).normal(size=(4, 9, 5)), requires_grad=True)
        y = ad.batchnorm(x, Value(np.ones(5), requires_grad=True), Value(np.zeros(5), requires_grad=True),
                         BatchNormState.for_width(5))
        held, pending = [], [cell.cell_contents for cell in y._backward_fn.__closure__]
        while pending:
            item = pending.pop()
            if isinstance(item, Value):
                pending.append(item.data)
            elif isinstance(item, (list, tuple)):
                pending.extend(item)
            elif isinstance(item, np.ndarray):
                held.append(item)
        assert any(a is x.data for a in held) and any(a is y.data for a in held)
        for array in held:
            if array is not x.data and array is not y.data:
                base = array if array.base is None else array.base
                assert max(array.size, base.size) <= 5, array.shape


@st.composite
def segmented_rows(draw):
    """Rows (2-d, or of (depth, width) blocks) cut into segments of 1 to 12 rows, channels of mixed spread and offset."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    depth = draw(st.sampled_from([None, 1, 2, 3, 5]))  # None: a 2-d input
    width = draw(st.sampled_from([1, 2, 3, 7, 16, 33, 64, 128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    shape = (n, width) if depth is None else (n, depth, width)
    offset = rng.normal(size=width) * 10.0 ** rng.integers(-2, 5, width)
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, width) + offset
    return x, np.concatenate([[0], np.cumsum(sizes)]).tolist(), draw(st.booleans())


@given(segmented_rows())
@settings(max_examples=80, deadline=None)
def test_every_segment_reduces_to_the_bits_of_its_lone_rows(case):
    """The pool gives a segment the bits its rows get alone.

    The lone rows are a fresh C-ordered array, as a lone molecule's are, or
    a view of the packed input; ``reduceat`` does not sum in row order, so
    only this, not the order, is what the reductions promise.
    """
    x, offsets, copy = case
    pooled = ad.mean_pool(Value(x), offsets=offsets).data
    for b, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
        lone = x[start:stop]
        if copy:
            lone = np.array(lone)
        assert_same_bits(pooled[b], ad.mean_pool(Value(lone), [0, stop - start]).data[0])


# two segments' (4, 3, 3) matrix stacks, the constant right operand of segment_matmul; float32 holds them exactly
STACKS = np.random.default_rng(12).normal(size=(2, 4, 3, 3)).astype(np.float32).astype(np.float64)

PRIMITIVE_CASES = [
    ("matmul_bias", lambda s: ad.mse(ad.dense(s["x"], s["W"], s["b"]), np.zeros((4, 3))),
     {"x": (4, 5), "W": (5, 3), "b": (3,)}),
    ("dense", lambda s: ad.mse(ad.dense(s["x"], s["W"], s["b"]), np.zeros((2, 4, 3))),
     {"x": (2, 4, 5), "W": (5, 3), "b": (3,)}),
    ("dense_relu", lambda s: ad.mse(ad.dense(s["x"], s["W"], s["b"], relu=True), np.zeros((4, 3))),
     {"x": (4, 5), "W": (5, 3), "b": (3,)}),
    ("stacked_matmul", lambda s: ad.mse(ad.matmul(s["x"], s["W"]), np.zeros((2, 4, 3))),
     {"x": (2, 4, 5), "W": (5, 3)}),
    ("mean_pool", lambda s: ad.mse(ad.mean_pool(s["x"], [0, 6]), np.zeros((1, 3))), {"x": (6, 3)}),
    ("concat", lambda s: ad.mse(ad.concat([s["a"], s["b"]]), np.zeros((4, 5))),
     {"a": (4, 2), "b": (4, 3)}),
    ("gather", lambda s: ad.mse(ad.gather_rows(s["x"], [0, 2, 2, 1]), np.zeros((4, 3))),
     {"x": (3, 3)}),
    ("scatter", lambda s: ad.mse(ad.scatter_add_rows(s["x"], [0, 2, 2, 1, 0], 4), np.zeros((4, 3))),
     {"x": (5, 3)}),
    ("gather_uneven", lambda s: ad.mse(ad.gather_rows(s["x"], [2, 2, 0, 2, 2, 1, 2]), np.zeros((7, 3))),
     {"x": (4, 3)}),  # row 3 is never gathered, row 2 five times
    ("mean", lambda s: ad.mse(ad.mean(s["x"]), np.ones((4, 3))), {"x": (5, 4, 3)}),
    ("l1", lambda s: ad.l1_norm(s["x"]), {"x": (4, 3)}),
    ("segment_matmul", lambda s: ad.mse(ad.segment_matmul(s["x"], STACKS, [0, 2, 5]), np.zeros((4, 5, 3))),
     {"x": (5, 3)}),
    ("segment_mean_pool", lambda s: ad.mse(ad.mean_pool(s["x"], offsets=[0, 4, 6]), np.zeros((2, 2, 3))),
     {"x": (6, 2, 3)}),
]


@pytest.mark.parametrize("name,build,shapes", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, build, shapes):
    from zlib import crc32

    rng = np.random.default_rng(crc32(name.encode()))
    store = ParameterStore()
    for pname, shape in shapes.items():
        store.add(pname, rng.normal(size=shape))
    assert gradient_check(build, store, h=1e-6, n_probe=40, seed=1) <= 1e-6


def test_batchnorm_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    # one matrix, and stacks normalized over all their rows, without and with the fused relu; an entry
    # the relu zeroes gets its x gradient only through the shared statistics, ~4e-5 here, where the
    # rounding of an h = 1e-6 stencil is ~1e-10, so that case takes h = 1e-5
    for shape, relu, h in (((6, 3), False, 1e-6), ((2, 6, 3), False, 1e-6), ((2, 9, 3), True, 1e-5)):
        store = store_with(x=rng.normal(size=shape), g=rng.normal(size=3), b=rng.normal(size=3))
        c = rng.normal(size=shape)  # a fixed target keeps gradients O(1)
        state = BatchNormState.for_width(3)

        def f(s):
            return ad.mse(ad.batchnorm(s["x"], s["g"], s["b"], state), c)

        assert gradient_check(f, store, h=h, n_probe=24, seed=2) <= 1e-6


class TestGradientCheck:
    def test_linear_function_is_exact(self):
        store = store_with(w=np.random.default_rng(2).normal(size=10) * 0.1)
        err = gradient_check(lambda s: ad.mean(s["w"]), store, h=1e-3, n_probe=10)
        assert err <= 1e-10

    def test_relu_at_zero_probe_skipped(self):
        store = store_with(w=np.zeros((1, 3)))
        err = gradient_check(
            lambda s: ad.mean(ad.mean(ad.dense(s["w"], Value(np.eye(3)), relu=True))), store, h=1e-5,
            n_probe=3, seed=0
        )
        assert err == 0.0  # every probe sits exactly on the kink and is skipped

    @pytest.mark.parametrize("w", [0.0, 1e-7], ids=["on-kink", "stencil-crosses-kink"])
    def test_dense_kink_probe_skipped(self, w):
        # x @ w is 0 (on the kink) or 1e-7, which w +- h with h = 1e-5
        # moves across the kink; a central difference there reads ~0.5
        # against the analytic 1.0, so the probe must be skipped
        store = store_with(w=np.array([[w]]))
        x = Value(np.array([[1.0]]))
        err = gradient_check(
            lambda s: ad.mean(ad.mean(ad.dense(x, s["w"], relu=True))),
            store, h=1e-5, n_probe=1, seed=0,
        )
        assert err == 0.0

    def test_batchnorm_kink_probe_skipped(self):
        # the first row's relu input is 1e-7, which a probe of either
        # parameter (h = 1e-5) moves across the kink, so both must be skipped
        x = Value(np.array([[-1.0], [1.0]]))
        xhat = -1.0 / np.sqrt(1.0 + ad.BN_EPS)
        store = store_with(g=np.ones(1), b=np.array([1e-7 - xhat]))
        state = BatchNormState.for_width(1)
        err = gradient_check(
            lambda s: ad.mean(ad.mean(ad.batchnorm(x, s["g"], s["b"], state))),
            store, h=1e-5, n_probe=2, seed=0,
        )
        assert err == 0.0

    def test_relu_on_zero_does_not_hide_a_wrong_gradient(self):
        # the zero row puts three relu inputs exactly on 0 for every probe of
        # W; the relu is flat there, so the probes stay valid and must show
        # that the test-local node's backward slope (3) is not its forward one (2)
        x = Value(np.array([[0.0, 0.0], [1.0, 2.0]]))
        store = store_with(w=np.random.default_rng(6).uniform(0.5, 1.5, size=(2, 3)))

        def f(s):
            h = ad.dense(x, s["w"], relu=True)
            wrong = ad._node(h.data * 2.0, "wrong", (h,), lambda g: h._accumulate(g * 3.0, owned=True))
            return ad.mean(ad.mean(wrong))

        assert gradient_check(f, store, h=1e-5, n_probe=6, seed=0) > 0.1

    @staticmethod
    def full_stack_error(cfg):
        # bonded molecule: one-hot edge features are exactly 0/1, so every
        # message weight either has a healthy gradient or an exactly-zero
        # one (near-zero RBF features would drown tiny gradients in
        # finite-difference noise)
        from helpers import bonded_record
        from rotenc.geometry import sample_rotations
        from rotenc.model import Model, loss

        record = bonded_record(seed=11)
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("y",), seed=0, bonded=True)
        batch = model.prepare(record, training=True)
        rotations = sample_rotations(3, 7)
        initial = {name: (state.mean.copy(), state.var.copy()) for name, state in model.bn_states.items()}

        def forward():
            # a training pass folds its batch statistics into the running
            # estimates; put them back so that checking leaves the model as it was
            out = model.forward(batch, training=True, rotations=rotations)
            for name, (mean, var) in initial.items():
                model.bn_states[name].mean, model.bn_states[name].var = mean.copy(), var.copy()
            return out

        base, _ = forward()
        target = base.data + 0.7

        def f(store):
            y_hat, u = forward()
            return loss(y_hat, target, u, 1e-3)

        error = gradient_check(f, model.store, h=1e-5, n_probe=50, seed=0)
        for name, (mean, var) in initial.items():
            assert_same_bits(model.bn_states[name].mean, mean)
            assert_same_bits(model.bn_states[name].var, var)
        return error

    def test_full_stack_gradients(self, tiny_cfg):
        assert self.full_stack_error(tiny_cfg) <= 1e-4


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = store_with(a=np.zeros(2))
        with pytest.raises(KeyError):
            store.add("a", np.zeros(2))

    def test_items_sorted(self):
        store = store_with(b=np.zeros(1), a=np.zeros(1), c=np.zeros(1))
        assert [k for k, _ in store.items()] == ["a", "b", "c"]

    def test_float32_block_hands_back_the_masters_also_on_a_raise(self):
        store = store_with(w=np.arange(6.0).reshape(2, 3), b=np.ones(3))
        masters = {name: v.data for name, v in store.items()}
        with pytest.raises(ZeroDivisionError):
            with store.float32():
                assert all(v.data.dtype == np.float32 for _, v in store.items())
                np.testing.assert_array_equal(store["w"].data, masters["w"])
                1 / 0
        assert all(v.data is masters[name] for name, v in store.items())

    def test_state_dict_roundtrip(self):
        store = store_with(w=np.arange(6.0).reshape(2, 3))
        snapshot = store.state_dict()
        store["w"].data[:] = 0.0
        store.load_state_dict(snapshot)
        np.testing.assert_array_equal(store["w"].data, np.arange(6.0).reshape(2, 3))


U32 = 2.0**-24  # float32's unit roundoff


def _message_layer_case():
    dst, src = np.array([2, 0, 5, 0, 1, 3, 2, 0]), np.array([0, 1, 0, 2, 0, 2, 3, 5])
    e = np.random.default_rng(3).normal(size=(8, 2)).astype(np.float32)
    graphs = {dtype: _graph(src, dst, e, 6, dtype) for dtype in (np.float32, np.float64)}

    def build(h, *weights):  # the graph's features take h's dtype, as a training copy's do
        return ad.message_layer(h, graphs[h.data.dtype.type], weights)

    return build, [(6, 4), (10, 3), (3,), (3, 5), (5,), (9, 4), (4,)]


# name: (op on input Values, input shapes, tolerance in units of U32). Each tolerance is ~4x the worst
# error measured over 20 seeds: a few float32 roundings per entry, more where a result passes through
# more products (message_layer: three GEMMs, a mean and two relus deep)
F32_CASES = {
    "dense": (lambda x, W, b: ad.dense(x, W, b, relu=True), [(4, 5), (5, 3), (3,)], 8),
    "dense_parts_broadcast": (lambda r, e, W, b: ad.dense((r, e), W, b, relu=True),
                              [(3, 6, 3), (6, 4), (7, 5), (5,)], 8),
    "batchnorm": (lambda x, g, b: ad.batchnorm(x, g, b, BatchNormState.for_width(6)),
                  [(3, 11, 6), (6,), (6,)], 16),
    "message_layer": (*_message_layer_case(), 32),
    "segment_matmul": (lambda x: ad.segment_matmul(x, STACKS.astype(x.data.dtype), [0, 2, 5]), [(5, 3)], 8),
    "mean": (lambda x: ad.mean(x), [(5, 4, 3)], 8),
    "mean_pool": (lambda x: ad.mean_pool(x, offsets=[0, 4, 6]), [(6, 2, 3)], 4),
    "mse": (lambda x: ad.mse(x, (np.arange(12.0).reshape(4, 3) / 8).astype(x.data.dtype)), [(4, 3)], 16),
    "l1_norm": (ad.l1_norm, [(4, 3)], 4),
}


def _run_in(dtype, build, arrays, g):
    """Output and every input gradient of ``build`` on the arrays cast to ``dtype``, for the upstream ``g``."""
    values = [Value(a.astype(dtype), requires_grad=True) for a in arrays]
    out = build(*values)
    out._backward_fn(np.asarray(g, dtype=dtype))
    return [out.data] + [v._grad for v in values]


class TestFloat32Kernels:
    """Every op a training step runs, on float32 inputs, against the float64 kernel on the same values."""

    @pytest.mark.parametrize("name", F32_CASES)
    def test_matches_float64_in_float32(self, name):
        build, shapes, tol = F32_CASES[name]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            # values float32 holds exactly, so both runs see the same inputs and only the arithmetic differs
            arrays = [rng.normal(size=shape).astype(np.float32).astype(np.float64) for shape in shapes]
            g = rng.normal(size=build(*map(Value, arrays)).shape).astype(np.float32).astype(np.float64)
            want = _run_in(np.float64, build, arrays, g)
            got = _run_in(np.float32, build, arrays, g)
            for i, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == np.float32 and b.dtype == np.float64, (i, a.dtype, b.dtype)
                assert_close_to_scale(a, b, tol * U32)

    def test_batchnorm_running_statistics_stay_float64(self):
        state = BatchNormState.for_width(3)
        x = np.random.default_rng(5).normal(size=(2, 7, 3)).astype(np.float32)
        out = ad.batchnorm(Value(x), Value(np.ones(3, np.float32)), Value(np.zeros(3, np.float32)), state)
        assert out.data.dtype == np.float32
        assert state.mean.dtype == state.var.dtype == np.float64

    def test_batchnorm_mean_a_million_spreads_off_zero(self):
        # The float64 test above keeps 12 digits here. A float32 channel with |μ| = 1e6·σ keeps about
        # one: μ is summed to within a few ulps of 1e6 (an ulp is 0.0625σ there), and every x − μ
        # carries that error, so outputs and gradients are good to ~4·U32·|μ|/σ ≈ 0.24 of their scale.
        # β's gradient and the running mean, which need no x − μ, keep float32's precision. Errors that
        # large move a few outputs across the fused relu's kink (3 of 198 here), where the two runs'
        # gradients cannot agree, so as a gradient check skips such probes, both backward passes get an
        # upstream gradient that is 0 wherever either run's output is.
        shape = BN_KERNEL_CASES["stacked"][0]
        rng = np.random.default_rng(22)
        x = rng.normal(size=shape) + 1e6 * np.sign(rng.normal(size=shape[-1]))
        gamma, beta, g = rng.normal(size=6) * 2.0, rng.normal(size=6), rng.normal(size=shape)
        x, gamma, beta, g = (a.astype(np.float32) for a in (x, gamma, beta, g))
        wide = [a.astype(np.float64) for a in (x, gamma, beta)]
        g = g * ((_batchnorm_kernel(x, gamma, beta, g)[0] > 0.0)
                 & (_batchnorm_kernel(*wide, g.astype(np.float64))[0] > 0.0))
        got = _batchnorm_kernel(x, gamma, beta, g)
        want = _batchnorm_kernel(*wide, g.astype(np.float64))
        for name, a, b in zip(("out", "gx", "d_gamma", "d_beta", "mean", "var"), got, want):
            assert np.isfinite(a).all(), name
            assert_close_to_scale(a, b, 16 * U32 if name in ("d_beta", "mean") else 4 * U32 * 1e6)

    def test_value_keeps_float32_and_makes_the_rest_float64(self):
        assert Value(np.ones(3, np.float32)).data.dtype == np.float32
        assert Value(np.float32(2.0)).data.dtype == np.float32
        for other in (np.ones(3, np.float16), np.ones(3, np.int64), [1, 2], 2.0, np.ones(2, ">f4")):
            assert Value(other).data.dtype == np.float64
