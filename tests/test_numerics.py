"""Autodiff correctness, losses, optimizer arithmetic, checkpoint format.

Every differentiable op gets checked against central finite differences
in float64; the handful of closed-form oracles (softmax values, the
optimizer recursion, auc) are frozen from independent hand computation.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsegt.numerics as nm
from sparsegt.errors import ContractError, DivergenceError, FormatError, ShapeError
from sparsegt.rngutil import derive
from adamw_oracle import adamw_loop_step
from attention_oracle import batched_matmul, masked_softmax, mean_all, mul
import norm_oracle
from gradcheck import finite_difference, max_relative_error

TOL = 1e-6


def _p(arr):
    return nm.param(np.asarray(arr, dtype=np.float64), dtype=np.float64)


def _check_grads(loss_fn, tensors, tol=TOL):
    loss = loss_fn()
    nm.backward(loss)
    for t in tensors:
        num = finite_difference(loss_fn, t)
        assert max_relative_error(t.grad, num) < tol, t.grad


class TestElementwiseOps:
    def test_add_broadcast(self):
        rng = derive(1, 100)
        a = _p(rng.normal(size=(3, 4)))
        b = _p(rng.normal(size=(4,)))
        _check_grads(lambda: mean_all(mul(nm.add(a, b), nm.add(a, b))), [a, b])

    def test_mul_broadcast_scalar(self):
        a = _p([[1.0, -2.0], [0.5, 3.0]])
        s = _p([2.0])
        _check_grads(lambda: mean_all(mul(a, s)), [a, s])

    def test_relu_away_from_kink(self):
        a = _p([[1.0, -2.0, 0.5], [-0.3, 2.0, -1.0]])
        _check_grads(lambda: mean_all(mul(nm.relu(a), nm.relu(a))), [a])

    def test_reshape_roundtrip_grad(self):
        a = _p(np.arange(6, dtype=np.float64).reshape(2, 3) + 1)
        _check_grads(lambda: mean_all(mul(nm.reshape(a, (3, 2)),
                                                nm.reshape(a, (3, 2)))), [a])


class TestMatmulOps:
    def test_matmul(self):
        rng = derive(1, 101)
        a = _p(rng.normal(size=(3, 4)))
        b = _p(rng.normal(size=(4, 2)))
        _check_grads(lambda: mean_all(nm.matmul(a, b)), [a, b])

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError, match="inner dims"):
            nm.matmul(_p(np.ones((2, 3))), _p(np.ones((4, 2))))
        with pytest.raises(ShapeError, match="2-d only"):
            nm.matmul(_p(np.ones((2, 3, 1))), _p(np.ones((1, 2))))

    def test_batched_matmul(self):
        rng = derive(1, 102)
        a = _p(rng.normal(size=(2, 3, 4)))
        b = _p(rng.normal(size=(2, 4, 2)))
        _check_grads(lambda: mean_all(nm.reshape(batched_matmul(a, b),
                                                    (2, 6))), [a, b])

    def test_gather_rows_with_repeats(self):
        # repeated rows, an empty index, and an index that skips rows
        for idx in ([0, 2, 2, 3, 0], [], [3, 1, 3]):
            a = _p(np.arange(8, dtype=np.float64).reshape(4, 2))
            idx = np.array(idx, dtype=np.int64)
            w = np.arange(1.0, idx.size + 1)[None, :]
            _check_grads(lambda: mean_all(nm.matmul(
                w, mul(nm.gather_rows(a, idx), nm.gather_rows(a, idx)))), [a])
            untouched = np.setdiff1d(np.arange(4), idx)
            assert (a.grad[untouched] == 0).all(), idx


def _add_at(grad, idx, rows):
    """The scatter-add oracle: one element-by-element unbuffered pass."""
    g = np.zeros((rows,) + grad.shape[1:], dtype=grad.dtype)
    np.add.at(g, idx, grad)
    return g


class TestScatter:
    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32),
                                            (np.float64, np.uint64)])
    @pytest.mark.parametrize("width", [None, 1, 8], ids=["1d", "w1", "w8"])
    @pytest.mark.parametrize("m", [0, 1, 500])
    def test_gather_backward_matches_add_at_bit_for_bit(self, dtype, uint, width, m):
        rng = derive(1, 120)
        rows = 60
        shape = (rows,) if width is None else (rows, width)
        a = nm.param(np.zeros(shape), dtype)
        # rows 50..59 are never gathered; 500 draws over 50 rows repeat
        idx = rng.integers(0, rows - 10, size=m)
        gshape = (m,) + shape[1:]
        g = (rng.normal(size=gshape) * 10.0 ** rng.uniform(-10, 10, size=gshape)).astype(dtype)
        out = nm.gather_rows(a, idx)
        out.grad = g
        out._backward()
        assert a.grad.dtype == dtype and a.grad.shape == shape
        np.testing.assert_array_equal(a.grad.view(uint), _add_at(g, idx, rows).view(uint))

    def test_indices_outside_the_rows_raise(self):
        a = _p(np.ones((3, 2)))
        # refused in the forward, naming the op: numpy would wrap the -1, and
        # the backward's scatter, which trusts its indices, would write out of
        # bounds for the 3
        for bad in (-1, 3):
            with pytest.raises(IndexError, match=f"gather_rows: index {bad} outside"):
                nm.gather_rows(a, np.array([0, bad]))

    def test_batch_norm_stats_rows_outside_raise(self):
        # refused before the running buffers move: numpy would read row 3 for -1
        x = _p(np.arange(12.0).reshape(4, 3) / 10)
        g, b = _p(np.ones(3)), _p(np.zeros(3))
        mean, var = np.zeros(3), np.ones(3)
        for bad in (-1, 4):
            with pytest.raises(IndexError, match=f"batch_norm: index {bad} outside"):
                nm.batch_norm(x, g, b, mean, var, training=True,
                              stats_rows=np.array([0, bad]))
            assert (mean == 0).all() and (var == 1).all()

    def test_gather_rows_shape_contract(self):
        with pytest.raises(ShapeError, match="flat index"):
            nm.gather_rows(_p(np.ones((3, 2))), np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(ShapeError, match="1-d or 2-d tensor"):
            nm.gather_rows(_p(np.ones((3, 2, 2))), np.array([0]))

    def test_the_kernels_are_the_file_scipy_sparse_loads(self):
        # the oracle below pins scipy's product only if numerics calls the
        # extension scipy.sparse itself runs; a fresh process asks scipy
        code = f"import scipy.sparse, sys; print(sys.modules[{nm._SPARSETOOLS!r}].__file__)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert nm._sparsetools.__file__ == out.stdout.strip()
        assert nm._sparsetools.__name__ == nm._SPARSETOOLS

    def test_a_later_scipy_sparse_import_binds_its_kernel_module(self):
        # loading the kernels leaves sys.modules as it found it, so a process
        # that imports sparsegt first still gets scipy.sparse._sparsetools as
        # an attribute of the package, and from the same file
        code = (f"import sys, sparsegt.numerics as nm\n"
                f"assert {nm._SPARSETOOLS!r} not in sys.modules\n"
                f"import scipy.sparse\n"
                f"assert scipy.sparse._sparsetools.__file__ == nm._sparsetools.__file__\n"
                f"assert sys.modules[{nm._SPARSETOOLS!r}] is scipy.sparse._sparsetools\n")
        src = str(Path(nm.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr

    def test_a_missing_kernel_extension_is_an_import_error_naming_it(self, tmp_path):
        with pytest.raises(ImportError, match=r"scipy\.sparse\._sparsetools"):
            nm._load_sparsetools([str(tmp_path)])

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("itype", [np.int32, np.int64])
    @pytest.mark.parametrize("width", [None, 5], ids=["1d", "w5"])
    def test_spmm_is_scipys_product_bit_for_bit(self, fmt, dtype, itype, width):
        # the kernel is called without scipy's matrix object; it must give
        # the bits ``matrix @ dense`` gives
        rng = derive(1, 121)
        rows, cols = 7, 9
        a = sp.random(rows, cols, density=0.4, format=fmt, random_state=3, dtype=dtype)
        ptr, idx = a.indptr.astype(itype), a.indices.astype(itype)
        dense = rng.normal(size=(cols,) if width is None else (cols, width)).astype(dtype)
        dense *= 10.0 ** rng.uniform(-10, 10, size=dense.shape)
        got = nm._spmm(fmt, ptr, idx, a.data, dense, rows)
        want = a @ dense
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(f"u{got.itemsize}"),
                                      want.view(f"u{want.itemsize}"))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("itype", [np.int32, np.int64])
    @pytest.mark.parametrize("width", [None, 5], ids=["1d", "w5"])
    def test_spmm_column_blocks_into_one_out_are_the_one_shot_product(self, dtype, itype,
                                                                      width):
        # edge_attention scatters block by block into one output: the adds
        # must be the ones a single call over every column makes
        rng = derive(1, 123)
        rows, cols = 7, 40
        a = sp.random(rows, cols, density=0.5, format="csc", random_state=4, dtype=dtype)
        ptr, idx = a.indptr.astype(itype), a.indices.astype(itype)
        dense = rng.normal(size=(cols,) if width is None else (cols, width)).astype(dtype)
        dense *= 10.0 ** rng.uniform(-10, 10, size=dense.shape)
        want = nm._spmm("csc", ptr, idx, a.data, dense, rows)
        got = np.zeros_like(want)
        for lo, hi in ((0, 13), (13, 14), (14, 14), (14, cols)):
            span = slice(ptr[lo], ptr[hi])
            assert nm._spmm("csc", ptr[lo:hi + 1] - ptr[lo], idx[span], a.data[span],
                            dense[lo:hi], rows, out=got) is got
        np.testing.assert_array_equal(got.view(f"u{got.itemsize}"),
                                      want.view(f"u{want.itemsize}"))

    def test_spmm_refuses_an_out_it_cannot_write_through(self):
        a = sp.random(6, 4, density=0.5, format="csc", random_state=5)
        dense = np.ones((4, 3))
        args = ("csc", a.indptr, a.indices, a.data, dense, 6)
        for out in (np.zeros((6, 4)), np.zeros(6 * 3), np.zeros((6, 3), np.float32),
                    np.zeros((3, 6)).T, np.zeros((6, 6))[:, ::2]):
            with pytest.raises(ShapeError, match="out must be C-contiguous"):
                nm._spmm(*args, out=out)
            assert not out.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("itype", [np.int32, np.int64])
    def test_a_weighted_scatter_rounds_as_the_products_apart(self, dtype, itype):
        # y += w * x in the kernel must round like forming w * x first and
        # adding it with weight 1: edge_attention's backward relies on it, and
        # a build that fused the two into one FMA would break it
        rng = derive(1, 122)
        rows, m = 6, 400
        for width in (None, 1, 7):
            idx = rng.integers(0, rows, size=m).astype(itype)   # rows repeat
            shape = (m,) if width is None else (m, width)
            x = (rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)).astype(dtype)
            w = (rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3, size=m)).astype(dtype)
            ramp = np.arange(m + 1, dtype=itype)
            got = nm._spmm("csc", ramp, idx, w, x, rows)
            apart = w * x if width is None else w[:, None] * x
            want = nm._spmm("csc", ramp, idx, np.ones(m, dtype=dtype), apart, rows)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got.view(f"u{got.itemsize}"),
                                          want.view(f"u{want.itemsize}"))


class TestMaskedSoftmax:
    def test_hand_value(self):
        # softmax(8, 0) = (1, 1) / (1 + e^-8), hand-computed
        out = masked_softmax(_p([[8.0, 0.0]]), np.ones((1, 2)))
        assert out.data[0, 0] == pytest.approx(0.9996646498695336, abs=1e-12)
        assert out.data[0, 1] == pytest.approx(0.0003353501304664781, abs=1e-12)

    def test_clip_applies_before_temperature(self):
        # 16 clips to 8 first, then /0.5 restores 16; clipping after the
        # division would cap the effective logit at 8
        out = masked_softmax(_p([[16.0, 0.0]]), np.ones((1, 2)),
                                temperature=0.5)
        expect = 1.0 / (1.0 + np.exp(-16.0))
        assert out.data[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_masked_entries_are_exact_zeros(self):
        out = masked_softmax(_p([[5.0, 1.0, 3.0]]),
                                np.array([[1.0, 0.0, 1.0]]))
        assert out.data[0, 1] == 0.0
        assert out.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fully_masked_row_rejected(self):
        with pytest.raises(ContractError):
            masked_softmax(_p([[1.0, 2.0]]), np.zeros((1, 2)))

    def test_grad_matches_fd_inside_clip(self):
        rng = derive(1, 103)
        logits = _p(rng.uniform(-3, 3, size=(3, 5)))
        mask = np.ones((3, 5))
        mask[0, 2] = 0
        mask[2, 0] = 0
        w = rng.normal(size=(3, 5))
        _check_grads(lambda: mean_all(mul(
            masked_softmax(logits, mask, temperature=0.7), w)), [logits])

    def test_clipped_entries_get_zero_grad(self):
        logits = _p([[9.5, 0.0, -12.0]])
        out = masked_softmax(logits, np.ones((1, 3)))
        nm.backward(mean_all(mul(out, np.array([[1.0, 2.0, 3.0]]))))
        assert logits.grad[0, 0] == 0.0
        assert logits.grad[0, 2] == 0.0
        assert logits.grad[0, 1] != 0.0

    @given(st.integers(2, 6), st.integers(0, 2 ** 10))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_distributions(self, k, key):
        rng = derive(9, key)
        logits = nm.Tensor(rng.uniform(-20, 20, size=(4, k)))
        mask = (rng.random((4, k)) < 0.6).astype(float)
        mask[:, 0] = 1.0                       # keep every row alive
        out = masked_softmax(logits, mask, temperature=0.3).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out[mask == 0] == 0)


class TestNormalization:
    def test_layer_norm_whitens_rows(self):
        rng = derive(1, 104)
        x = _p(rng.normal(3.0, 2.0, size=(5, 8)))
        g = _p(np.ones(8))
        b = _p(np.zeros(8))
        y = nm.layer_norm(x, g, b).data
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-8)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)

    def test_layer_norm_grads(self):
        rng = derive(1, 105)
        x = _p(rng.normal(size=(4, 6)))
        g = _p(rng.normal(size=(6,)) + 1.0)
        b = _p(rng.normal(size=(6,)))
        w = rng.normal(size=(4, 6))
        _check_grads(lambda: mean_all(mul(nm.layer_norm(x, g, b), w)),
                     [x, g, b], tol=1e-5)

    def test_batch_norm_training_stats_rows(self):
        rng = derive(1, 106)
        x = _p(rng.normal(size=(6, 3)))
        g = _p(np.ones(3))
        b = _p(np.zeros(3))
        mean = np.zeros(3)
        var = np.ones(3)
        rows = np.array([0, 2, 5])
        y = nm.batch_norm(x, g, b, mean, var, training=True, stats_rows=rows).data
        xs = x.data[rows]
        expect = (x.data - xs.mean(axis=0)) / np.sqrt(xs.var(axis=0) + 1e-5)
        np.testing.assert_allclose(y, expect, atol=1e-10)
        # running buffers moved toward the stats-row moments
        np.testing.assert_allclose(mean, 0.1 * xs.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(
            var, 0.9 + 0.1 * xs.var(axis=0) * (3 / 2), atol=1e-10)

    def test_batch_norm_grads_with_support_rows(self):
        rng = derive(1, 107)
        x = _p(rng.normal(size=(5, 4)))
        g = _p(rng.normal(size=(4,)) + 1.0)
        b = _p(rng.normal(size=(4,)))
        mean = np.zeros(4)
        var = np.ones(4)
        rows = np.array([1, 3, 4])
        w = rng.normal(size=(5, 4))
        _check_grads(lambda: mean_all(mul(
            nm.batch_norm(x, g, b, mean, var, training=True, stats_rows=rows),
            w)), [x, g, b], tol=1e-5)

    @pytest.mark.parametrize("rows", [[2], None])
    def test_batch_norm_refuses_one_stats_row(self, rows):
        # one row has zero variance, which would scale every row by
        # 1/sqrt(eps); refused before the running buffers move
        x = _p(np.arange(12.0).reshape(4, 3) / 10 if rows else [[0.5, 1.0, -2.0]])
        g, b = _p(np.ones(3)), _p(np.zeros(3))
        mean, var = np.zeros(3), np.ones(3)
        with pytest.raises(ContractError, match="at least 2 statistics rows, got 1"):
            nm.batch_norm(x, g, b, mean, var, training=True, stats_rows=rows)
        assert (mean == 0).all() and (var == 1).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_norm_eval_reads_the_buffers_in_the_input_dtype(self, dtype):
        # the float64 buffers promote nothing: a float32 input gives float32
        # rows, and a float64 one reads the very buffers
        rng = derive(1, 112)
        x = rng.normal(size=(5, 3)).astype(dtype)
        g = nm.param(rng.normal(size=3) + 1.0, dtype)
        b = nm.param(rng.normal(size=3), dtype)
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        y = nm.batch_norm(nm.Tensor(x), g, b, mean, var, training=False).data
        assert y.dtype == dtype
        assert mean.dtype == var.dtype == np.float64
        mu, v = mean.astype(dtype), var.astype(dtype)
        np.testing.assert_array_equal(y, (x - mu) * (1.0 / np.sqrt(v + 1e-5)) * g.data + b.data)

    def test_batch_norm_eval_ignores_batch(self):
        g = _p(np.ones(2))
        b = _p(np.zeros(2))
        mean = np.array([1.0, -1.0])
        var = np.array([4.0, 0.25])
        x1 = nm.Tensor(np.array([[3.0, 0.0], [9.9, 9.9]]))
        x2 = nm.Tensor(np.array([[3.0, 0.0], [-5.0, 2.0]]))
        y1 = nm.batch_norm(x1, g, b, mean, var, training=False).data
        y2 = nm.batch_norm(x2, g, b, mean, var, training=False).data
        np.testing.assert_allclose(y1[0], y2[0])
        np.testing.assert_allclose(y1[0], [(3 - 1) / np.sqrt(4 + 1e-5),
                                           (0 + 1) / np.sqrt(0.25 + 1e-5)])

    def test_normalize_rows_values_and_grads(self):
        rng = derive(1, 108)
        x = _p(rng.normal(size=(4, 3)) * 3)
        s = _p([1.5])
        y = nm.normalize_rows(x, s).data
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.5, atol=1e-8)
        w = rng.normal(size=(4, 3))
        _check_grads(lambda: mean_all(mul(nm.normalize_rows(x, s), w)),
                     [x, s], tol=1e-5)

    def test_normalize_rows_small_norm_branch(self):
        x = _p([[1e-9, 0.0]])
        s = _p([2.0])
        y = nm.normalize_rows(x, s)
        nm.backward(mean_all(y))
        assert np.isfinite(x.grad).all()


class TestNormOracle:
    """The one-pass norms equal the ``x.mean``/``x.var`` oracle bit for bit."""

    @staticmethod
    def _run(op, x, dtype, seed, **kw):
        rng = derive(seed, 1)
        xt = nm.param(x, dtype)
        g = nm.param(rng.normal(size=x.shape[1]) + 1.0, dtype)
        b = nm.param(rng.normal(size=x.shape[1]), dtype)
        w = rng.normal(size=x.shape).astype(dtype)
        out = op(xt, g, b, **kw)
        nm.backward(mean_all(mul(out, w)))
        return [out.data, xt.grad, g.grad, b.grad]

    @staticmethod
    def _x(width, dtype, seed):
        rng = derive(seed, 0)
        shape = (11, width)
        return (rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
                + rng.normal(size=width) * 10.0 ** rng.uniform(-2, 2, size=width)).astype(dtype)

    @staticmethod
    def _assert_equal(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [7, 8, 33])
    def test_layer_norm(self, width, dtype):
        for seed in range(5):
            x = self._x(width, dtype, seed)
            self._assert_equal(self._run(nm.layer_norm, x, dtype, seed),
                               self._run(norm_oracle.layer_norm, x, dtype, seed))

    @pytest.mark.parametrize("rows", [None, [0, 3, 4, 7, 10], [9, 2, 5]])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [7, 8, 33])
    def test_batch_norm_training(self, width, dtype, rows):
        for seed in range(5):
            x = self._x(width, dtype, seed)
            got, want = [], []
            for op, buffers in ((nm.batch_norm, got), (norm_oracle.batch_norm, want)):
                rng = derive(seed, 2)
                mean, var = rng.normal(size=width), rng.uniform(0.5, 2.0, size=width)
                buffers += self._run(op, x, dtype, seed, running_mean=mean,
                                     running_var=var, training=True, stats_rows=rows)
                buffers += [mean, var]
            self._assert_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [7, 8, 33])
    def test_batch_norm_eval(self, width, dtype):
        for seed in range(5):
            x = self._x(width, dtype, seed)
            rng = derive(seed, 2)
            mean, var = rng.normal(size=width), rng.uniform(0.5, 2.0, size=width)
            kw = dict(running_mean=mean, running_var=var, training=False)
            self._assert_equal(self._run(nm.batch_norm, x, dtype, seed, **kw),
                               self._run(norm_oracle.batch_norm, x, dtype, seed, **kw))


class TestDropoutAndTape:
    def test_dropout_mask_and_scale(self):
        x = _p(np.ones((200, 10)))
        out = nm.dropout(x, 0.4, derive(1, 109))
        kept = out.data != 0
        assert abs(kept.mean() - 0.6) < 0.05
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.6)
        nm.backward(mean_all(out))
        # gradient flows only through kept entries, with the same scale
        np.testing.assert_allclose(x.grad[~kept], 0.0)

    def test_dropout_rate_zero_is_identity(self):
        x = _p([[1.0, 2.0]])
        assert nm.dropout(x, 0.0, None) is x

    def test_no_grad_stops_taping(self):
        x = _p([[1.0]])
        with nm.no_grad():
            y = mul(x, x)
        assert not y.requires_grad
        with pytest.raises(ContractError):
            nm.backward(y)

    def test_backward_needs_scalar(self):
        x = _p([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            nm.backward(mul(x, x))

    def test_grad_accumulates_across_backwards(self):
        x = _p([2.0])
        nm.backward(mean_all(mul(x, x)))
        first = x.grad.copy()
        nm.backward(mean_all(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * first)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_gradient_is_zeros_plus_g(self, dtype):
        # bit for bit what adding into zeros gives: -0.0 lands as +0.0, and
        # a float64 gradient into a float32 tensor rounds once (the fourth
        # entry sits just past a float32 tie: once it rounds away from 1,
        # through an intermediate rounding it would tie back to 1)
        g = np.array([-0.0, 0.0, 1.5, -(1.0 + 2.0 ** -24 + 2.0 ** -50), 1e-300])
        t = nm.param(np.ones(g.size), dtype)
        t._acc(g)
        want = np.zeros(g.size, dtype=dtype)
        want += g
        assert t.grad.dtype == dtype and t.grad.tobytes() == want.tobytes()
        assert not np.signbit(t.grad[0])
        if dtype is np.float32:
            assert t.grad[3] == np.float32(-(1.0 + 2.0 ** -23))
        t._acc(g)
        want += g
        assert t.grad.tobytes() == want.tobytes()

    def test_tensor_dim_limit(self):
        with pytest.raises(ShapeError):
            nm.Tensor(np.zeros((1, 1, 1, 1)))


class TestLosses:
    def test_cross_entropy_uniform_is_log_k(self):
        logits = _p(np.zeros((3, 4)))
        loss = nm.softmax_cross_entropy(logits, np.array([0, 1, 3]))
        assert float(loss.data) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_cross_entropy_grads(self):
        rng = derive(1, 110)
        logits = _p(rng.normal(size=(5, 3)))
        labels = np.array([0, 2, 1, 1, 0])
        _check_grads(lambda: nm.softmax_cross_entropy(logits, labels), [logits])

    def test_bce_at_zero_is_log_two(self):
        logits = _p(np.zeros(4))
        loss = nm.bce_with_logits(logits, np.array([1.0, 0.0, 1.0, 0.0]))
        assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bce_grads(self):
        rng = derive(1, 111)
        logits = _p(rng.normal(size=(6,)))
        targets = (rng.random(6) < 0.5).astype(np.float64)
        _check_grads(lambda: nm.bce_with_logits(logits, targets), [logits])

    def test_bce_stable_at_large_logits(self):
        loss = nm.bce_with_logits(_p([500.0, -500.0]), np.array([1.0, 0.0]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bce_backward_saturates_without_overflow(self, dtype):
        # exp(1000) overflows in both dtypes: the sigmoid is then exactly 0,
        # and elsewhere it is 1 / (1 + exp(-z)) bit for bit
        z = np.array([-1000.0, -3.5, 0.0, 2.25, 1000.0], dtype=dtype)
        t = np.array([1.0, 0.0, 1.0, 0.0, 1.0], dtype=dtype)
        logits = nm.param(z, dtype)
        nm.backward(nm.bce_with_logits(logits, t))
        sig = np.concatenate(([0.0], 1.0 / (1.0 + np.exp(-z[1:-1])), [1.0])).astype(dtype)
        np.testing.assert_array_equal(logits.grad, np.ones((), dtype) * (sig - t) / z.size)
        assert logits.grad[0] == -1.0 / z.size and logits.grad[-1] == 0.0

    def test_auc_hand_value(self):
        # pos {0.35, 0.8} vs neg {0.1, 0.4}: 3 of 4 pairs ordered right
        auc = nm.roc_auc(np.array([0.1, 0.4, 0.35, 0.8]),
                         np.array([0, 0, 1, 1]))
        assert auc == pytest.approx(0.75, abs=1e-12)

    def test_auc_degenerate_class(self):
        assert nm.roc_auc(np.array([0.2, 0.3]), np.array([1, 1])) == 0.5

    @pytest.mark.parametrize("n,levels", [(1, 1), (7, 2), (500, 9), (4000, 40)])
    def test_ranks_and_auc_are_rankdatas_bit_for_bit(self, n, levels):
        # scipy.stats.rankdata is the oracle: many ties, signed zeros and
        # infinities; the AUC is the old rank statistic on its ranks
        import scipy.stats
        rng = derive(n, levels)
        x = rng.integers(0, levels, n) / 4.0 - 1.0
        x[rng.random(n) < 0.05] = -0.0
        x[rng.random(n) < 0.02] = np.inf
        ranks = nm._average_ranks(x)
        np.testing.assert_array_equal(ranks, scipy.stats.rankdata(x))
        assert ranks.dtype == np.float64
        labels = np.arange(n) % 2
        pos = labels == 1
        npos, nneg = int(pos.sum()), int((~pos).sum())
        if npos and nneg:
            old = scipy.stats.rankdata(x)
            expected = (old[pos].sum() - npos * (npos + 1) / 2.0) / (npos * nneg)
            assert nm.roc_auc(x, labels) == expected

    def test_auc_of_nan_scores_is_nan(self):
        # as with scipy.stats.rankdata's default: a NaN score leaves no ranking
        assert np.isnan(nm.roc_auc(np.array([0.1, np.nan, 0.3, 0.4]),
                                   np.array([0, 1, 0, 1])))
        assert nm.roc_auc(np.array([np.nan, 0.3]), np.array([0, 0])) == 0.5


class _ConstSchedule:
    def __init__(self, lr):
        self.lr = lr

    def lr_at(self, epoch):
        return self.lr


class TestOptimizer:
    def test_adamw_matches_hand_recursion(self):
        # scalar w0=1, constant grad 0.5, lr 0.1, wd 0.01; three hand steps
        w = nm.param(np.array([1.0]), dtype=np.float64)
        opt = nm.AdamW([("w", w)], _ConstSchedule(0.1), weight_decay=0.01)
        expected = [0.8990000019999999, 0.7981010039980004, 0.6973029049940024]
        for step_val in expected:
            w.grad = np.array([0.5])
            opt.step(1)
            assert w.data[0] == pytest.approx(step_val, abs=1e-12)

    def test_nonfinite_grad_raises(self):
        w = nm.param(np.array([1.0]))
        opt = nm.AdamW([("w", w)], _ConstSchedule(0.1))
        w.grad = np.array([np.inf], dtype=np.float32)
        with pytest.raises(DivergenceError):
            opt.step(1)

    @staticmethod
    def _arena_and_oracle(dtype):
        """Two optimizers over equal copies of three differently shaped parameters."""
        rng = derive(1, 113)
        init = [rng.normal(size=s) for s in ((3, 4), (5,), (2, 1, 3))]
        opts = []
        for _ in range(2):
            named = [(n, nm.param(a, dtype)) for n, a in zip("abc", init)]
            opts.append(nm.AdamW(named, nm.CosineSchedule(0.05, 6, warmup=2),
                                 weight_decay=0.01))
        return opts

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_arena_matches_the_loop_oracle(self, dtype):
        # warmup, then a cosine rate that changes every step
        arena, loop = self._arena_and_oracle(dtype)
        rng = derive(1, 114)
        for epoch in range(1, 7):
            grads = [rng.normal(size=p.data.shape).astype(dtype) for _, p in arena.named_params]
            for opt in (arena, loop):
                opt.zero_grad()
                for (_, p), g in zip(opt.named_params, grads):
                    p.grad = g.copy()
            assert arena.step(epoch) == adamw_loop_step(loop, epoch)
            for (_, pa), (_, pl) in zip(arena.named_params, loop.named_params):
                assert pa.data.dtype == pl.data.dtype == dtype
                np.testing.assert_array_equal(pa.data, pl.data)
            np.testing.assert_array_equal(arena.m, loop.m)
            np.testing.assert_array_equal(arena.v, loop.v)
        assert arena.step_count == loop.step_count == 6

    def test_divergence_changes_nothing_and_names_the_parameter(self):
        opt, ref = self._arena_and_oracle(np.float32)
        for o in (opt, ref):
            for _, p in o.named_params:
                p.grad = np.full(p.data.shape, 0.5, dtype=np.float32)
            o.step(1)
        before = ([p.data.copy() for _, p in opt.named_params],
                  opt.m.copy(), opt.v.copy(), opt.step_count)
        for _, p in opt.named_params:
            p.grad = np.full(p.data.shape, 0.25, dtype=np.float32)
        opt.named_params[1][1].grad[2] = np.inf
        with pytest.raises(DivergenceError, match="non-finite gradient in 'b'"):
            opt.step(2)
        np.testing.assert_array_equal(opt.m, before[1])
        np.testing.assert_array_equal(opt.v, before[2])
        assert opt.step_count == before[3]
        for (_, p), was in zip(opt.named_params, before[0]):
            np.testing.assert_array_equal(p.data, was)
        # the failed step leaves nothing behind: with 'b' finite again, the
        # next step matches a run that never failed
        for o in (opt, ref):
            for _, p in o.named_params:
                p.grad = np.full(p.data.shape, 0.25, dtype=np.float32)
        opt.step(2)
        ref.step(2)
        np.testing.assert_array_equal(opt.m, ref.m)
        for (_, p), (_, q) in zip(opt.named_params, ref.named_params):
            np.testing.assert_array_equal(p.data, q.data)

    def test_refuses_mixed_dtypes(self):
        named = [("a", nm.param(np.ones(2), np.float32)),
                 ("b", nm.param(np.ones(2), np.float64))]
        with pytest.raises(ContractError, match="one parameter dtype"):
            nm.AdamW(named, _ConstSchedule(0.1))

    def test_parameters_become_views_of_the_arena(self):
        opt, _ = self._arena_and_oracle(np.float64)
        for _, p in opt.named_params:
            assert np.shares_memory(p.data, opt.flat)
        opt.flat[0] = 42.0
        assert opt.named_params[0][1].data[0, 0] == 42.0

    def test_a_missing_gradient_is_refused_and_changes_nothing(self):
        # every parameter trains: a step after zero_grad with one gradient
        # missing names it and leaves the arena as it was, and the next
        # full step matches the loop oracle's
        arena, loop = self._arena_and_oracle(np.float32)
        rng = derive(1, 115)
        for epoch in (1, 2):
            grads = [rng.normal(size=p.data.shape).astype(np.float32)
                     for _, p in arena.named_params]
            for opt in (arena, loop):
                opt.zero_grad()
                for (_, p), g in zip(opt.named_params, grads):
                    p.grad = g.copy()
            if epoch == 2:
                arena.named_params[1][1].grad = None
                before = (arena.flat.copy(), arena.m.copy(), arena.v.copy(), arena.step_count)
                with pytest.raises(ContractError, match="no gradient for 'b'"):
                    arena.step(epoch)
                np.testing.assert_array_equal(arena.flat, before[0])
                np.testing.assert_array_equal(arena.m, before[1])
                np.testing.assert_array_equal(arena.v, before[2])
                assert arena.step_count == before[3]
                arena.named_params[1][1].grad = grads[1].copy()
            assert arena.step(epoch) == adamw_loop_step(loop, epoch)
        np.testing.assert_array_equal(arena.flat, loop.flat)
        np.testing.assert_array_equal(arena.m, loop.m)
        np.testing.assert_array_equal(arena.v, loop.v)

    def test_cosine_schedule_shape(self):
        s = nm.CosineSchedule(0.2, 10, warmup=2)
        assert s.lr_at(1) == pytest.approx(0.1)
        assert s.lr_at(2) == pytest.approx(0.2)
        # cosine midpoint: progress 0.5 gives half the base rate
        assert s.lr_at(6) == pytest.approx(0.2 * 0.5, abs=1e-12)
        assert s.lr_at(10) == pytest.approx(0.2 * 0.01)

    def test_cosine_schedule_contracts(self):
        with pytest.raises(ContractError):
            nm.CosineSchedule(0.1, 0)
        with pytest.raises(ContractError):
            nm.CosineSchedule(0.1, 5, warmup=5)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        rng = derive(1, 112)
        state = {"a": rng.normal(size=(3, 4)).astype(np.float32),
                 "nested.name": rng.normal(size=(2,)).astype(np.float32),
                 "wide": rng.normal(size=(2, 1, 3)),
                 "scalar": np.float64(np.pi) * np.ones(())}
        nm.save_checkpoint(tmp_path / "c.ckpt", state)
        back = nm.load_checkpoint(tmp_path / "c.ckpt")
        assert set(back) == set(state)
        for k in state:
            assert back[k].dtype == state[k].dtype
            np.testing.assert_array_equal(back[k], state[k])

    def test_bad_magic(self, tmp_path):
        (tmp_path / "c.ckpt").write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(FormatError, match="c.ckpt: not a readable checkpoint"):
            nm.load_checkpoint(tmp_path / "c.ckpt")

    def test_truncated(self, tmp_path):
        nm.save_checkpoint(tmp_path / "c.ckpt", {"w": np.ones((4, 4))})
        blob = (tmp_path / "c.ckpt").read_bytes()
        (tmp_path / "t.ckpt").write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="t.ckpt: not a readable checkpoint"):
            nm.load_checkpoint(tmp_path / "t.ckpt")
