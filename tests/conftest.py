import os
import sys

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

from idea import autodiff as ad
from idea import synthetic
from idea.autodiff import Tensor
from idea.encoder import INIT_STD

# every property test is reproducible run to run; each sets only its own max_examples
settings.register_profile("idea", deadline=None, derandomize=True, database=None)
settings.load_profile("idea")


@pytest.fixture(scope="session")
def synthetic_corpus(tmp_path_factory):
    """Clean 3-class keyword corpus: 300 train / 150 test."""
    root = tmp_path_factory.mktemp("corpus")
    train_csv = str(root / "train.csv")
    test_csv = str(root / "test.csv")
    rows, names = synthetic.generate_rows(300, 3, seed=100)
    synthetic.write_csv(rows, train_csv)
    rows_t, _ = synthetic.generate_rows(150, 3, seed=200)
    synthetic.write_csv(rows_t, test_csv)
    return {"train": train_csv, "test": test_csv, "labels": names}


@pytest.fixture(scope="session")
def noisy_corpus(tmp_path_factory):
    """Harder corpus with shared vocabulary and cross-class keyword noise."""
    root = tmp_path_factory.mktemp("noisy")
    train_csv = str(root / "train.csv")
    test_csv = str(root / "test.csv")
    gen = dict(n_classes=3, overlap=2, confusion=0.45, label_token_rate=0.9)
    rows, names = synthetic.generate_rows(600, seed=300, **gen)
    synthetic.write_csv(rows, train_csv)
    rows_t, _ = synthetic.generate_rows(300, seed=301, **gen)
    synthetic.write_csv(rows_t, test_csv)
    return {"train": train_csv, "test": test_csv, "labels": names}


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def total(x: Tensor, weights: Tensor | None = None) -> Tensor:
    """The sum of x's entries, each times its entry of weights (1 without weights), as a 0-d scalar loss.

    Built from the program's own ops: x's entries as a 1 x n row, times the
    weights as an n x 1 column, reshaped to (); the gradient of x is the weights.
    """
    n = x.data.size
    column = np.ones((n, 1), x.data.dtype) if weights is None else weights.data.reshape(n, 1)
    return ad.reshape(ad.matmul(ad.reshape(x, (1, n)), Tensor(column)), ())


def draw_normal_classifier(params, rng) -> None:
    """Draw the zero-initialized params["clf.W"] from N(0, INIT_STD).

    Called on the rng the parameters were initialized from, right after, it gives
    the values an initializer draw in parameter order would: clf.W is the last
    parameter drawn, and clf.b, the only one after it, is zeros.
    """
    w = params["clf.W"].data
    w[...] = rng.normal(0.0, INIT_STD, size=w.shape)
