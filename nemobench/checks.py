"""Independent references for the program's outputs.

Nothing here calls into ``repro``: the majority vote, the document
frequencies and the expected vote columns are recomputed from the raw
texts, the incidence matrices and the session's LF list, so a fault in
the program cannot hide behind a shared helper.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

#: The featurizer's vocabulary limits for the ``bench`` and ``tiny``
#: scales (``featurize_corpus`` / ``featurize_mc_corpus`` defaults, and
#: ``min_df=2`` in the binary recipes below the ``paper`` scale).
MIN_DF = 2
MAX_DF_RATIO = 0.5


def split_sizes_ok(dataset, n_docs: int) -> bool:
    """Splits are 10% valid, 10% test and the rest train, of ``n_docs``."""
    n_valid = max(int(round(0.1 * n_docs)), 1)
    n_test = max(int(round(0.1 * n_docs)), 1)
    return (
        dataset.valid.n == n_valid
        and dataset.test.n == n_test
        and dataset.train.n == n_docs - n_valid - n_test
    )


def tfidf_rows_ok(split) -> bool:
    """Every TF-IDF row has unit L2 norm or is empty; weights are positive."""
    X = split.X.tocsr()
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    empty = np.diff(X.indptr) == 0
    return bool(np.all(X.data > 0) and np.all(empty | (np.abs(norms - 1.0) < 1e-9)))


def incidence_pattern_ok(split) -> bool:
    """B is 0/1 with exactly X's sparsity pattern."""
    X = split.X.tocsr().copy()
    B = split.B.tocsr().copy()
    X.sort_indices()
    B.sort_indices()
    return bool(
        X.shape == B.shape
        and np.array_equal(X.indptr, B.indptr)
        and np.array_equal(X.indices, B.indices)
        and np.all(B.data == 1)
    )


def train_doc_freq_ok(dataset) -> bool:
    """Each primitive's train document frequency, recounted with
    ``str.split``, equals its incidence column count and lies within the
    vectorizer's ``min_df`` / ``max_df_ratio`` limits."""
    train = dataset.train
    df = Counter()
    for text in train.texts:
        df.update(set(text.split()))
    recount = np.array([df[name] for name in dataset.primitive_names])
    column_counts = np.diff(train.B.tocsc().indptr)
    return bool(
        np.array_equal(recount, column_counts)
        and recount.min() >= MIN_DF
        and recount.max() <= MAX_DF_RATIO * train.n
    )


def lf_columns(dataset, lfs) -> list[tuple[int, int]]:
    """``(primitive id, label)`` for each LF, from its primitive token."""
    index = {name: i for i, name in enumerate(dataset.primitive_names)}
    return [(index[lf.primitive], int(lf.label)) for lf in lfs]


def vote_columns_ok(session, dataset, abstain: int) -> bool:
    """Each LF's train and valid column equals its label exactly where its
    primitive's incidence column is non-zero, and abstains elsewhere."""
    columns = lf_columns(dataset, session.lfs)
    for L, split in ((session.L_train, dataset.train), (session.L_valid, dataset.valid)):
        L = np.asarray(L)
        if L.shape != (split.n, len(columns)):
            return False
        B = split.B.tocsc()
        for j, (pid, label) in enumerate(columns):
            expected = np.full(split.n, abstain)
            expected[B.indices[B.indptr[pid] : B.indptr[pid + 1]]] = label
            if not np.array_equal(L[:, j], expected):
                return False
    return True


def posterior_rows_ok(posterior, n_classes: int | None) -> bool:
    """Binary: ``P(y=+1)`` in [0, 1].  K classes: rows are distributions."""
    P = np.asarray(posterior, dtype=float)
    if not np.all(np.isfinite(P)):
        return False
    if n_classes is None:
        return P.ndim == 1 and bool(np.all((P >= 0.0) & (P <= 1.0)))
    return (
        P.ndim == 2
        and P.shape[1] == n_classes
        and bool(np.all(P >= 0.0))
        and bool(np.allclose(P.sum(axis=1), 1.0, atol=1e-6))
    )


def _class_index(labels, n_classes: int | None) -> np.ndarray:
    """Map labels to 0..C-1: binary ±1 to 0/1, K-class ids unchanged."""
    labels = np.asarray(labels)
    return (labels == 1).astype(int) if n_classes is None else labels.astype(int)


def majority_vote(dataset, lfs, n_classes: int | None):
    """Unweighted vote of ``lfs`` on the train split.

    Returns ``(covered, credit)``: the rows at least one LF votes on, and
    per row the share of the top-voted classes that is the true class
    (a tie among ``t`` classes earns ``1/t`` when the truth is among them).
    """
    train = dataset.train
    C = 2 if n_classes is None else n_classes
    counts = np.zeros((train.n, C))
    B = train.B.tocsc()
    for pid, label in lf_columns(dataset, lfs):
        rows = B.indices[B.indptr[pid] : B.indptr[pid + 1]]
        counts[rows, _class_index([label], n_classes)[0]] += 1
    covered = counts.sum(axis=1) > 0
    top = counts == counts.max(axis=1, keepdims=True)
    truth = _class_index(train.y, n_classes)
    credit = top[np.arange(train.n), truth] / top.sum(axis=1)
    return covered, credit


def floor_pair(session, dataset, n_classes: int | None) -> tuple[float, float]:
    """``(label model, majority vote)`` accuracy on rows the final LFs cover.

    The label model side is the posterior of the model fitted on the raw
    (unrefined) votes: the view a vote of the same LFs competes with.
    """
    covered, credit = majority_vote(dataset, session.lfs, n_classes)
    posterior = session.selection_soft_labels
    if posterior is None:
        posterior = session.soft_labels
    posterior = np.asarray(posterior)
    if n_classes is None:
        hard = (posterior >= 0.5).astype(int)
    else:
        hard = posterior.argmax(axis=1)
    truth = _class_index(dataset.train.y, n_classes)
    lm = float(np.mean(hard[covered] == truth[covered]))
    return lm, float(np.mean(credit[covered]))
