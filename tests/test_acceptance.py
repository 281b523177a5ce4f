"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines for
passing tests too.  Timed criteria measure the whole computation, first
calls included: the kernels are plain numpy and need no warm-up.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.cli import main
from grouplab.groups import make_group
from grouplab.hilbert import (
    ExpansionWeights,
    L2Function,
    inner,
    parseval_defect,
    project,
    random_function,
)
from grouplab.iwasawa import lift_family, make_iwasawa_model
from grouplab.fourier import fourier_transform, synthesize
from grouplab.parseval import (
    block_decompose,
    isometry_defect,
    inverse_H,
    membership,
    transform_H,
    zero_sequence,
)
from grouplab.semicomplete import (
    OmissionSpec,
    build_riemann_lebesgue_family,
    omission_tail_bound,
    semi_fourier_expand,
    validate_weights,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_peter_weyl_completeness_finite():
    with criterion(1, "Peter-Weyl completeness on finite groups"):
        start = time.perf_counter()
        for spec in ["zn:12", "dihedral:5", "sym:3"]:
            group = make_group(spec)
            cat = build_catalog(group)
            basis = peter_weyl_basis(cat)
            for seed in range(50):
                f = random_function(group, seed)
                assert abs(parseval_defect(f, basis)) <= 1e-10, spec
                back = synthesize(fourier_transform(f, cat), cat)
                assert (f - back).norm() <= 1e-10, spec
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_schur_orthogonality_gram():
    with criterion(2, "Schur orthogonality of the Peter-Weyl family"):
        start = time.perf_counter()
        for spec in ["zn:12", "dihedral:5", "sym:3"]:
            fam = peter_weyl_basis(build_catalog(make_group(spec)))
            assert fam.gram_defect() <= 1e-12, spec
        fam = peter_weyl_basis(build_catalog(make_group("circle:64"), truncation=10))
        assert fam.gram_defect() <= 1e-8, "circle:64 M=10"
        fam = peter_weyl_basis(build_catalog(make_group("su2:j=2")))
        assert fam.gram_defect() <= 1e-8, "su2 jmax=2"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_3_dimension_count():
    with criterion(3, "dimension count sum d^2 = |G|"):
        for spec, order in [
            ("zn:1", 1),
            ("zn:4", 4),
            ("zn:12", 12),
            ("dihedral:3", 6),
            ("dihedral:5", 10),
            ("sym:3", 6),
            ("sym:4", 24),
        ]:
            cat = build_catalog(make_group(spec))
            assert sum(lab.degree**2 for lab in cat.labels) == order, spec


def test_criterion_4_tail_bound_soundness():
    with criterion(4, "omission tail bound dominates the expansion defect"):
        rng = np.random.default_rng(2024)
        for spec in ["zn:12", "sym:3"]:
            group = make_group(spec)
            cat = build_catalog(group)
            full = peter_weyl_basis(cat)
            keys = [lab.key for lab in cat.labels]
            for trial in range(50):
                n_omit = int(rng.integers(1, len(keys)))
                omitted = tuple(
                    sorted(rng.choice(keys, size=n_omit, replace=False))
                )
                if len(omitted) == len(keys):
                    omitted = omitted[:-1]
                spec_o = OmissionSpec(omitted=omitted)
                fam = build_riemann_lebesgue_family(cat, spec_o)
                f = random_function(group, int(rng.integers(0, 2**31)))
                actual = (project(f, full) - project(f, fam)).norm()
                bound = omission_tail_bound(f, cat, spec_o)
                assert actual <= bound + 1e-9, (spec, omitted)


def test_criterion_5_membership_isometry_consistency():
    with criterion(5, "membership, round-trip, and isometry verdicts agree"):
        group = make_group("sym:3")
        cat = build_catalog(group)
        fam = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=("irrep:2",)))
        tol = 1e-10
        for k in range(6):
            e = np.zeros(6)
            e[k] = 1.0
            f = L2Function(group, e)
            member = membership(f, fam, tol=tol).member
            round_trip = (project(f, fam) - f).norm() <= np.sqrt(tol)
            iso = isometry_defect(f, fam) <= tol
            assert member == round_trip == iso, k
        rng = np.random.default_rng(55)
        for _ in range(50):
            seq = zero_sequence(fam)
            for b in fam.blocks:
                seq.matrices[b.label] = rng.standard_normal(
                    (b.size, b.size)
                ) + 1j * rng.standard_normal((b.size, b.size))
            back = transform_H(inverse_H(seq, fam), fam)
            err = max(
                np.max(np.abs(back.matrices[b.label] - seq.matrices[b.label]))
                for b in fam.blocks
            )
            assert err <= 1e-10


def test_criterion_6_weight_validation_and_fixed_points():
    with criterion(6, "weight admissibility flags and diagonal fixed points"):
        rng = np.random.default_rng(77)
        n = 3
        group = make_group("sym:3")
        cat = build_catalog(group)
        fam = peter_weyl_basis(cat)
        for trial in range(100):
            gamma = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            gamma[np.abs(gamma) < 0.1] += 1.0 + 1.0j
            beta = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            beta[np.abs(beta) < 0.1] += 1.0 + 1.0j
            beta[np.diag_indices(n)] = 1.0 / gamma
            perturbed = trial >= 50
            perturbed_index = None
            if perturbed:
                perturbed_index = int(rng.integers(0, n))
                beta[perturbed_index, perturbed_index] *= 1.0 + 1.0 + 0.5j
            w = ExpansionWeights(gamma, beta)
            diag = validate_weights(w)
            if perturbed:
                assert not diag.admissible, trial
                assert [i for i, _ in diag.diagonal_violations] == [perturbed_index]
            else:
                assert diag.admissible, trial
                # admissible weights fix diagonal members
                f = fam.member(2, trial % 2, trial % 2)
                g = semi_fourier_expand(f, fam, ExpansionWeights(gamma[:2], beta[:2, :2]))
                assert abs(inner(g, f) - inner(f, f)) <= 1e-10


def test_criterion_7_block_decomposition():
    with criterion(7, "block projections orthogonal and summing to the projection"):
        cases = [("sym:3", None), ("circle:64", 5)]
        for spec, trunc in cases:
            group = make_group(spec)
            cat = build_catalog(group, truncation=trunc)
            fam = peter_weyl_basis(cat)
            for seed in range(50):
                f = random_function(group, seed)
                parts = [p for _, _, p in block_decompose(f, fam)]
                assert len(parts) == sum(lab.degree for lab in cat.labels), spec
                total = L2Function(group, np.zeros(group.n_nodes))
                for p in parts:
                    total = total + p
                span_proj = project(f, fam)
                assert (total - span_proj).norm() <= 1e-9, spec
                if seed < 5:
                    for a in range(len(parts)):
                        for b in range(a + 1, len(parts)):
                            assert abs(inner(parts[a], parts[b])) <= 1e-9, spec


def test_criterion_8_iwasawa_lift():
    with criterion(8, "Iwasawa lift residuals with Gaussian profile"):
        start = time.perf_counter()
        model = make_iwasawa_model(
            "circle:64", (-2.0, 2.0), (-2.0, 2.0), 32, 32, profile="gauss:sigma=0.7"
        )
        cat = build_catalog(model.K, truncation=3)
        xi = peter_weyl_basis(cat)
        lifted = lift_family(model, xi)
        restricted = lifted.restrict_to_k()
        assert np.max(np.abs(restricted.members - xi.members)) == 0.0
        gram_residual = np.max(np.abs(lifted.gram_matrix() - xi.gram_matrix()))
        assert gram_residual <= 1e-9
        assert model.condition_i_residual() == 0.0
        assert model.condition_ii_residual() <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical semicomplete reports for identical configs"):
        cfg = {
            "name": "det",
            "group": "sym:3",
            "omit": ["irrep:2"],
            "weights": "diag-reciprocal:seed=11",
            "test_set": "random:count=20,seed=3",
            "epsilon": 0.25,
        }
        path = tmp_path / "det.json"
        path.write_text(json.dumps(cfg))
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["semicomplete", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["semicomplete", "--config", str(path), "--out", str(out2)]) == 0
        b1 = (out1 / "det_semicomplete.json").read_bytes()
        b2 = (out2 / "det_semicomplete.json").read_bytes()
        assert b1 == b2
