import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from grouplab import _kernels
from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.groups import circle_group
from grouplab.hilbert import (
    L2Function,
    OrthonormalFamily,
    TestSet,
    diag_reciprocal_weights,
    random_function,
    unit_weights,
)
from grouplab.iwasawa import (
    LiftedFamily,
    an_grid_bytes,
    lift_family,
    make_iwasawa_model,
    max_reproduction_residual,
    reproduction_residual,
)
from grouplab.semicomplete import OmissionSpec, build_riemann_lebesgue_family, semicompleteness_defect
from grouplab.spec import ConfigError
from support import check_K_semicomplete, member_flat, oracle_members, stack


@pytest.fixture(scope="module")
def gauss_model():
    return make_iwasawa_model(
        "circle:64", (-2.0, 2.0), (-2.0, 2.0), 32, 32, profile="gauss:sigma=0.7"
    )


@pytest.fixture(scope="module")
def k_catalog(gauss_model):
    return build_catalog(gauss_model.K, truncation=3)


def test_uniform_profile_on_unit_box_exact():
    model = make_iwasawa_model(
        "circle:16", (-0.5, 0.5), (-0.5, 0.5), 8, 8, profile="uniform"
    )
    assert np.all(model.profile == 0.0)
    assert model.condition_i_residual() == 0.0
    assert model.condition_ii_residual() < 1e-15
    assert abs(model.an_weights.sum() - 1.0) < 1e-12


def test_gauss_profile_renormalized(gauss_model):
    assert gauss_model.condition_i_residual() == 0.0
    assert gauss_model.condition_ii_residual() < 1e-10
    # oracle: recompute the normalization constant by brute-force sum
    mass = sum(
        w * np.exp(2.0 * float(f.real))
        for w, f in zip(gauss_model.an_weights, gauss_model.profile)
    )
    assert abs(mass - 1.0) < 1e-10


def test_range_excluding_identity_rejected():
    with pytest.raises(ValueError):
        make_iwasawa_model("circle:16", (0.5, 1.5), (-1.0, 1.0), 8, 8)
    with pytest.raises(ValueError):
        make_iwasawa_model("circle:16", (-1.0, 1.0), (-2.0, -1.0), 8, 8)


def test_degenerate_range_rejected():
    with pytest.raises(ValueError):
        make_iwasawa_model("circle:16", (1.0, 1.0), (-1.0, 1.0), 8, 8)
    with pytest.raises(ValueError):
        make_iwasawa_model("circle:16", (-1.0, 1.0), (-1.0, 1.0), 0, 8)


def test_non_circle_k_rejected():
    with pytest.raises(ValueError):
        make_iwasawa_model("sym:3", (-1.0, 1.0), (-1.0, 1.0), 8, 8)


def test_profile_table_roundtrip(tmp_path):
    table = np.linspace(-1.0, 0.5, 24).reshape(4, 6)
    path = tmp_path / "profile.txt"
    np.savetxt(path, table)
    model = make_iwasawa_model(
        "circle:16", (-1.0, 1.0), (-1.5, 1.5), 4, 6, profile=f"table:{path}"
    )
    assert model.condition_i_residual() == 0.0
    assert model.condition_ii_residual() < 1e-12


def test_bad_profiles_rejected(tmp_path):
    with pytest.raises(ValueError):
        make_iwasawa_model("circle:16", (-1, 1), (-1, 1), 4, 4, profile="banana")
    with pytest.raises(ValueError):
        make_iwasawa_model("circle:16", (-1, 1), (-1, 1), 4, 4, profile="gauss:sigma=0")
    path = tmp_path / "short.txt"
    np.savetxt(path, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        make_iwasawa_model("circle:16", (-1, 1), (-1, 1), 4, 4, profile=f"table:{path}")


BAD_MODEL_INPUTS = {
    "range-excludes-identity": dict(a_range=(0.5, 1.5)),
    "degenerate-range": dict(n_range=(1.0, 1.0)),
    "no-nodes": dict(n_size=0),
    "non-circle-k": dict(k_spec="sym:3"),
    "sigma-zero": dict(profile="gauss:sigma=0"),
    "sigma-negative": dict(profile="gauss:sigma=-0.5"),
    "unknown-profile": dict(profile="banana"),
    "unknown-profile-key": dict(profile="gauss:width=1"),
    "missing-table": dict(table=None),
    "misshaped-table": dict(table="0 0\n0 0\n"),
    "non-numeric-table": dict(table="a b c d\n" * 4),
    "unnormalizable-table": dict(table="0 0 0 0\n" * 2 + "0 0 0 inf\n0 0 0 0\n"),
    # exp(2 * 1000) overflows: still the same config error, and no numpy warning
    "overflowing-table": dict(table="0 0 0 0\n" * 2 + "0 0 0 1000\n0 0 0 0\n"),
}


@pytest.mark.parametrize("case", list(BAD_MODEL_INPUTS))
def test_bad_model_inputs_raise_config_error(case, tmp_path):
    args = dict(
        k_spec="circle:16", a_range=(-1.0, 1.0), n_range=(-1.0, 1.0), a_size=4, n_size=4
    )
    args.update(BAD_MODEL_INPUTS[case])
    if "table" in args:
        path = tmp_path / "profile.txt"
        text = args.pop("table")
        if text is not None:
            path.write_text(text)
        args["profile"] = f"table:{path}"
    with pytest.raises(ConfigError):
        make_iwasawa_model(**args)


@pytest.mark.parametrize("entry", ["inf", "1000"])
def test_unnormalizable_table_is_one_config_error_without_warnings(entry, tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("0 0 0 0\n" * 2 + f"0 0 0 {entry}\n0 0 0 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="is not normalizable on the range"):
            make_iwasawa_model("circle:16", (-1, 1), (-1, 1), 4, 4, profile=f"table:{path}")


def test_lift_constant_family_uniform_profile():
    model = make_iwasawa_model(
        "circle:16", (-0.5, 0.5), (-0.5, 0.5), 8, 8, profile="uniform"
    )
    cat = build_catalog(model.K, truncation=0)
    xi = peter_weyl_basis(cat)   # just the constant character
    lifted = lift_family(model, xi)
    assert np.max(np.abs(lifted.members - 1.0)) < 1e-12
    g = lifted.gram_matrix()
    assert abs(g[0, 0] - 1.0) < 1e-12


def test_lift_gram_matches_source(gauss_model, k_catalog):
    xi = peter_weyl_basis(k_catalog)
    assert xi.n_members == 7
    lifted = lift_family(gauss_model, xi)
    residual = np.max(np.abs(lifted.gram_matrix() - xi.gram_matrix()))
    assert residual < 1e-9
    assert np.max(np.abs(np.diag(lifted.gram_matrix()) - 1.0)) < 1e-9


def test_lift_holds_its_k_factor_once(gauss_model, k_catalog):
    # the K factor is the source family itself, so no lift can carry another one
    assert [field.name for field in dataclasses.fields(LiftedFamily)] == ["model", "source", "envelope"]
    lifted = lift_family(gauss_model, peter_weyl_basis(k_catalog))
    assert lifted.members is lifted.source.members
    with pytest.raises(AttributeError):
        lifted.members = 2 * lifted.source.members


def test_lift_restriction_is_bitwise_source(gauss_model, k_catalog):
    xi = peter_weyl_basis(k_catalog)
    lifted = lift_family(gauss_model, xi)
    restricted = lifted.restrict_to_k()
    assert np.array_equal(restricted.members, xi.members)
    assert restricted.blocks == xi.blocks


def test_lift_of_omission_family_restricts_exactly(gauss_model, k_catalog):
    omit = OmissionSpec(omitted=("m:3", "m:-3"))
    xi = build_riemann_lebesgue_family(k_catalog, omit)
    lifted = lift_family(gauss_model, xi)
    restricted = lifted.restrict_to_k()
    assert np.array_equal(restricted.members, xi.members)


def test_lift_depends_on_the_member_functions_not_their_row_scale(gauss_model, k_catalog):
    # the same functions stored as halved rows with a doubled scale (both exact)
    xi = peter_weyl_basis(k_catalog)
    halved = OrthonormalFamily(xi.group, xi.blocks, xi.members / 2, 2 * xi.scale)
    lifted, lifted_halved = lift_family(gauss_model, xi), lift_family(gauss_model, halved)
    restricted = lifted_halved.restrict_to_k()
    for m in range(xi.n_members):
        assert np.array_equal(member_flat(restricted, m).values, member_flat(lifted.restrict_to_k(), m).values)
    assert np.array_equal(lifted_halved.gram_matrix(), lifted.gram_matrix())


def test_lift_family_group_mismatch(gauss_model):
    cat = build_catalog(circle_group(32), truncation=2)
    xi = peter_weyl_basis(cat)
    with pytest.raises(ValueError):
        lift_family(gauss_model, xi)


def test_check_k_semicomplete_full_family(gauss_model, k_catalog):
    from grouplab.hilbert import random_function

    xi = peter_weyl_basis(k_catalog)
    lifted = lift_family(gauss_model, xi)
    testset = stack(random_function(gauss_model.K, s) for s in range(5))
    report = check_K_semicomplete(lifted, k_catalog, unit_weights(1), testset)
    assert report.max_defect < 1e-10


def test_check_k_semicomplete_needs_one_id_per_function(gauss_model, k_catalog):
    # the ids come with the TestSet, which refuses a mismatch before the check runs
    lifted = lift_family(gauss_model, peter_weyl_basis(k_catalog))
    values = np.array([random_function(gauss_model.K, s).values for s in range(3)])
    with pytest.raises(ValueError, match="1 function ids for 3 test functions"):
        TestSet(gauss_model.K, values, ids=["a"])
    testset = TestSet(gauss_model.K, values, ids=["a", "b", "c"])
    report = check_K_semicomplete(lifted, k_catalog, unit_weights(1), testset)
    assert [fid for fid, _ in report.per_function] == ["a", "b", "c"]


def test_check_k_semicomplete_omitted_character(gauss_model, k_catalog):
    omit = OmissionSpec(omitted=("m:3",))
    xi = build_riemann_lebesgue_family(k_catalog, omit)
    lifted = lift_family(gauss_model, xi)
    f = L2Function(gauss_model.K, np.exp(3j * gauss_model.K.thetas))
    report = check_K_semicomplete(lifted, k_catalog, unit_weights(1), stack([f]))
    assert abs(report.max_defect - 1.0) < 1e-9


def test_check_k_semicomplete_retained_span(gauss_model, k_catalog):
    omit = OmissionSpec(omitted=("m:3",))
    xi = build_riemann_lebesgue_family(k_catalog, omit)
    lifted = lift_family(gauss_model, xi)
    testset = stack(oracle_members(xi))
    report = check_K_semicomplete(lifted, k_catalog, unit_weights(1), testset)
    assert report.max_defect < 1e-9


def test_k_semicompleteness_is_semicompleteness_of_xi(gauss_model, k_catalog):
    # the restriction equals xi bit for bit (the lift_restriction row), so the
    # K-semicompleteness of a lift is the semicompleteness of its K factor
    xi = build_riemann_lebesgue_family(k_catalog, OmissionSpec(omitted=("m:3",)))
    testset = stack(random_function(gauss_model.K, s) for s in range(4))
    weights = diag_reciprocal_weights(1, 3)
    lifted = check_K_semicomplete(lift_family(gauss_model, xi), k_catalog, weights, testset)
    assert lifted.per_function == semicompleteness_defect(xi, weights, k_catalog, testset).per_function


def test_reproduction_residual_uniform_profile_zero():
    model = make_iwasawa_model(
        "circle:16", (-0.5, 0.5), (-0.5, 0.5), 8, 8, profile="uniform"
    )
    assert max_reproduction_residual(model) < 1e-12


def test_reproduction_residual_gauss_profile(gauss_model):
    # at the identity node the residual vanishes; far from it, it does not
    assert reproduction_residual(gauss_model) < 1e-9
    assert max_reproduction_residual(gauss_model) > 1e-2
    with pytest.raises(IndexError):
        reproduction_residual(gauss_model, an_index=10**9)


@pytest.mark.parametrize("g0_seed", [None, 11])
def test_max_reproduction_residual_is_oracle_max_over_nodes(gauss_model, g0_seed):
    g0 = None if g0_seed is None else random_function(gauss_model.K, g0_seed)
    oracle = max(
        reproduction_residual(gauss_model, g0=g0, an_index=k) for k in range(gauss_model.n_an)
    )
    assert abs(max_reproduction_residual(gauss_model, g0=g0) - oracle) <= 1e-15 * oracle


def _dense_lift(model, xi):
    """The lift as a dense members x (nK * nAN) matrix, its product measure and
    its unit row scale."""
    envelope = np.exp(model.profile)
    chi = xi.scale[:, None] * xi.members
    members = (chi[:, :, None] * envelope[None, None, :]).reshape(xi.n_members, -1)
    weights = (xi.group.weights[:, None] * model.an_weights[None, :]).reshape(-1)
    return members, weights, np.ones(xi.n_members)


@pytest.mark.parametrize("k_spec,an_size", [("circle:16", 4), ("circle:64", 32)])
def test_factored_lift_matches_dense_oracle(k_spec, an_size):
    model = make_iwasawa_model(
        k_spec, (-2.0, 2.0), (-1.5, 1.5), an_size, an_size, profile="gauss:sigma=0.7"
    )
    xi = peter_weyl_basis(build_catalog(model.K, truncation=3))
    lifted = lift_family(model, xi)
    assert lifted.members is xi.members
    dense, weights, unit = _dense_lift(model, xi)

    gram = lifted.gram_matrix()
    assert np.max(np.abs(gram - _kernels.gram(dense, weights, unit))) < 1e-14
    restricted = lifted.restrict_to_k()
    assert np.array_equal(restricted.members, dense[:, model.id_index :: model.n_an])


def test_misnormalised_profile_breaks_gram_residual(gauss_model, k_catalog):
    broken = dataclasses.replace(gauss_model, an_weights=gauss_model.an_weights * 1.01)
    xi = peter_weyl_basis(k_catalog)
    lifted = lift_family(broken, xi)
    gram = lifted.gram_matrix()
    assert np.max(np.abs(gram - xi.gram_matrix())) > 1e-3          # gram_residual
    assert np.max(np.abs(np.diag(gram) - 1.0)) > 1e-3              # norm_residual
    dense, weights, unit = _dense_lift(broken, xi)
    assert np.max(np.abs(gram - _kernels.gram(dense, weights, unit))) < 1e-12


def test_lift_memory_bounded_by_factors():
    # the dense member matrix would be 33 x (256 * 65536) complex values, about 8.9 GB
    tracemalloc.start()
    try:
        model = make_iwasawa_model(
            "circle:256", (-2.0, 2.0), (-2.0, 2.0), 256, 256, profile="gauss:sigma=0.7"
        )
        xi = peter_weyl_basis(build_catalog(model.K, truncation=16))
        lifted = lift_family(model, xi)
        gram = lifted.gram_matrix()
        restricted = lifted.restrict_to_k()
        residual = max_reproduction_residual(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xi.n_members == 33
    assert np.max(np.abs(gram - xi.gram_matrix())) < 1e-9
    assert np.array_equal(restricted.members, xi.members)
    assert residual > 1e-2
    assert peak < 64 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("profile", ["uniform", "gauss:sigma=0.7"])
def test_an_grid_bytes_bound_what_the_lift_allocates(profile):
    # the config preflight refuses a grid by an_grid_bytes, so it must cover
    # the lift's own AN arrays: model, envelope and the residual temporaries
    xi = peter_weyl_basis(build_catalog(circle_group(8)))
    tracemalloc.start()
    try:
        model = make_iwasawa_model("circle:8", (-2.0, 2.0), (-2.0, 2.0), 512, 256, profile=profile)
        lifted = lift_family(model, xi)
        lifted.gram_matrix()
        lifted.restrict_to_k()
        model.condition_i_residual()
        model.condition_ii_residual()
        reproduction_residual(model)
        max_reproduction_residual(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = an_grid_bytes(512, 256)
    assert 0.9 * need < peak < need + 2**16, (peak, need)
